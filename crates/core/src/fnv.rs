//! The one FNV-1a implementation shared by every fingerprint in this crate
//! (graph, view-set, shard routing, query). Non-cryptographic by design —
//! collision-sensitive consumers must pair the hash with an equality check
//! (see [`crate::service`]'s plan cache).

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Mixes raw bytes (one FNV round per byte).
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// Mixes a whole `u64` in one round (the historical
    /// [`graph_fingerprint`](crate::storage::graph_fingerprint) granularity,
    /// kept so existing cache fingerprints stay valid).
    pub(crate) fn write_u64_coarse(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(PRIME);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Lets `std::hash::Hash` implementations feed the hasher directly (the
/// structural [`query_fingerprint`](crate::service::query_fingerprint)).
impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot byte-wise FNV-1a.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}
