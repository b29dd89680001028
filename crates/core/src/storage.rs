//! Graph identity for persisted and served views.
//!
//! Materialized extensions are only meaningful for the graph they were
//! computed on. [`graph_fingerprint`] is the identity every layer checks
//! against: the binary shard format records it in `meta.json`, the store
//! and engine reject views registered against another graph, and the
//! service validates a supplied graph before any plan reads it.
//!
//! The fingerprint is `O(1)`: the graph carries an order-independent hash
//! of its edge set ([`DataGraph::edge_set_hash`]), computed once at
//! construction and moved per changed edge when a delta splices the
//! successor graph. Checking a graph on every delta and every batch is
//! therefore free. Shard format v2 records this fingerprint; v1 stores hold
//! the earlier ordered edge-list hash and must be re-materialized.

use gpv_graph::DataGraph;

/// A cheap structural fingerprint of a graph: FNV-1a over its node and
/// edge counts and its [`DataGraph::edge_set_hash`]. `O(1)`. Not
/// cryptographic — just enough to catch "these views belong to a different
/// graph".
pub fn graph_fingerprint(g: &DataGraph) -> u64 {
    let mut h = crate::fnv::Fnv1a::new();
    h.write_u64_coarse(g.node_count() as u64);
    h.write_u64_coarse(g.edge_count() as u64);
    h.write_u64_coarse(g.edge_set_hash());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;

    fn graph(reversed_second_edge: bool) -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let c = b.add_node(["B"]);
        let d = b.add_node(["C"]);
        b.add_edge(a, c);
        if reversed_second_edge {
            b.add_edge(d, c);
        } else {
            b.add_edge(c, d);
        }
        b.build()
    }

    #[test]
    fn fingerprint_sensitive_to_edges() {
        let g = graph(false);
        let fp1 = graph_fingerprint(&g);
        assert_ne!(fp1, graph_fingerprint(&graph(true)));
        assert_eq!(fp1, graph_fingerprint(&g));
    }
}
