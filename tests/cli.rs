//! Integration tests for the `gpv` CLI binary.

use std::io::Write as _;
use std::process::Command;

fn gpv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpv"))
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("gpv-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const GRAPH: &str = "\
node 0 PM\n\
node 1 DBA\n\
node 2 PRG\n\
edge 0 1\n\
edge 1 2\n\
edge 2 1\n";

const QUERY: &str = "\
node pm PM\n\
node dba DBA\n\
node prg PRG\n\
edge pm dba\n\
edge dba prg\n\
edge prg dba\n";

const VIEW1: &str = "node pm PM\nnode dba DBA\nedge pm dba\n";
const VIEW2: &str = "node dba DBA\nnode prg PRG\nedge dba prg\nedge prg dba\n";

#[test]
fn stats() {
    let g = write_tmp("stats-g.txt", GRAPH);
    let out = gpv()
        .args(["stats", "--graph", g.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("nodes=3"), "{s}");
    assert!(s.contains("edges=3"), "{s}");
}

#[test]
fn match_direct() {
    let g = write_tmp("match-g.txt", GRAPH);
    let q = write_tmp("match-q.txt", QUERY);
    let out = gpv()
        .args([
            "match",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("result=3 pairs"), "{s}");
    assert!(s.contains("S(u0->u1) = (0,1)"), "{s}");
}

#[test]
fn contain_and_answer_via_views() {
    let g = write_tmp("ans-g.txt", GRAPH);
    let q = write_tmp("ans-q.txt", QUERY);
    let v1 = write_tmp("ans-v1.txt", VIEW1);
    let v2 = write_tmp("ans-v2.txt", VIEW2);

    let out = gpv()
        .args([
            "contain",
            "--pattern",
            q.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("contained=true"));

    // Answering through views equals direct matching.
    let direct = gpv()
        .args([
            "match",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let via = gpv()
        .args([
            "answer",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--select",
            "minimum",
        ])
        .output()
        .unwrap();
    assert!(
        via.status.success(),
        "{}",
        String::from_utf8_lossy(&via.stderr)
    );
    assert_eq!(direct.stdout, via.stdout);
}

#[test]
fn not_contained_fails() {
    let q = write_tmp("nc-q.txt", QUERY);
    let v1 = write_tmp("nc-v1.txt", VIEW1); // V1 alone misses the cycle
    let out = gpv()
        .args([
            "contain",
            "--pattern",
            q.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("contained=false"));
}

#[test]
fn bounded_answer() {
    let g = write_tmp("b-g.txt", GRAPH);
    let q = write_tmp("b-q.txt", "node pm PM\nnode prg PRG\nedge pm prg 2\n");
    let v = write_tmp("b-v.txt", "node pm PM\nnode prg PRG\nedge pm prg 2\n");
    let out = gpv()
        .args([
            "answer",
            "--bounded",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--view",
            v.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("(0,2,d2)"), "PM reaches PRG in 2 hops: {s}");
}

#[test]
fn serve_batch_command() {
    let g = write_tmp("srv-g.txt", GRAPH);
    let q = write_tmp("srv-q.txt", QUERY);
    let v1 = write_tmp("srv-v1.txt", VIEW1);
    let v2 = write_tmp("srv-v2.txt", VIEW2);
    let out = gpv()
        .args([
            "serve",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--shards",
            "4",
            "--clients",
            "2",
            "--repeat",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    // 2 patterns x 3 repeats x 2 clients, all identical: the first is
    // planned, the second dedupes inside the first batch, and the repeated
    // batches hit the cross-batch result cache. One line per batch
    // position is printed, not one per answer served.
    assert!(s.contains("served 12 queries"), "{s}");
    assert!(s.contains("query 0: 3 pairs"), "{s}");
    assert!(s.contains("query 1: 3 pairs (deduped"), "{s}");
    assert!(!s.contains("query 2:"), "{s}");
    assert!(
        s.lines()
            .any(|l| l.starts_with("result cache: ") && !l.starts_with("result cache: 0 hits")),
        "repeated batches hit the result cache: {s}"
    );
    assert!(s.contains("2 views over 4 shards"), "{s}");
    assert!(s.contains("plan cache:"), "{s}");
    assert!(s.contains("result cache:"), "{s}");
}

/// The CI contract: `gpv serve --repeat 2` on the example workload must
/// report a nonzero result-cache hit rate — the second submission of the
/// batch is answered from the cache, and a regression to always-miss is
/// loud. (The CI workflow runs the same command against the release
/// binary; this test pins it for `cargo test`.)
#[test]
fn serve_repeat_reports_nonzero_result_cache_hit_rate() {
    let g = write_tmp("rc-g.txt", GRAPH);
    let q = write_tmp("rc-q.txt", QUERY);
    let v1 = write_tmp("rc-v1.txt", VIEW1);
    let v2 = write_tmp("rc-v2.txt", VIEW2);
    let out = gpv()
        .args([
            "serve",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--repeat",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    let line = s
        .lines()
        .find(|l| l.starts_with("result cache:"))
        .unwrap_or_else(|| panic!("no result-cache line in: {s}"));
    // One client, one pattern, two repeats: exactly 1 hit / 1 miss.
    assert!(
        line.contains("1 hits / 1 misses (50% hit rate)"),
        "repeat 2 must hit the result cache once: {line}"
    );
    // Disabling the cache must report all misses, never fake hits.
    let off = gpv()
        .args([
            "serve",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--repeat",
            "2",
            "--result-cache-mb",
            "0",
        ])
        .output()
        .unwrap();
    assert!(off.status.success());
    let s = String::from_utf8_lossy(&off.stdout);
    assert!(
        s.contains("result cache: 0 hits / 0 misses"),
        "disabled cache neither hits nor probes: {s}"
    );
}

/// A reader that closes stdout early (`gpv serve ... | head -n 1`) ends
/// the command quietly: status 0 and nothing on stderr, not a
/// `failed printing to stdout` panic. A batch of two thousand patterns,
/// each explained, prints more than a pipe buffer holds, so the child
/// cannot finish before the reader leaves.
#[test]
fn serve_into_a_closed_pipe_exits_cleanly() {
    use std::process::Stdio;
    let g = write_tmp("pipe-g.txt", GRAPH);
    let q = write_tmp("pipe-q.txt", QUERY);
    let v1 = write_tmp("pipe-v1.txt", VIEW1);
    let v2 = write_tmp("pipe-v2.txt", VIEW2);
    let q = q.to_str().unwrap();
    let mut child = gpv()
        .args([
            "serve",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--explain",
        ])
        .args((0..2000).flat_map(|_| ["--pattern", q]))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {err}", out.status);
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.is_empty(), "{err}");
}

/// `serve --updates-per-round N` interleaves seeded edge deltas with the
/// serving rounds through the delta-maintenance pipeline and reports a
/// maintenance summary. Serving must stay green across the deltas.
#[test]
fn serve_updates_per_round_applies_deltas_between_rounds() {
    let g = write_tmp("upd-g.txt", GRAPH);
    let q = write_tmp("upd-q.txt", QUERY);
    let v1 = write_tmp("upd-v1.txt", VIEW1);
    let v2 = write_tmp("upd-v2.txt", VIEW2);
    let out = gpv()
        .args([
            "serve",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--clients",
            "2",
            "--repeat",
            "3",
            "--updates-per-round",
            "2",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    // 1 pattern x 3 rounds x 2 clients.
    assert!(s.contains("served 6 queries"), "{s}");
    assert!(s.contains("maintenance: "), "{s}");
    assert!(s.contains("deltas applied"), "{s}");
    assert!(s.contains("view extensions re-frozen"), "{s}");
    // The stats block keeps its grep-stable lines in update mode.
    assert!(s.contains("plan cache:"), "{s}");
    assert!(s.contains("result cache:"), "{s}");
    assert!(
        s.lines().any(|l| l.starts_with("kept across deltas: ")
            && l.contains(" untouched (footprint missed), ")
            && l.ends_with(" unchanged (answer-level test)")),
        "{s}"
    );
    assert!(
        s.lines()
            .any(|l| l.starts_with("maintainers: ") && l.ends_with(" KiB resident")),
        "{s}"
    );
}

#[test]
fn minimize_command() {
    let q = write_tmp(
        "min-q.txt",
        "node a A\nnode b1 B\nnode b2 B\nedge a b1\nedge a b2\n",
    );
    let out = gpv()
        .args(["minimize", "--pattern", q.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("3 -> 2 nodes"), "{s}");
}

#[test]
fn single_pattern_commands_reject_multiple_patterns() {
    let g = write_tmp("mp-g.txt", GRAPH);
    let q = write_tmp("mp-q.txt", QUERY);
    let out = gpv()
        .args([
            "match",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one --pattern"));
}

#[test]
fn bad_usage() {
    let out = gpv().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = gpv().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

/// A node id of `u64::MAX` in a graph file is a clean error naming the
/// line, not a panic.
#[test]
fn graph_with_an_out_of_range_node_id_errors_cleanly() {
    let g = write_tmp("huge-id-g.txt", "node 18446744073709551615 A\n");
    let out = gpv()
        .args(["stats", "--graph", g.to_str().unwrap()])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        err.contains("line 1: node id 18446744073709551615 is out of range"),
        "{err}"
    );
}

/// A sparse node id below the limit is refused by the density check
/// before anything is sized by id: under a 1 GB address-space limit the
/// parser must still exit cleanly, where one slot per id value would need
/// well over 100 GB.
#[test]
fn graph_with_a_sparse_huge_node_id_errors_without_allocating_by_id() {
    let g = write_tmp("sparse-id-g.txt", "node 4000000000 A\n");
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 1000000 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_gpv"))
        .args(["stats", "--graph", g.to_str().unwrap()])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("node ids are not dense"), "{err}");
}

/// Golden-file contract for `gpv plan` EXPLAIN output. The per-edge
/// `View`/`Graph` sources and the cost estimate are part of the plan IR
/// contract (the serving layer EXPLAINs cached plans with the same
/// renderer), so format drift must be a deliberate edit to `tests/golden/`,
/// not a side effect. CI runs this via `cargo test`.
#[test]
fn plan_explain_matches_golden() {
    let g = write_tmp("gold-g.txt", GRAPH);
    let q = write_tmp("gold-q.txt", QUERY);
    let v1 = write_tmp("gold-v1.txt", VIEW1);
    let v2 = write_tmp("gold-v2.txt", VIEW2);
    let chain = write_tmp(
        "gold-chain.txt",
        "node pm PM\nnode dba DBA\nnode prg PRG\nedge pm dba\nedge dba prg\n",
    );
    let vxy = write_tmp("gold-vxy.txt", "node x X\nnode y Y\nedge x y\n");
    let run = |args: &[&std::path::PathBuf], views: &[&std::path::PathBuf]| -> String {
        let mut cmd = gpv();
        cmd.args(["plan", "--graph", args[0].to_str().unwrap()]);
        cmd.args(["--pattern", args[1].to_str().unwrap()]);
        for v in views {
            cmd.args(["--view", v.to_str().unwrap()]);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(
        run(&[&g, &q], &[&v1, &v2]),
        include_str!("golden/plan_views_only.txt"),
        "views-only EXPLAIN drifted; update tests/golden/ deliberately"
    );
    assert_eq!(
        run(&[&g, &chain], &[&v1]),
        include_str!("golden/plan_hybrid.txt"),
        "hybrid EXPLAIN drifted; update tests/golden/ deliberately"
    );
    assert_eq!(
        run(&[&g, &q], &[&vxy]),
        include_str!("golden/plan_direct.txt"),
        "direct EXPLAIN drifted; update tests/golden/ deliberately"
    );
}

/// `serve --store-dir` must save the sharded store on the first run, load
/// it on the second — announcing which happened — and serve identical
/// answers either way (the store-dir round trip may not perturb results).
#[test]
fn serve_store_dir_saves_then_loads_with_identical_answers() {
    let g = write_tmp("sd-g.txt", GRAPH);
    let q = write_tmp("sd-q.txt", QUERY);
    let v1 = write_tmp("sd-v1.txt", VIEW1);
    let v2 = write_tmp("sd-v2.txt", VIEW2);
    let dir = std::env::temp_dir().join(format!("gpv-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run = || {
        gpv()
            .args([
                "serve",
                "--graph",
                g.to_str().unwrap(),
                "--view",
                v1.to_str().unwrap(),
                "--view",
                v2.to_str().unwrap(),
                "--pattern",
                q.to_str().unwrap(),
                "--store-dir",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    // The per-query latency varies run to run; everything before it is
    // the answer (pair count, disposition, sourcing and a digest of the
    // answer's contents) and must match.
    let answers = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with("query "))
            .map(|l| l[..l.rfind(", ").unwrap_or(l.len())].to_string())
            .collect()
    };

    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let s1 = String::from_utf8_lossy(&first.stdout).to_string();
    assert!(s1.contains("store-dir: saved 2 views"), "{s1}");
    assert!(dir.join("meta.json").exists());

    let second = run();
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let s2 = String::from_utf8_lossy(&second.stdout).to_string();
    assert!(s2.contains("store-dir: loaded 2 views"), "{s2}");

    let (a1, a2) = (answers(&s1), answers(&s2));
    assert!(!a1.is_empty(), "{s1}");
    assert_eq!(a1, a2, "answers must be identical across save and load");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serving a persisted store against a *different* graph must be refused
/// up front (fingerprint mismatch), not silently produce wrong answers.
#[test]
fn serve_store_dir_rejects_a_different_graph() {
    let g = write_tmp("sdm-g.txt", GRAPH);
    let q = write_tmp("sdm-q.txt", QUERY);
    let v1 = write_tmp("sdm-v1.txt", VIEW1);
    let v2 = write_tmp("sdm-v2.txt", VIEW2);
    // Same shape, one extra node: a different fingerprint.
    let g2 = write_tmp(
        "sdm-g2.txt",
        "node 0 PM\nnode 1 DBA\nnode 2 PRG\nnode 3 PM\nedge 0 1\nedge 1 2\nedge 2 1\nedge 3 1\n",
    );
    let dir = std::env::temp_dir().join(format!("gpv-cli-store-mismatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run = |graph: &std::path::Path| {
        gpv()
            .args([
                "serve",
                "--graph",
                graph.to_str().unwrap(),
                "--view",
                v1.to_str().unwrap(),
                "--view",
                v2.to_str().unwrap(),
                "--pattern",
                q.to_str().unwrap(),
                "--store-dir",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    assert!(run(&g).status.success());
    let bad = run(&g2);
    assert!(!bad.status.success(), "mismatched graph must be rejected");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("different graph"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `advise` prints the kept views, the unanswered workload queries, and
/// eviction candidates for whatever the budget leaves out.
#[test]
fn advise_reports_selection_and_eviction_candidates() {
    let g = write_tmp("adv-g.txt", GRAPH);
    let q = write_tmp("adv-q.txt", QUERY);
    let v1 = write_tmp("adv-v1.txt", VIEW1);
    let v2 = write_tmp("adv-v2.txt", VIEW2);

    // Full budget: both views kept, the workload is answered, nothing to
    // evict.
    let full = gpv()
        .args([
            "advise",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let s = String::from_utf8_lossy(&full.stdout);
    assert!(s.contains("answering 1/1 workload queries"), "{s}");
    assert!(s.contains("evict: nothing"), "{s}");

    // Budget 1: one view kept, the query unanswered, the other view is an
    // eviction candidate with its resident bytes.
    let one = gpv()
        .args([
            "advise",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--budget",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        one.status.success(),
        "{}",
        String::from_utf8_lossy(&one.stderr)
    );
    let s = String::from_utf8_lossy(&one.stdout);
    assert!(s.contains("keep 1 of 2 views (budget 1)"), "{s}");
    assert!(s.contains("unanswered "), "{s}");
    assert!(s.contains("evict "), "{s}");
    assert!(s.contains("bytes resident"), "{s}");
}

/// `advise --budget 0` is a legal degenerate request: keep nothing, answer
/// nothing, and flag every resident view as an eviction candidate.
#[test]
fn advise_zero_budget_keeps_nothing() {
    let g = write_tmp("adv0-g.txt", GRAPH);
    let q = write_tmp("adv0-q.txt", QUERY);
    let v1 = write_tmp("adv0-v1.txt", VIEW1);
    let v2 = write_tmp("adv0-v2.txt", VIEW2);

    let out = gpv()
        .args([
            "advise",
            "--graph",
            g.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--budget",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(
        s.contains("keep 0 of 2 views (budget 0), answering 0/1 workload queries"),
        "{s}"
    );
    assert!(!s.contains("\nkeep "), "budget 0 must keep no views: {s}");
    assert!(s.contains("unanswered "), "{s}");
    // Both resident views are eviction candidates.
    assert_eq!(s.matches("evict ").count(), 2, "{s}");
}

/// `gpv fuzz` smoke: a short deterministic sweep passes and reports both
/// the per-sample matrix coverage and the aggregate differential totals.
#[test]
fn fuzz_smoke_passes_and_reports_coverage() {
    let out = gpv()
        .args(["fuzz", "--iterations", "10", "--seed", "7"])
        .env_remove("GPV_FUZZ_INJECT")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(
        s.contains("engine and service matched match_pattern on every sample"),
        "{s}"
    );
    assert!(s.contains("coverage: modes=["), "{s}");
    assert!(s.contains("checked: "), "{s}");
}

/// `fuzz --require-deltas` forces every sampled scenario to carry a
/// nonzero insert/delete stream, so the sweep exercises the incremental
/// maintenance pipeline on each iteration (the CI smoke runs this mode).
#[test]
fn fuzz_require_deltas_exercises_maintenance_on_every_scenario() {
    let out = gpv()
        .args([
            "fuzz",
            "--iterations",
            "6",
            "--seed",
            "7",
            "--require-deltas",
        ])
        .env_remove("GPV_FUZZ_INJECT")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(
        s.contains("engine and service matched match_pattern on every sample"),
        "{s}"
    );
    let checked = s
        .lines()
        .find(|l| l.starts_with("checked: "))
        .unwrap_or_else(|| panic!("no totals line in: {s}"));
    let deltas: usize = checked
        .split("; ")
        .find(|p| p.contains("edge deltas"))
        .and_then(|p| p.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable totals line: {checked}"));
    assert!(
        deltas > 0,
        "update-heavy sweep applied no deltas: {checked}"
    );
}

/// The update-heavy sweep must serve, and check against the oracle,
/// graph-reading answers that the answer-level test kept across a delta
/// touching their query's footprint (the same sweep CI greps): if the
/// test fell back to the footprint alone, this count would read 0.
#[test]
fn fuzz_serves_answers_kept_across_footprint_touching_deltas() {
    let out = gpv()
        .args([
            "fuzz",
            "--iterations",
            "200",
            "--seed",
            "11",
            "--require-deltas",
        ])
        .env_remove("GPV_FUZZ_INJECT")
        .output()
        .unwrap();
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{s}");
    let kept: u64 = s
        .lines()
        .find(|l| l.starts_with("checked: "))
        .and_then(|l| l.split(", ").last())
        .and_then(|p| p.strip_suffix(" after a footprint-touching delta"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no footprint-touching count in: {s}"));
    assert!(
        kept > 0,
        "no answer survived a footprint-touching delta: {s}"
    );
}

/// The acceptance loop for the harness itself: a deliberately injected
/// divergence (test-only oracle corruption via `GPV_FUZZ_INJECT`) is
/// caught, prints a one-line JSON scenario, and that exact line replayed
/// through `gpv fuzz --repro` reproduces the divergence — and passes clean
/// once the corruption is removed.
#[test]
fn fuzz_injected_divergence_reproduces_from_printed_json() {
    let out = gpv()
        .args(["fuzz", "--iterations", "2", "--seed", "7"])
        .env("GPV_FUZZ_INJECT", "1")
        .output()
        .unwrap();
    assert!(!out.status.success(), "injected corruption must be caught");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("DIVERGENCE: "), "{s}");
    let json = s
        .lines()
        .find_map(|l| l.strip_prefix("scenario: "))
        .unwrap_or_else(|| panic!("no scenario repro line in:\n{s}"))
        .to_string();

    // The printed JSON replays the divergence under the corrupted oracle...
    let bad = gpv()
        .args(["fuzz", "--repro", &json])
        .env("GPV_FUZZ_INJECT", "1")
        .output()
        .unwrap();
    assert!(
        !bad.status.success(),
        "repro must re-trigger the divergence"
    );
    assert!(
        String::from_utf8_lossy(&bad.stdout).contains("DIVERGENCE: "),
        "{}",
        String::from_utf8_lossy(&bad.stdout)
    );

    // ...and passes clean against the honest oracle.
    let good = gpv()
        .args(["fuzz", "--repro", &json])
        .env_remove("GPV_FUZZ_INJECT")
        .output()
        .unwrap();
    assert!(
        good.status.success(),
        "{}{}",
        String::from_utf8_lossy(&good.stdout),
        String::from_utf8_lossy(&good.stderr)
    );
    assert!(
        String::from_utf8_lossy(&good.stdout).contains("repro ok: "),
        "{}",
        String::from_utf8_lossy(&good.stdout)
    );
}

/// Boundary flag values and retired inputs are structured errors, not
/// silent clamps or panics: the retired executor, chunk-size and
/// calibration flags, and the retired `calibrate` command each print one
/// clean `gpv:` line on stderr and exit nonzero.
#[test]
fn zero_thread_and_chunk_flags_error_cleanly() {
    let g = write_tmp("zero-g.txt", GRAPH);
    let q = write_tmp("zero-q.txt", QUERY);
    let v1 = write_tmp("zero-v1.txt", VIEW1);
    let check = |args: &[&str], expected: &str| {
        let out = gpv().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expected), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(
            err.lines().count(),
            1,
            "{args:?}: one clean line, got {err}"
        );
    };
    let answer = [
        "answer",
        "--graph",
        g.to_str().unwrap(),
        "--pattern",
        q.to_str().unwrap(),
        "--view",
        v1.to_str().unwrap(),
    ];
    for (flag, expected) in [
        (&["--threads", "4"][..], "unknown flag `--threads`"),
        (&["--exec", "par"][..], "unknown flag `--exec`"),
        (&["--chunk-pairs", "8"][..], "unknown flag `--chunk-pairs`"),
        (&["--calibrated"][..], "unknown flag `--calibrated`"),
    ] {
        check(&[&answer[..], flag].concat(), expected);
    }
    let mut calibrate = answer;
    calibrate[0] = "calibrate";
    check(&calibrate, "unknown command `calibrate`");
}

/// A malformed `--repro` descriptor is a structured error: one clean
/// `gpv:` line, nonzero exit, no panic or backtrace.
#[test]
fn fuzz_repro_bad_descriptor_errors_cleanly() {
    for bad in ["not json at all", "{\"seed\": \"wrong-type\"}", "{", ""] {
        let out = gpv().args(["fuzz", "--repro", bad]).output().unwrap();
        assert!(!out.status.success(), "--repro {bad:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad scenario JSON"), "{bad:?}: {err}");
        assert!(!err.contains("panicked"), "{bad:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{bad:?}: one clean line, got {err}");
    }
}

/// `gpv lint` surfaces the advisory diagnostics: a provably-empty query
/// (no PRG -> PM edge in the fixture graph) and a subsumed duplicate
/// view. Warnings do not fail the exit status.
#[test]
fn lint_reports_findings_and_exits_zero() {
    let g = write_tmp("lint-g.txt", GRAPH);
    let q = write_tmp("lint-q.txt", "node a PRG\nnode b PM\nedge a b\n");
    let v1 = write_tmp("lint-v1.txt", VIEW1);
    let v2 = write_tmp("lint-v2.txt", VIEW1); // duplicate pattern: subsumed
    let out = gpv()
        .args([
            "lint",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "warnings must not fail the exit: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("GPV013"), "provably-empty warning missing: {s}");
    assert!(s.contains("GPV020"), "subsumption warning missing: {s}");
    assert!(s.contains("0 errors"), "summary line missing: {s}");
}

/// `gpv lint --json` emits one machine-readable JSON array with the
/// stable code, kebab-case name, severity, message and context per
/// finding — and nothing else on stdout.
#[test]
fn lint_json_emits_machine_readable_array() {
    let g = write_tmp("lintj-g.txt", GRAPH);
    let q = write_tmp("lintj-q.txt", "node a PRG\nnode b PM\nedge a b\n");
    let out = gpv()
        .args([
            "lint",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert_eq!(s.lines().count(), 1, "one JSON line, got {s}");
    assert!(s.starts_with("[{"), "{s}");
    for key in [
        "\"code\":\"GPV013\"",
        "\"name\":\"query-provably-empty\"",
        "\"severity\":\"warning\"",
        "\"message\":",
        "\"context\":",
    ] {
        assert!(s.contains(key), "missing {key}: {s}");
    }
}

/// `gpv check --store-dir`: a store persisted by `serve` passes with
/// zero findings; after a payload bit-flip the checksum mismatch is
/// reported under its stable code and the exit turns nonzero.
#[test]
fn check_command_passes_clean_store_and_flags_corruption() {
    let g = write_tmp("check-g.txt", GRAPH);
    let q = write_tmp("check-q.txt", QUERY);
    let v1 = write_tmp("check-v1.txt", VIEW1);
    let v2 = write_tmp("check-v2.txt", VIEW2);
    let dir = std::env::temp_dir().join(format!("gpv-cli-check-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let save = gpv()
        .args([
            "serve",
            "--graph",
            g.to_str().unwrap(),
            "--pattern",
            q.to_str().unwrap(),
            "--view",
            v1.to_str().unwrap(),
            "--view",
            v2.to_str().unwrap(),
            "--shards",
            "2",
            "--store-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );

    let clean = gpv()
        .args([
            "check",
            "--store-dir",
            dir.to_str().unwrap(),
            "--graph",
            g.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        clean.status.success(),
        "{}{}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(
        String::from_utf8_lossy(&clean.stdout).contains("0 errors"),
        "{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    // Flip one payload byte in the first nonempty shard.
    let shard = (0..2)
        .map(|i| dir.join(format!("shard-{i:04}.bin")))
        .find(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 40))
        .expect("a nonempty shard file");
    let mut bytes = std::fs::read(&shard).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&shard, bytes).unwrap();

    let bad = gpv()
        .args(["check", "--store-dir", dir.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(!bad.status.success(), "corruption must fail the exit");
    let s = String::from_utf8_lossy(&bad.stdout);
    assert!(s.contains("\"code\":\"GPV054\""), "{s}");
    assert!(s.contains("shard-checksum-mismatch"), "{s}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A store saved before shard format v2 (format_version 1 in `meta.json`)
/// must be refused cleanly: `gpv check` reports GPV053 and exits nonzero,
/// and `gpv serve --store-dir` fails with an error instead of panicking or
/// serving against a fingerprint of the old meaning.
#[test]
fn v1_store_dir_is_refused_with_gpv053() {
    let g = write_tmp("v1-g.txt", GRAPH);
    let q = write_tmp("v1-q.txt", QUERY);
    let v1 = write_tmp("v1-v1.txt", VIEW1);
    let dir = std::env::temp_dir().join(format!("gpv-cli-v1-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let serve = || {
        gpv()
            .args([
                "serve",
                "--graph",
                g.to_str().unwrap(),
                "--pattern",
                q.to_str().unwrap(),
                "--view",
                v1.to_str().unwrap(),
                "--store-dir",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let save = serve();
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );

    let meta = dir.join("meta.json");
    let json = std::fs::read_to_string(&meta).unwrap();
    let v2 = format!("\"format_version\":{}", graph_views::views::SHARD_VERSION);
    assert!(json.contains(&v2), "{json}");
    std::fs::write(&meta, json.replace(&v2, "\"format_version\":1")).unwrap();

    let check = gpv()
        .args(["check", "--store-dir", dir.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(!check.status.success(), "a v1 store must fail the check");
    let out = String::from_utf8_lossy(&check.stdout);
    assert!(out.contains("\"code\":\"GPV053\""), "{out}");

    let reserve = serve();
    assert!(!reserve.status.success(), "serve must refuse a v1 store");
    assert_ne!(
        reserve.status.code(),
        Some(101),
        "refusal must not be a panic"
    );
    let err = String::from_utf8_lossy(&reserve.stderr);
    assert!(err.contains("format version 1"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
