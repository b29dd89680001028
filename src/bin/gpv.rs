//! `gpv` — command-line front end for graph pattern matching using views.
//!
//! ```text
//! gpv stats    --graph G.txt
//! gpv match    --graph G.txt --pattern Q.txt [--bounded] [--dual]
//! gpv contain  --pattern Q.txt --view V1.txt --view V2.txt [--bounded]
//! gpv minimal  --pattern Q.txt --view V1.txt ... (also: minimum)
//! gpv answer   --graph G.txt --pattern Q.txt --view V1.txt ... [--bounded]
//!              [--select auto|all|minimal|minimum]
//! gpv plan     --graph G.txt --pattern Q.txt --view V1.txt ...  # EXPLAIN
//! gpv serve    --graph G.txt --view V1.txt ... --pattern Q1.txt [--pattern Q2.txt ...]
//!              [--shards N] [--clients N] [--repeat K] [--result-cache-mb M] [--explain]
//!              [--store-dir D] [--updates-per-round N]
//! gpv advise   --graph G.txt --view V1.txt ... --pattern Q1.txt [--pattern Q2.txt ...]
//!              [--budget N]
//! gpv minimize --pattern Q.txt
//! gpv lint     --pattern Q1.txt [--pattern Q2.txt ...] [--view V1.txt ...]
//!              [--graph G.txt] [--json]
//! gpv check    --store-dir D [--graph G.txt] [--json]
//! gpv fuzz     [--iterations N] [--seed S] [--repro '<json>'] [--require-deltas]
//! ```
//!
//! `answer` and `plan` go through the unified [`core::QueryEngine`]: the
//! engine analyzes containment, costs the candidate view selections against
//! the materialized extension sizes (`--select auto`, the default), and
//! runs the single-threaded `MatchJoin`. The EXPLAIN output shows the
//! worklist discipline (`execute: sequential(RankedBottomUp)`), the
//! per-edge merge sources (`View`/`Graph`), and the cost estimate in pairs
//! read and graph edges scanned.
//!
//! `serve` is the batch-serving front end over [`core::ViewService`]: it
//! materializes the views into a [`core::ViewStore`], then has
//! `--clients` threads each submit the query batch (the `--pattern`
//! files) `--repeat` times concurrently. Repeats are separate batches on
//! purpose: identical queries inside one batch deduplicate, identical
//! queries *across* batches hit the cross-batch result cache (budgeted by
//! `--result-cache-mb`, 0 disables), and only the remainder is planned
//! (plan cache) and executed. The command reports the answers once (pair
//! count, plan, an FNV-1a digest of the answer's contents, latency last)
//! plus the service stats (plan- and result-cache hit rates, shard
//! occupancy, queue depth, latency quantiles).
//!
//! `serve --store-dir D` persists the store as `--shards` flat columnar
//! shard files (a view goes to the file its id hashes to; see
//! `gpv_core::shard` for the byte layout). On the first run the
//! materialized store is saved to `D`; on later runs the shards are loaded
//! from `D` — after checking they were built from the same graph — and
//! serving skips materialization entirely.
//!
//! `serve --updates-per-round N` interleaves edge deltas with serving:
//! after every batch round, N deterministic edge updates (alternating
//! inserts of fresh edges and deletes of live ones, seeded by `--seed`)
//! are applied through [`core::ViewService::apply_delta`]. The delta
//! pipeline routes only the views whose label footprint overlaps the
//! delta through incremental maintenance and re-freezes just the ones
//! whose extension actually changed, so untouched views — and every
//! cached answer reading only them — survive each round verbatim.
//! Subsequent rounds serve against the post-delta graph, and the summary
//! reports how many deltas were applied and how many view extensions
//! were re-frozen. In this mode rounds are barriers: all clients finish
//! a round before the delta lands, so every answer within one round saw
//! one consistent store snapshot.
//!
//! `advise` recommends a view subset for a workload: it greedily selects
//! at most `--budget` views maximizing the number of fully-answered
//! `--pattern` queries ([`core::QueryEngine::advise_views`]), then ranks
//! the *unselected* resident views by arena bytes as eviction candidates
//! ([`core::ViewStore::eviction_advice`]).
//!
//! `lint` runs the static diagnostic passes (`GPV0xx` codes, catalogued
//! in `docs/DIAGNOSTICS.md`) over query patterns and a view set:
//! structural query lints (disconnected patterns, self-loops, duplicate
//! and redundant edges), provable-emptiness checks when `--graph` is
//! given, view subsumption, zero-coverage views against the `--pattern`
//! workload, and eviction advice for resident views no query reads.
//! `check` is the offline integrity checker for a `--store-dir`
//! persisted by `serve`: meta.json, per-shard magic / version / checksum
//! / CSR structure, cross-shard id uniqueness, and — when the bytes are
//! intact — a full snapshot re-validation (against the graph's
//! fingerprint and node ranges when `--graph` is given). Both print one
//! line per finding (or a machine-readable array under `--json`) and
//! exit nonzero only when an error-severity diagnostic fired.
//!
//! `fuzz` is the differential scenario harness (see `docs/TESTING.md`):
//! each iteration samples a `gpv_generator::Scenario` — graph emulator +
//! scale, query shapes, zipfian serving schedule, view coverage, store
//! mutations, and the full engine/service configuration (query mode,
//! cache budgets) — deterministically
//! from `--seed`, runs it through `QueryEngine` *and* `ViewService`, and
//! asserts bit-exact
//! agreement with naive `match_pattern` / `bmatch_pattern` on every
//! answer. A divergence prints the scenario's one-line JSON and the exact
//! `gpv fuzz --repro '<json>'` command that replays it. `--require-deltas`
//! forces every sampled scenario to be update-heavy (nonzero
//! `delta_batch_len` and `delete_ratio`, at least two rounds), so the
//! delta-maintenance pipeline is exercised on each iteration — CI runs a
//! smoke pass in this mode. Setting `GPV_FUZZ_INJECT=1` corrupts the
//! oracle on purpose (test-only) to prove the harness catches and
//! reproduces divergences.
//!
//! Graphs use the `gpv-graph` text format (`node <id> <labels> [k=v ...]` /
//! `edge <src> <dst>`); patterns use the `gpv-pattern` format
//! (`node <name> <condition>` / `edge <src> <dst> [bound]`).

use gpv_core as core;
use gpv_graph::io::parse_graph;
use gpv_pattern::{parse_bounded_pattern, BoundedPattern};
use std::io::Write;
use std::process::ExitCode;

/// The error a command returns when its reader closed stdout (`gpv serve
/// ... | head`): [`main`] ends quietly on it, with status 0.
const CLOSED_STDOUT: &str = "stdout closed";

/// A failed write to the command's output, as a command error.
fn write_failed(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        CLOSED_STDOUT.into()
    } else {
        format!("writing output: {e}")
    }
}

/// `writeln!` to a command's output; a failed write returns from the
/// enclosing function ([`write_failed`]).
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(write_failed)?
    };
}

struct Args {
    graph: Option<String>,
    patterns: Vec<String>,
    views: Vec<String>,
    bounded: bool,
    dual: bool,
    explain: bool,
    select: String,
    shards: usize,
    clients: usize,
    repeat: usize,
    result_cache_mb: usize,
    store_dir: Option<String>,
    budget: Option<usize>,
    iterations: usize,
    seed: u64,
    repro: Option<String>,
    updates_per_round: usize,
    require_deltas: bool,
    json: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gpv <stats|match|contain|minimal|minimum|answer|plan|serve|advise|minimize|lint|check|fuzz> \
         [--graph F] [--pattern F]... [--view F]... [--bounded] [--dual] \
         [--select auto|all|minimal|minimum] \
         [--shards N] [--clients N] [--repeat K] [--result-cache-mb M] [--explain] \
         [--store-dir D] [--budget N] [--iterations N] [--seed S] [--repro JSON] \
         [--updates-per-round N] [--require-deltas] [--json]\n\
         --shards N sets how many shard files `serve --store-dir` writes (default 8)"
    );
    ExitCode::from(2)
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut a = Args {
        graph: None,
        patterns: Vec::new(),
        views: Vec::new(),
        bounded: false,
        dual: false,
        explain: false,
        select: "auto".into(),
        shards: 8,
        clients: 1,
        repeat: 1,
        result_cache_mb: 64,
        store_dir: None,
        budget: None,
        iterations: 25,
        seed: 42,
        repro: None,
        updates_per_round: 0,
        require_deltas: false,
        json: false,
    };
    let mut i = 0;
    let uint = |flag: &str, v: Option<&String>| -> Result<usize, String> {
        v.ok_or(format!("{flag} needs a count"))?
            .parse()
            .map_err(|_| format!("{flag} needs an integer"))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--graph" => {
                a.graph = Some(rest.get(i + 1).ok_or("--graph needs a file")?.clone());
                i += 2;
            }
            "--pattern" => {
                a.patterns
                    .push(rest.get(i + 1).ok_or("--pattern needs a file")?.clone());
                i += 2;
            }
            "--view" => {
                a.views
                    .push(rest.get(i + 1).ok_or("--view needs a file")?.clone());
                i += 2;
            }
            "--select" => {
                a.select = rest.get(i + 1).ok_or("--select needs a mode")?.clone();
                i += 2;
            }
            "--shards" => {
                a.shards = uint("--shards", rest.get(i + 1))?.max(1);
                i += 2;
            }
            "--clients" => {
                a.clients = uint("--clients", rest.get(i + 1))?.max(1);
                i += 2;
            }
            "--repeat" => {
                a.repeat = uint("--repeat", rest.get(i + 1))?.max(1);
                i += 2;
            }
            "--result-cache-mb" => {
                a.result_cache_mb = uint("--result-cache-mb", rest.get(i + 1))?;
                i += 2;
            }
            "--store-dir" => {
                a.store_dir = Some(
                    rest.get(i + 1)
                        .ok_or("--store-dir needs a directory")?
                        .clone(),
                );
                i += 2;
            }
            "--budget" => {
                a.budget = Some(uint("--budget", rest.get(i + 1))?);
                i += 2;
            }
            "--iterations" => {
                a.iterations = uint("--iterations", rest.get(i + 1))?.max(1);
                i += 2;
            }
            "--seed" => {
                a.seed = rest
                    .get(i + 1)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
                i += 2;
            }
            "--repro" => {
                a.repro = Some(rest.get(i + 1).ok_or("--repro needs a JSON line")?.clone());
                i += 2;
            }
            "--updates-per-round" => {
                a.updates_per_round = uint("--updates-per-round", rest.get(i + 1))?;
                i += 2;
            }
            "--require-deltas" => {
                a.require_deltas = true;
                i += 1;
            }
            "--json" => {
                a.json = true;
                i += 1;
            }
            "--bounded" => {
                a.bounded = true;
                i += 1;
            }
            "--dual" => {
                a.dual = true;
                i += 1;
            }
            "--explain" => {
                a.explain = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

fn load_graph(a: &Args) -> Result<gpv_graph::DataGraph, String> {
    let path = a.graph.as_ref().ok_or("missing --graph")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_graph(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_pattern(path: &str) -> Result<BoundedPattern, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_bounded_pattern(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_query(a: &Args) -> Result<BoundedPattern, String> {
    if a.patterns.len() > 1 {
        return Err(format!(
            "this command takes exactly one --pattern, got {} (only `serve` accepts several)",
            a.patterns.len()
        ));
    }
    load_pattern(a.patterns.first().ok_or("missing --pattern")?)
}

fn load_views(a: &Args) -> Result<Vec<(String, BoundedPattern)>, String> {
    if a.views.is_empty() {
        return Err("missing --view".into());
    }
    a.views
        .iter()
        .map(|p| load_pattern(p).map(|b| (p.clone(), b)))
        .collect()
}

fn require_plain(q: &BoundedPattern, what: &str) -> Result<gpv_pattern::Pattern, String> {
    if !q.is_plain() {
        return Err(format!("{what} has non-unit bounds; pass --bounded"));
    }
    Ok(q.pattern().clone())
}

fn run(out: &mut dyn Write) -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err("no command".into());
    };
    let a = parse_args(&argv[1..])?;

    match cmd.as_str() {
        "stats" => {
            let g = load_graph(&a)?;
            let s = gpv_graph::stats::stats(&g);
            outln!(
                out,
                "nodes={} edges={} labels={} avg_out_degree={:.3} max_out={} max_in={} alpha={:.3}",
                s.nodes,
                s.edges,
                s.labels,
                s.avg_out_degree,
                s.max_out_degree,
                s.max_in_degree,
                s.alpha
            );
        }
        "match" => {
            let g = load_graph(&a)?;
            let qb = load_query(&a)?;
            if a.bounded {
                let r = gpv_matching::bounded::bmatch_pattern(&qb, &g);
                print_bounded_result(qb.pattern(), &r, out)?;
            } else if a.dual {
                let q = require_plain(&qb, "pattern")?;
                let r = core::GraphSource::new(&g)
                    .simulate(&q, core::Simulation::Dual)
                    .0;
                print_result(&q, &r, out)?;
            } else {
                let q = require_plain(&qb, "pattern")?;
                let r = core::GraphSource::new(&g)
                    .simulate(&q, core::Simulation::Plain)
                    .0;
                print_result(&q, &r, out)?;
            }
        }
        "contain" | "minimal" | "minimum" => {
            let qb = load_query(&a)?;
            let views = load_views(&a)?;
            if a.bounded {
                let vs = core::BoundedViewSet::new(
                    views
                        .iter()
                        .map(|(n, p)| core::BoundedViewDef::new(n.clone(), p.clone()))
                        .collect(),
                );
                let sel: Option<Vec<usize>> = match cmd.as_str() {
                    "contain" => core::bcontain(&qb, &vs).map(|p| p.used_views),
                    "minimal" => core::bminimal(&qb, &vs).map(|s| s.views),
                    _ => core::bminimum(&qb, &vs).map(|s| s.views),
                };
                report_selection(sel, &views, out)?;
            } else {
                let q = require_plain(&qb, "pattern")?;
                let vs = plain_view_set(&views)?;
                let sel: Option<Vec<usize>> = match cmd.as_str() {
                    "contain" => core::contain(&q, &vs).map(|p| p.used_views),
                    "minimal" => core::minimal(&q, &vs).map(|s| s.views),
                    _ => core::minimum(&q, &vs).map(|s| s.views),
                };
                report_selection(sel, &views, out)?;
            }
        }
        "answer" => {
            let g = load_graph(&a)?;
            let qb = load_query(&a)?;
            let views = load_views(&a)?;
            if a.bounded {
                let vs = core::BoundedViewSet::new(
                    views
                        .iter()
                        .map(|(n, p)| core::BoundedViewDef::new(n.clone(), p.clone()))
                        .collect(),
                );
                let engine = core::QueryEngine::materialize(core::ViewSet::default(), &g)
                    .with_bounded_views(vs, &g)
                    .with_config(engine_config(&a)?);
                let r = engine.answer_bounded(&qb).map_err(|e| e.to_string())?;
                print_bounded_result(qb.pattern(), &r, out)?;
            } else {
                let q = require_plain(&qb, "pattern")?;
                let vs = plain_view_set(&views)?;
                let engine = core::QueryEngine::materialize(vs, &g).with_config(engine_config(&a)?);
                let r = engine.answer_from_views(&q).map_err(|e| match e {
                    core::EngineError::NotContained => {
                        "query is NOT contained in the views".to_string()
                    }
                    other => other.to_string(),
                })?;
                print_result(&q, &r, out)?;
            }
        }
        "plan" => {
            let g = load_graph(&a)?;
            let qb = load_query(&a)?;
            let q = require_plain(&qb, "pattern")?;
            let views = load_views(&a)?;
            let vs = plain_view_set(&views)?;
            let engine = core::QueryEngine::materialize(vs, &g).with_config(engine_config(&a)?);
            outln!(out, "{}", engine.explain(&q));
        }
        "serve" => serve(&a, out)?,
        "advise" => advise(&a, out)?,
        "lint" => lint(&a, out)?,
        "check" => check(&a, out)?,
        "fuzz" => fuzz(&a, out)?,
        "minimize" => {
            let qb = load_query(&a)?;
            let q = require_plain(&qb, "pattern")?;
            let m = core::minimize(&q);
            outln!(
                out,
                "# minimized {} -> {} nodes, {} -> {} edges",
                q.node_count(),
                m.pattern.node_count(),
                q.edge_count(),
                m.pattern.edge_count()
            );
            write!(out, "{}", gpv_pattern::write_pattern(&m.pattern)).map_err(write_failed)?;
        }
        _ => return Err(format!("unknown command `{cmd}`")),
    }
    Ok(())
}

/// The `serve` command: materialize views into a [`core::ViewStore`], stand
/// up a [`core::ViewService`], fire the batch from `--clients` concurrent client
/// threads, then print the answers (once) and the service-level stats.
fn serve(a: &Args, out: &mut dyn Write) -> Result<(), String> {
    use std::sync::Arc;
    let g = load_graph(a)?;
    let views = load_views(a)?;
    let vs = plain_view_set(&views)?;
    if a.patterns.is_empty() {
        return Err("missing --pattern".into());
    }
    let mut batch: Vec<gpv_pattern::Pattern> = Vec::new();
    for p in &a.patterns {
        batch.push(require_plain(&load_pattern(p)?, "pattern")?);
    }

    // `--store-dir`: load the persisted columnar shards when they exist
    // (skipping materialization), otherwise materialize and persist them
    // for the next run. Either way the loaded store must belong to the
    // graph being served.
    let store = match &a.store_dir {
        Some(dir) if std::path::Path::new(dir).join("meta.json").exists() => {
            let loaded = core::ViewStore::load_from_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
            if loaded.graph_fingerprint() != core::storage::graph_fingerprint(&g) {
                return Err(format!(
                    "{dir}: store was built from a different graph (fingerprint mismatch)"
                ));
            }
            outln!(out, "store-dir: loaded {} views from {dir}", loaded.len());
            Arc::new(loaded)
        }
        other => {
            let store = Arc::new(core::ViewStore::materialize(vs, &g, a.shards));
            if let Some(dir) = other {
                store.save_to_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
                outln!(out, "store-dir: saved {} views to {dir}", store.len());
            }
            store
        }
    };
    let service = core::ViewService::with_config(
        store,
        core::ServiceConfig {
            engine: engine_config(a)?,
            result_cache_bytes: a.result_cache_mb << 20,
            ..core::ServiceConfig::default()
        },
    );

    // Every client thread submits the batch `--repeat` times concurrently.
    // Repeats are *separate* batches: the first exercises dedup and the
    // plan cache, later ones the cross-batch result cache. Answers are
    // identical across clients and repeats (asserted by tests/service.rs),
    // so only the first client's answers are printed.
    //
    // With `--updates-per-round` the repeats become barrier-separated
    // rounds instead: all clients serve the batch against the current
    // graph, then one seeded edge delta lands via `apply_delta` before
    // the next round, so every answer in a round saw one consistent
    // store snapshot.
    let t0 = std::time::Instant::now();
    let mut answers = Vec::new();
    let mut maintenance = None;
    if a.updates_per_round > 0 {
        let mut current = g.clone();
        let mut live: Vec<(gpv_graph::NodeId, gpv_graph::NodeId)> = current.edges().collect();
        let mut rng = a.seed ^ 0x6de1_7a5e_ed00_feed;
        let (mut applied, mut refrozen, mut inserted, mut deleted) =
            (0usize, 0usize, 0usize, 0usize);
        answers = (0..a.clients).map(|_| Vec::new()).collect();
        for _round in 0..a.repeat {
            std::thread::scope(|s| {
                let (svc, batch, cur) = (&service, &batch, &current);
                let handles: Vec<_> = (0..a.clients)
                    .map(|_| s.spawn(move || svc.serve_batch(batch, Some(cur))))
                    .collect();
                for (ci, h) in handles.into_iter().enumerate() {
                    answers[ci].extend(h.join().expect("client thread panicked"));
                }
            });
            // Alternate inserting a fresh edge and deleting a live one so
            // the delta stream keeps the edge count roughly stable.
            let n = current.node_count() as u32;
            let mut ins = Vec::new();
            let mut del = Vec::new();
            for k in 0..a.updates_per_round {
                if k % 2 == 1 && !live.is_empty() {
                    let idx = (splitmix64(&mut rng) as usize) % live.len();
                    del.push(live.swap_remove(idx));
                } else if n > 0 {
                    let e = (
                        gpv_graph::NodeId((splitmix64(&mut rng) % n as u64) as u32),
                        gpv_graph::NodeId((splitmix64(&mut rng) % n as u64) as u32),
                    );
                    if !live.contains(&e) {
                        live.push(e);
                        ins.push(e);
                    }
                }
            }
            let delta = core::EdgeDelta::new(ins, del);
            if !delta.is_empty() {
                inserted += delta.inserts.len();
                deleted += delta.deletes.len();
                let report = service
                    .apply_delta(&delta, &current)
                    .map_err(|e| e.to_string())?;
                current = report.graph;
                applied += 1;
                refrozen += report.changed.len();
            }
        }
        maintenance = Some(format!(
            "maintenance: {applied} deltas applied ({inserted} inserts / {deleted} deletes), \
             {refrozen} view extensions re-frozen"
        ));
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..a.clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut served = Vec::new();
                        for _ in 0..a.repeat {
                            served.extend(service.serve_batch(&batch, Some(&g)));
                        }
                        served
                    })
                })
                .collect();
            for h in handles {
                answers.push(h.join().expect("client thread panicked"));
            }
        });
    }
    let wall = t0.elapsed().as_secs_f64();

    for (i, r) in answers[0].iter().enumerate() {
        match r {
            Ok(ans) => outln!(
                out,
                "query {i}: {} pairs ({}, {}digest {:016x}, {} µs)",
                ans.result.size(),
                ans.disposition(),
                if ans.plan.needs_graph() {
                    "graph fallback, "
                } else {
                    "views only, "
                },
                core::CompactView::freeze(&ans.result).digest(),
                ans.latency_micros
            ),
            Err(e) => outln!(out, "query {i}: error: {e}"),
        }
        if a.explain {
            if let Ok(ans) = r {
                for line in ans.plan.to_string().lines() {
                    outln!(out, "  {line}");
                }
            }
        }
    }

    let stats = service.stats();
    let served: usize = answers.iter().map(Vec::len).sum();
    outln!(out, "---");
    outln!(
        out,
        "served {served} queries in {wall:.3}s ({:.0} q/s) from {} clients x {} batches x {} queries",
        served as f64 / wall.max(1e-9),
        a.clients,
        a.repeat,
        batch.len()
    );
    outln!(
        out,
        "plan cache: {} hits / {} misses ({:.0}% hit rate), {} plans cached, {} batch-deduped",
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.plan_cache_hit_rate * 100.0,
        stats.plan_cache_size,
        stats.dedup_saved
    );
    outln!(
        out,
        "result cache: {} hits / {} misses ({:.0}% hit rate), {} answers / {} KiB resident, {} evicted",
        stats.result_cache_hits,
        stats.result_cache_misses,
        stats.result_cache_hit_rate * 100.0,
        stats.result_cache_size,
        stats.result_cache_bytes / 1024,
        stats.result_cache_evictions
    );
    outln!(
        out,
        "kept across deltas: {} untouched (footprint missed), {} unchanged (answer-level test)",
        stats.result_kept_untouched,
        stats.result_kept_unchanged
    );
    outln!(
        out,
        "latency: p50 {}, p99 {}; max queue depth {}",
        stats.latency.quantile_label(0.5),
        stats.latency.quantile_label(0.99),
        stats.max_in_flight
    );
    outln!(
        out,
        "executed: {} queries planned+run",
        stats.executed_queries
    );
    let occupied = stats.shard_occupancy.iter().filter(|o| o.views > 0).count();
    outln!(
        out,
        "store: {} views over {} shards ({} occupied): {}",
        stats.shard_occupancy.iter().map(|o| o.views).sum::<usize>(),
        stats.shard_occupancy.len(),
        occupied,
        stats
            .shard_occupancy
            .iter()
            .map(|o| format!("{}v/{}p", o.views, o.pairs))
            .collect::<Vec<_>>()
            .join(" ")
    );
    outln!(
        out,
        "maintainers: {:.1} KiB resident",
        stats.maintainer_bytes as f64 / 1024.0
    );
    if let Some(m) = maintenance {
        outln!(out, "{m}");
    }
    Ok(())
}

/// Tiny deterministic PRNG (splitmix64) for the `--updates-per-round`
/// delta stream — keeps the binary free of a direct `rand` dependency and
/// the stream reproducible from `--seed`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `advise` command: greedy view selection for a workload plus
/// eviction candidates for whatever the selection leaves unused.
fn advise(a: &Args, out: &mut dyn Write) -> Result<(), String> {
    let g = load_graph(a)?;
    let views = load_views(a)?;
    let vs = plain_view_set(&views)?;
    if a.patterns.is_empty() {
        return Err("missing --pattern".into());
    }
    let mut workload: Vec<gpv_pattern::Pattern> = Vec::new();
    for p in &a.patterns {
        workload.push(require_plain(&load_pattern(p)?, "pattern")?);
    }

    let budget = a.budget.unwrap_or(views.len());
    let store = core::ViewStore::materialize(vs.clone(), &g, a.shards);
    let engine = core::QueryEngine::materialize(vs, &g).with_config(engine_config(a)?);
    let sel = engine.advise_views(&workload, budget, None);

    let answered = sel.answered.iter().filter(|&&x| x).count();
    outln!(
        out,
        "advise: keep {} of {} views (budget {budget}), answering {}/{} workload queries",
        sel.views.len(),
        views.len(),
        answered,
        workload.len()
    );
    for &i in &sel.views {
        outln!(out, "keep {}", views[i].0);
    }
    for (qi, ok) in sel.answered.iter().enumerate() {
        if !ok {
            outln!(out, "unanswered {}", a.patterns[qi]);
        }
    }

    // `ViewStore::materialize` assigns ids in view order, so the selected
    // indices are the ids the store must retain.
    let needed: Vec<u64> = sel.views.iter().map(|&i| i as u64).collect();
    let advice = store.eviction_advice(&needed);
    if advice.is_empty() {
        outln!(out, "evict: nothing (all resident views are needed)");
    } else {
        for e in &advice {
            outln!(
                out,
                "evict {} (id {}, {} pairs, {} bytes resident)",
                e.name,
                e.id,
                e.pairs,
                e.resident_bytes
            );
        }
    }
    Ok(())
}

/// Prints a diagnostic report — one human line per finding plus a count
/// summary, or a machine-readable JSON array under `--json` — and turns
/// error-severity findings into a nonzero exit status.
fn emit_diagnostics(
    diags: &[core::Diagnostic],
    json: bool,
    out: &mut dyn Write,
) -> Result<(), String> {
    if json {
        outln!(
            out,
            "{}",
            serde_json::to_string(diags).map_err(|e| e.to_string())?
        );
    } else {
        for d in diags {
            outln!(out, "{d}");
        }
        let count = |s: core::Severity| diags.iter().filter(|d| d.severity == s).count();
        outln!(
            out,
            "{} findings: {} errors, {} warnings, {} info",
            diags.len(),
            count(core::Severity::Error),
            count(core::Severity::Warning),
            count(core::Severity::Info)
        );
    }
    if core::has_errors(diags) {
        let n = diags
            .iter()
            .filter(|d| d.severity == core::Severity::Error)
            .count();
        return Err(format!("{n} error-severity finding(s)"));
    }
    Ok(())
}

/// The `lint` command: the advisory static passes ([`core::lint_query`] /
/// [`core::lint_views`]) over `--pattern` queries and `--view` view sets.
/// With `--graph` the query lints also prove emptiness against the
/// graph's label alphabet and edge label pairs, and the view lints gain
/// eviction advice from a materialized [`core::ViewStore`]. Exit status
/// is nonzero only for error-severity findings — plain lints are
/// warnings and info.
fn lint(a: &Args, out: &mut dyn Write) -> Result<(), String> {
    if a.patterns.is_empty() && a.views.is_empty() {
        return Err("lint needs at least one --pattern or --view".into());
    }
    let g = a.graph.as_ref().map(|_| load_graph(a)).transpose()?;
    let mut queries: Vec<(String, gpv_pattern::Pattern)> = Vec::new();
    for p in &a.patterns {
        queries.push((p.clone(), require_plain(&load_pattern(p)?, "pattern")?));
    }

    let mut diags: Vec<core::Diagnostic> = Vec::new();
    for (path, q) in &queries {
        for mut d in core::lint_query(q, g.as_ref()) {
            d.context = format!("{path}: {}", d.context);
            diags.push(d);
        }
    }

    if !a.views.is_empty() {
        let views = load_views(a)?;
        let vs = plain_view_set(&views)?;
        let workload: Vec<gpv_pattern::Pattern> = queries.into_iter().map(|(_, q)| q).collect();
        // Eviction advice needs resident extensions, which need the graph;
        // without one the subsumption and coverage lints still run.
        let advice = match &g {
            Some(g) => {
                let store = core::ViewStore::materialize(vs.clone(), g, a.shards);
                let needed: Vec<u64> = vs
                    .iter()
                    .filter(|(_, v)| {
                        workload
                            .iter()
                            .any(|q| !core::view_match(&v.pattern, q).is_empty())
                    })
                    .map(|(i, _)| i as u64)
                    .collect();
                store.eviction_advice(&needed)
            }
            None => Vec::new(),
        };
        diags.extend(core::lint_views(&vs, &workload, &advice));
    }
    emit_diagnostics(&diags, a.json, out)
}

/// The `check` command: the offline integrity checker for a `--store-dir`
/// persisted by `serve`. [`core::check_store_dir`] validates the bytes
/// (meta.json, shard magic / version / checksum, CSR offsets, sorted
/// sets, intern table, cross-shard id uniqueness); when they are intact
/// the store is loaded and its published snapshot re-validated through
/// [`core::check_snapshot`] — against the graph's fingerprint, node
/// ranges, and label footprints when `--graph` is given.
fn check(a: &Args, out: &mut dyn Write) -> Result<(), String> {
    let dir = a.store_dir.as_ref().ok_or("check needs --store-dir")?;
    let g = a.graph.as_ref().map(|_| load_graph(a)).transpose()?;
    let mut diags = core::check_store_dir(dir);
    if !core::has_errors(&diags) {
        match core::ViewStore::load_from_dir(dir) {
            Ok(store) => diags.extend(core::check_snapshot(&store.snapshot(), g.as_ref())),
            Err(e) => diags.push(core::Diagnostic::new(
                core::classify_shard_error(&e),
                core::Severity::Error,
                format!("store failed to load after passing byte-level checks: {e}"),
                dir.clone(),
            )),
        }
    }
    emit_diagnostics(&diags, a.json, out)
}

/// The `fuzz` command: the differential scenario harness. Samples
/// deterministic scenarios, runs each through the engine and the service
/// under the scenario's configuration, and asserts every answer equals the
/// naive-oracle's. Any divergence prints the one-line JSON repro.
fn fuzz(a: &Args, out: &mut dyn Write) -> Result<(), String> {
    use gpv_core::differential::{BoundedOracle, DifferentialReport, PlainOracle};
    use gpv_generator::{check_scenario_with, Scenario};
    use std::collections::BTreeSet;

    // Test-only hook (exercised by tests/cli.rs and documented in
    // docs/TESTING.md): corrupt the oracle so every scenario diverges,
    // proving divergences are caught and reproduce from the printed JSON.
    let inject = std::env::var("GPV_FUZZ_INJECT").is_ok_and(|v| !v.is_empty() && v != "0");
    let oracle: PlainOracle = if inject {
        Box::new(|q, g| {
            let mut r = gpv_matching::simulation::match_pattern(q, g);
            // Drop one pair, or fabricate one if every set is empty, so
            // the corruption is visible on every query.
            if !r.edge_matches.iter_mut().any(|s| s.pop().is_some()) {
                if let Some(s) = r.edge_matches.first_mut() {
                    s.push((gpv_graph::NodeId(0), gpv_graph::NodeId(0)));
                }
            }
            r
        })
    } else {
        Box::new(gpv_matching::simulation::match_pattern)
    };
    let boracle: BoundedOracle = Box::new(gpv_matching::bounded::bmatch_pattern);
    if inject {
        outln!(
            out,
            "warning: GPV_FUZZ_INJECT set -- oracle deliberately corrupted (test-only)"
        );
    }

    let run_one = |sc: &Scenario, out: &mut dyn Write| -> Result<DifferentialReport, String> {
        match check_scenario_with(sc, &oracle, &boracle) {
            Ok(r) => Ok(r),
            Err(d) => {
                outln!(out, "DIVERGENCE: {d}");
                outln!(out, "scenario: {}", sc.to_json_line());
                outln!(out, "repro: {}", sc.repro_command());
                Err("divergence found (repro line above)".into())
            }
        }
    };

    if let Some(json) = &a.repro {
        let sc = Scenario::from_json_line(json)?;
        let r = run_one(&sc, out)?;
        outln!(
            out,
            "repro ok: {} queries, {} answers over {} rounds, {} store mutations, {} edge deltas, {} bounded -- all matched the oracle",
            r.queries, r.served, r.rounds, r.mutations, r.edge_deltas, r.bounded_queries
        );
        return Ok(());
    }

    let mut totals = DifferentialReport::default();
    let mut modes: BTreeSet<String> = BTreeSet::new();
    let mut caches: BTreeSet<usize> = BTreeSet::new();
    for i in 0..a.iterations as u64 {
        let mut sc = Scenario::sample(a.seed, i);
        if a.require_deltas {
            // Update-heavy mode (CI smoke): force a nonzero delta stream
            // with real deletes, and enough rounds that post-delta serving
            // actually happens.
            sc.delta_batch_len = sc.delta_batch_len.max(2);
            if sc.delete_ratio == 0.0 {
                sc.delete_ratio = 0.5;
            }
            sc.rounds = sc.rounds.max(2);
        }
        modes.insert(format!("{:?}", sc.mode));
        caches.insert(sc.result_cache_bytes);
        let r = run_one(&sc, out)?;
        totals.absorb(&r);
        outln!(
            out,
            "fuzz {i:>3}: mode={:?} cache={}B -- ok ({} answers, plans v/h/d {}/{}/{}, {} deltas)",
            sc.mode,
            sc.result_cache_bytes,
            r.served,
            r.plans_views_only,
            r.plans_hybrid,
            r.plans_direct,
            r.edge_deltas
        );
    }
    outln!(out, "---");
    outln!(
        out,
        "fuzz: {} scenarios from seed {} -- engine and service matched match_pattern on every sample",
        a.iterations, a.seed
    );
    outln!(
        out,
        "coverage: modes=[{}] caches={:?}",
        modes.into_iter().collect::<Vec<_>>().join(","),
        caches.iter().collect::<Vec<_>>()
    );
    outln!(
        out,
        "checked: {} distinct queries, {} served answers, {} rounds, {} store mutations, {} bounded queries; plans views-only/hybrid/direct = {}/{}/{}; cache hits plan/result = {}/{}; {} edge deltas maintained {} views; {} graph-plan cache hits after a delta, {} after a footprint-touching delta",
        totals.queries,
        totals.served,
        totals.rounds,
        totals.mutations,
        totals.bounded_queries,
        totals.plans_views_only,
        totals.plans_hybrid,
        totals.plans_direct,
        totals.plan_cache_hits,
        totals.result_cache_hits,
        totals.edge_deltas,
        totals.views_maintained,
        totals.graph_hits_after_delta,
        totals.graph_hits_after_touching_delta
    );
    Ok(())
}

fn engine_config(a: &Args) -> Result<core::EngineConfig, String> {
    let force_selection = match a.select.as_str() {
        "auto" => None,
        "all" => Some(core::SelectionMode::All),
        "minimal" => Some(core::SelectionMode::Minimal),
        "minimum" => Some(core::SelectionMode::Minimum),
        other => return Err(format!("unknown --select mode `{other}`")),
    };
    Ok(core::EngineConfig { force_selection })
}

fn plain_view_set(views: &[(String, BoundedPattern)]) -> Result<core::ViewSet, String> {
    let mut out = Vec::new();
    for (n, p) in views {
        if !p.is_plain() {
            return Err(format!("view {n} has non-unit bounds; pass --bounded"));
        }
        out.push(core::ViewDef::new(n.clone(), p.pattern().clone()));
    }
    Ok(core::ViewSet::new(out))
}

fn report_selection(
    sel: Option<Vec<usize>>,
    views: &[(String, BoundedPattern)],
    out: &mut dyn Write,
) -> Result<(), String> {
    match sel {
        Some(ids) => {
            outln!(out, "contained=true");
            for i in ids {
                outln!(out, "view {}", views[i].0);
            }
            Ok(())
        }
        None => {
            outln!(out, "contained=false");
            Err("query is NOT contained in the views".into())
        }
    }
}

fn print_result(
    q: &gpv_pattern::Pattern,
    r: &gpv_matching::result::MatchResult,
    out: &mut dyn Write,
) -> Result<(), String> {
    if r.is_empty() {
        outln!(out, "result=empty");
        return Ok(());
    }
    outln!(out, "result={} pairs", r.size());
    for (ei, &(u, v)) in q.edges().iter().enumerate() {
        let pairs: Vec<String> = r.edge_matches[ei]
            .iter()
            .map(|&(a, b)| format!("({},{})", a.0, b.0))
            .collect();
        outln!(out, "S({u}->{v}) = {}", pairs.join(" "));
    }
    Ok(())
}

fn print_bounded_result(
    q: &gpv_pattern::Pattern,
    r: &gpv_matching::result::BoundedMatchResult,
    out: &mut dyn Write,
) -> Result<(), String> {
    if r.is_empty() {
        outln!(out, "result=empty");
        return Ok(());
    }
    outln!(out, "result={} pairs", r.size());
    for (ei, &(u, v)) in q.edges().iter().enumerate() {
        let pairs: Vec<String> = r.edge_matches[ei]
            .iter()
            .map(|&(a, b, d)| format!("({},{},d{})", a.0, b.0, d))
            .collect();
        outln!(out, "S({u}->{v}) = {}", pairs.join(" "));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut out = std::io::stdout().lock();
    match run(&mut out).and_then(|()| out.flush().map_err(write_failed)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e == CLOSED_STDOUT => ExitCode::SUCCESS,
        Err(e) => {
            if e == "no command" {
                return usage();
            }
            eprintln!("gpv: {e}");
            ExitCode::FAILURE
        }
    }
}
