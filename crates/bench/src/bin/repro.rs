//! `repro` — regenerates the paper's evaluation figures and worked examples.
//!
//! ```text
//! repro all                 # every figure at the default scale
//! repro fig8a fig8g         # selected figures
//! repro engine              # QueryEngine planner/MatchJoin bench
//! repro examples            # the paper's worked Examples 1-9
//! repro summary             # headline claims (speedups, ratios)
//! repro all --scale=0.05 --seed=42 --json=out.json --md=EXPERIMENTS.data.md
//! ```
//!
//! Whenever the `engine` experiment runs (directly or via `all`), its
//! result is also written to `BENCH_engine.json`, so the engine's
//! performance trajectory is recorded per machine across revisions.
//! Serving and delta maintenance at scale are measured by `perfbench/`.

use gpv_bench::experiments::{run_all, run_one, ExperimentResult, Scale};
use gpv_bench::report::{render_markdown, render_table, to_json};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <all|examples|summary|engine|fig8a..fig8l>... [--scale=F] [--seed=N] [--json=PATH] [--md=PATH]");
        std::process::exit(2);
    }
    let mut scale = Scale::default_scale();
    let mut seed = 42u64;
    let mut json_path: Option<String> = None;
    let mut md_path: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    for a in &args {
        if let Some(v) = a.strip_prefix("--scale=") {
            scale = Scale(v.parse().expect("--scale=<f64>"));
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=<u64>");
        } else if let Some(v) = a.strip_prefix("--json=") {
            json_path = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--md=") {
            md_path = Some(v.to_string());
        } else {
            targets.push(a.clone());
        }
    }

    let mut results: Vec<ExperimentResult> = Vec::new();
    for t in &targets {
        match t.as_str() {
            "all" => {
                eprintln!("# running all figures at scale {} (seed {seed})", scale.0);
                for r in run_all(scale, seed) {
                    println!("{}", render_table(&r));
                    results.push(r);
                }
            }
            "examples" => examples::run(),
            "summary" => {
                if results.is_empty() {
                    eprintln!("# summary: running all figures first");
                    results = run_all(scale, seed);
                }
                print_summary(&results);
            }
            id => match run_one(id, scale, seed) {
                Some(r) => {
                    println!("{}", render_table(&r));
                    results.push(r);
                }
                None => eprintln!("unknown experiment `{id}`"),
            },
        }
    }

    if let Some(result) = results.iter().find(|r| r.id == "engine") {
        let path = "BENCH_engine.json";
        std::fs::write(path, to_json(std::slice::from_ref(result)))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("# wrote {path}");
    }

    if let Some(p) = json_path {
        std::fs::File::create(&p)
            .and_then(|mut f| f.write_all(to_json(&results).as_bytes()))
            .expect("write json");
        eprintln!("# wrote {p}");
    }
    if let Some(p) = md_path {
        let mut md = String::new();
        for r in &results {
            md.push_str(&render_markdown(r));
        }
        std::fs::write(&p, md).expect("write markdown");
        eprintln!("# wrote {p}");
    }
}

/// Headline claims in the style of the paper's summary paragraph.
fn print_summary(results: &[ExperimentResult]) {
    println!("== summary (paper's headline claims vs measured) ==");
    let avg_ratio = |id: &str, base: &str, ours: &str| -> Option<f64> {
        let r = results.iter().find(|r| r.id == id)?;
        let mut num = 0.0;
        let mut den = 0.0;
        for row in &r.rows {
            let get = |name: &str| row.series.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if let (Some(b), Some(o)) = (get(base), get(ours)) {
                num += o;
                den += b;
            }
        }
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    };
    if let Some(r) = avg_ratio("fig8a", "Match", "MatchJoin_min") {
        println!(
            "fig8a   MatchJoin_min / Match on Amazon:      {:.1}% (paper: ~45% avg across datasets)",
            r * 100.0
        );
    }
    if let Some(r) = avg_ratio("fig8c", "Match", "MatchJoin_min") {
        println!(
            "fig8c   MatchJoin_min / Match on YouTube:     {:.1}% (paper: <49%)",
            r * 100.0
        );
    }
    if let Some(r) = results.iter().find(|r| r.id == "fig8f") {
        // The optimization claim targets dense graphs ("more effective over
        // denser data graphs"): report the densest α point.
        if let Some(row) = r.rows.last() {
            let get = |name: &str| row.series.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if let (Some(nopt), Some(min)) = (get("MatchJoin_nopt"), get("MatchJoin_min")) {
                if nopt > 0.0 {
                    println!(
                        "fig8f   optimized / unoptimized at α=1.25:    {:.1}% (paper: ~54%)",
                        min / nopt * 100.0
                    );
                }
            }
        }
    }
    if let Some(r) = avg_ratio("fig8i", "BMatch", "BMatchJoin_min") {
        println!(
            "fig8i   BMatchJoin_min / BMatch on Amazon:    {:.1}% (paper: ~10%)",
            r * 100.0
        );
    }
    if let Some(r) = avg_ratio("fig8l", "BMatch", "BMatchJoin_min") {
        println!(
            "fig8l   BMatchJoin_min / BMatch (synthetic):  {:.1}% (paper: ~6%)",
            r * 100.0
        );
    }
    if let Some(r) = results.iter().find(|r| r.id == "fig8h") {
        let avg_r2: f64 =
            r.rows.iter().map(|row| row.series[1].1).sum::<f64>() / r.rows.len() as f64;
        println!(
            "fig8h   avg |Minimum|/|Minimal| (R2):         {:.1}% (paper: 40-55%)",
            avg_r2 * 100.0
        );
    }
}

/// The paper's worked examples, printed end to end.
mod examples {
    use gpv_core::containment::contain;
    use gpv_core::matchjoin::match_join;
    use gpv_core::minimal::minimal;
    use gpv_core::minimum::minimum;
    use gpv_core::view::{materialize, ViewDef, ViewSet};
    use gpv_graph::{DataGraph, GraphBuilder};
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::{Pattern, PatternBuilder};

    fn fig1a() -> (DataGraph, Vec<&'static str>) {
        let names = vec![
            "Bob", "Walt", "Mat", "Fred", "Mary", "Dan", "Pat", "Bill", "Jean", "Emmy",
        ];
        let mut b = GraphBuilder::new();
        let bob = b.add_node(["PM"]);
        let walt = b.add_node(["PM"]);
        let mat = b.add_node(["DBA"]);
        let fred = b.add_node(["DBA"]);
        let mary = b.add_node(["DBA"]);
        let dan = b.add_node(["PRG"]);
        let pat = b.add_node(["PRG"]);
        let bill = b.add_node(["PRG"]);
        let jean = b.add_node(["BA"]);
        let emmy = b.add_node(["ST"]);
        b.add_edge(bob, mat);
        b.add_edge(walt, mat);
        b.add_edge(bob, dan);
        b.add_edge(walt, bill);
        b.add_edge(fred, pat);
        b.add_edge(mat, pat);
        b.add_edge(mary, bill);
        b.add_edge(dan, fred);
        b.add_edge(pat, mary);
        b.add_edge(pat, mat);
        b.add_edge(bill, mat);
        b.add_edge(bob, jean);
        b.add_edge(jean, emmy);
        (b.build(), names)
    }

    fn fig1c() -> Pattern {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba1 = b.node_labeled("DBA");
        let prg1 = b.node_labeled("PRG");
        let dba2 = b.node_labeled("DBA");
        let prg2 = b.node_labeled("PRG");
        b.edge(pm, dba1);
        b.edge(pm, prg2);
        b.edge(dba1, prg1);
        b.edge(prg1, dba2);
        b.edge(dba2, prg2);
        b.edge(prg2, dba1);
        b.build().unwrap()
    }

    fn fig1_views() -> ViewSet {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(pm, dba);
        b.edge(pm, prg);
        let v1 = b.build().unwrap();
        let mut b = PatternBuilder::new();
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(dba, prg);
        b.edge(prg, dba);
        let v2 = b.build().unwrap();
        ViewSet::new(vec![ViewDef::new("V1", v1), ViewDef::new("V2", v2)])
    }

    pub fn run() {
        let (g, names) = fig1a();
        let q = fig1c();
        let views = fig1_views();

        println!("== Examples 1-4 (Fig. 1): recommendation network ==");
        let direct = match_pattern(&q, &g);
        println!("Match(Qs, G) — Example 2's table:");
        let qlabels = ["PM", "DBA1", "PRG1", "DBA2", "PRG2"];
        for (ei, &(u, v)) in q.edges().iter().enumerate() {
            let pairs: Vec<String> = direct
                .edge_set(gpv_pattern::PatternEdgeId(ei as u32))
                .iter()
                .map(|&(a, b)| format!("({},{})", names[a.index()], names[b.index()]))
                .collect();
            println!(
                "  ({},{}) -> {{{}}}",
                qlabels[u.index()],
                qlabels[v.index()],
                pairs.join(", ")
            );
        }

        println!("\nExample 3: Qs ⊑ {{V1, V2}}?");
        let plan = contain(&q, &views).expect("contained");
        println!("  yes; λ uses views {:?}", plan.used_views);

        let ext = materialize(&views, &g);
        let joined = match_join(&q, &plan, &ext).unwrap();
        println!(
            "MatchJoin over V(G) equals Match over G: {}",
            joined == direct
        );

        println!("\n== Examples 5-7 (Fig. 4): containment & view selection ==");
        let (q4, v4) = fig4();
        let plan = contain(&q4, &v4);
        println!("contain: Qs ⊑ V = {}", plan.is_some());
        let mnl = minimal(&q4, &v4).unwrap();
        let min = minimum(&q4, &v4).unwrap();
        let name =
            |vs: &[usize]| -> Vec<String> { vs.iter().map(|&i| v4.get(i).name.clone()).collect() };
        println!("minimal  -> {:?} (paper: [V2, V3, V4])", name(&mnl.views));
        println!("minimum  -> {:?} (paper: [V5, V6])", name(&min.views));
    }

    fn fig4() -> (Pattern, ViewSet) {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        let e = b.node_labeled("E");
        b.edge(a, bb);
        b.edge(a, c);
        b.edge(bb, d);
        b.edge(c, d);
        b.edge(bb, e);
        let q = b.build().unwrap();

        let single = |x: &str, y: &str| {
            let mut b = PatternBuilder::new();
            let u = b.node_labeled(x);
            let v = b.node_labeled(y);
            b.edge(u, v);
            b.build().unwrap()
        };
        let multi = |edges: &[(&str, &str)]| {
            let mut b = PatternBuilder::new();
            let mut ids = std::collections::HashMap::new();
            for &(x, y) in edges {
                ids.entry(x.to_string())
                    .or_insert_with(|| b.node_labeled(x));
                ids.entry(y.to_string())
                    .or_insert_with(|| b.node_labeled(y));
            }
            for &(x, y) in edges {
                b.edge(ids[x], ids[y]);
            }
            b.build().unwrap()
        };
        let views = ViewSet::new(vec![
            ViewDef::new("V1", single("C", "D")),
            ViewDef::new("V2", single("B", "E")),
            ViewDef::new("V3", multi(&[("A", "B"), ("A", "C")])),
            ViewDef::new("V4", multi(&[("B", "D"), ("C", "D")])),
            ViewDef::new("V5", multi(&[("B", "D"), ("B", "E")])),
            ViewDef::new("V6", multi(&[("A", "B"), ("A", "C"), ("C", "D")])),
            ViewDef::new("V7", multi(&[("A", "B"), ("A", "C"), ("B", "D")])),
        ]);
        (q, views)
    }
}
