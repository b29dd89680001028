//! The Theorem 1 check (answer ≡ `Match(Q, G)`) is evidence only if the
//! oracle is a separate implementation. So the production part of each
//! `gpv-core` source — the text before its first `#[cfg(test)]` — must not
//! name the `gpv_matching` simulators; it reads `G` through its graph
//! source and the `MatchJoin` kernel. That holds for bounded views too:
//! `bmaterialize` reads `G` through the same kernel, and `bmatch_pattern`
//! stays the oracle that checks it.

const ORACLES: [&str; 6] = [
    "match_pattern",
    "simulation_relation",
    "dual_match_pattern",
    "dual_simulation_relation",
    "bmatch_pattern",
    "bounded_simulation_relation",
];

/// Whether `line` names `ident` as a whole identifier (so
/// `bounded_simulation_relation` does not name `simulation_relation`).
fn names(line: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(ident).any(|(i, _)| {
        !line[..i].ends_with(is_ident) && !line[i + ident.len()..].starts_with(is_ident)
    })
}

#[test]
fn core_production_code_names_no_simulation_oracle() {
    assert!(names("let r = match_pattern(q, g);", "match_pattern"));
    assert!(!names("bmatch_pattern(qb, g)", "match_pattern"));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let (mut scanned, mut offenders) = (0, Vec::new());
    for path in std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()) {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        if !file.ends_with(".rs") {
            continue;
        }
        scanned += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let production = src.split("#[cfg(test)]").next().unwrap_or_default();
        for (n, line) in production.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            for ident in ORACLES.iter().filter(|i| names(code, i)) {
                offenders.push(format!("{file}:{}: {ident}", n + 1));
            }
        }
    }
    assert!(scanned > 20, "only {scanned} sources under {dir:?}");
    assert!(
        offenders.is_empty(),
        "production code names an oracle: {offenders:#?}"
    );
}

/// The production part of each `crates/core/src` file, by file name.
fn core_production_sources() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).unwrap();
            let production = src.split("#[cfg(test)]").next().unwrap_or_default();
            let file = p.file_name().unwrap().to_string_lossy().into_owned();
            (file, production.to_string())
        })
        .collect();
    sources.sort();
    sources
}

/// Splits production code into `(fn name, text up to the next fn)` chunks,
/// comments dropped.
fn fn_chunks(src: &str) -> Vec<(String, String)> {
    let mut chunks: Vec<(String, String)> = Vec::new();
    for line in src.lines().map(str::trim_start) {
        if line.starts_with("//") {
            continue;
        }
        let header = line
            .split_once("fn ")
            .filter(|(before, _)| {
                before.is_empty() || before.ends_with("pub ") || before.ends_with(") ")
            })
            .map(|(_, rest)| rest.split(['(', '<']).next().unwrap_or_default());
        match header {
            Some(name) if !name.is_empty() => chunks.push((name.to_string(), String::new())),
            _ => {}
        }
        if let Some((_, body)) = chunks.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    chunks
}

/// The support-counter drain (`MatchJoin`'s refinement step, which the
/// incremental maintainer shares) is written once: the only production
/// function in `gpv-core` that pops a worklist and removes the popped node
/// from a candidate set is `matchjoin.rs`'s `drain`, the maintainer calls
/// it, and the retired second copy stays gone.
#[test]
fn core_production_code_defines_one_support_counter_drain() {
    let pops = |body: &str| {
        body.contains("pop_front()") || body.contains(".pop()") || body.contains("head += 1")
    };
    let removes_candidate = |body: &str| {
        body.lines()
            .any(|l| l.contains("cand") && l.contains(".remove("))
    };
    let sources = core_production_sources();
    assert!(sources.len() > 20, "only {} core sources", sources.len());
    let (mut drains, mut retired) = (Vec::new(), Vec::new());
    for (file, src) in &sources {
        for (name, body) in fn_chunks(src) {
            if pops(&body) && removes_candidate(&body) {
                drains.push(format!("{file}::{name}"));
            }
            if ["propagate_removals", "count_in", "drain_and_extract"].contains(&name.as_str()) {
                retired.push(format!("{file}::{name}"));
            }
        }
    }
    assert_eq!(drains, ["matchjoin.rs::drain"], "support-counter drains");
    assert!(retired.is_empty(), "retired drain copies: {retired:?}");
    let maintenance = &sources
        .iter()
        .find(|(f, _)| f == "maintenance.rs")
        .unwrap()
        .1;
    for call in ["drain(", "initial_support("] {
        assert!(
            maintenance.contains(call),
            "the maintainer must call the kernel's `{call}..)`"
        );
    }
}
