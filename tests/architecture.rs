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
