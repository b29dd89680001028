//! Serde round-trips for the persistent types: graphs, patterns, view sets,
//! match results. Interners skip their redundant lookup maps on the wire, so
//! the graph test also exercises `rebuild_indices` (which also restores
//! the graph's edge-set hash).

use gpv_generator::{random_graph, random_pattern, PatternShape};
use graph_views::prelude::*;
use graph_views::views::{ViewDef, ViewSet};

#[test]
fn graph_json_roundtrip() {
    let mut b = GraphBuilder::new();
    let v = b.add_node(["video"]);
    b.set_attr(v, "C", Value::str("Music"));
    b.set_attr(v, "V", Value::int(10_000));
    let w = b.add_node(["video", "Sports"]);
    b.add_edge(v, w);
    let g = b.build();

    let json = serde_json::to_string(&g).unwrap();
    let mut g2: DataGraph = serde_json::from_str(&json).unwrap();
    g2.rebuild_indices();

    assert_eq!(g2.node_count(), g.node_count());
    assert_eq!(g2.edge_count(), g.edge_count());
    // The edge-set hash is not on the wire; rebuild_indices restores it,
    // and with it the graph fingerprint.
    assert_eq!(g2.edge_set_hash(), g.edge_set_hash());
    assert_eq!(
        graph_views::views::storage::graph_fingerprint(&g2),
        graph_views::views::storage::graph_fingerprint(&g)
    );
    assert_eq!(g2.lookup_label("video"), g.lookup_label("video"));
    let c = g2.lookup_attr("C").unwrap();
    assert_eq!(
        g2.attr(v, c).map(|x| x.to_owned_value()),
        Some(Value::str("Music"))
    );
    // Matching works against the deserialized graph.
    let mut pb = PatternBuilder::new();
    let x = pb.node(Predicate::cmp("C", gpv_pattern::CmpOp::Eq, "Music"));
    let y = pb.node_labeled("Sports");
    pb.edge(x, y);
    let q = pb.build().unwrap();
    assert_eq!(match_pattern(&q, &g), match_pattern(&q, &g2));
}

/// The graph's JSON form, pinned: adjacency goes on the wire as flat
/// CSRs under these field names, whatever the in-memory layout.
#[test]
fn graph_json_golden() {
    let mut b = GraphBuilder::new();
    let v = b.add_node(["video"]);
    b.set_attr(v, "C", Value::str("Music"));
    b.set_attr(v, "V", Value::int(10_000));
    let w = b.add_node(["video", "Sports"]);
    let x = b.add_node(["user"]);
    b.add_edge(v, w);
    b.add_edge(x, v);
    b.add_edge(x, w);
    b.add_edge(w, w);
    let g = b.build();
    let golden = concat!(
        r#"{"labels":{"strings":["video","Sports","user"]},"#,
        r#""attr_names":{"strings":["C","V"]},"values":{"strings":["Music"]},"#,
        r#""label_offsets":[0,1,3,4],"label_data":[0,0,1,2],"#,
        r#""attr_offsets":[0,2,2,2],"attr_data":[[0,{"Sym":0}],[1,{"Int":10000}]],"#,
        r#""out_offsets":[0,1,2,4],"out_targets":[1,1,0,1],"#,
        r#""in_offsets":[0,1,4,4],"in_sources":[2,0,1,2]}"#,
    );
    assert_eq!(serde_json::to_string(&g).unwrap(), golden);
    let mut back: DataGraph = serde_json::from_str(golden).unwrap();
    back.rebuild_indices();
    assert_eq!(serde_json::to_string(&back).unwrap(), golden);
    assert_eq!(back.edge_set_hash(), g.edge_set_hash());

    // Offsets that do not cover the edge list are refused, not paged.
    let bad = golden.replace(r#""out_offsets":[0,1,2,4]"#, r#""out_offsets":[0,1,2,5]"#);
    assert!(serde_json::from_str::<DataGraph>(&bad).is_err());
}

/// A graph of several adjacency pages round-trips, and a spliced graph
/// serializes exactly as the same edge set rebuilt from scratch.
#[test]
fn multi_page_graph_json_roundtrip_and_splice() {
    let g = random_graph(3000, 9000, &["A", "B", "C"], 17);
    let json = serde_json::to_string(&g).unwrap();
    let mut back: DataGraph = serde_json::from_str(&json).unwrap();
    back.rebuild_indices();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.edge_set_hash(), g.edge_set_hash());
    assert_eq!(
        back.edges().collect::<Vec<_>>(),
        g.edges().collect::<Vec<_>>()
    );

    let e = |u: u32, v: u32| (NodeId(u), NodeId(v));
    let present: Vec<_> = g.edges().step_by(997).collect();
    let inserts = vec![e(0, 2999), e(2999, 1024), e(1023, 2048), e(2047, 0)];
    let spliced = g.splice_edges(&present, &inserts);
    let mut edges: Vec<_> = g.edges().filter(|x| !present.contains(x)).collect();
    edges.extend(inserts);
    let rebuilt = g.with_edges(&edges);
    assert_eq!(
        serde_json::to_string(&spliced).unwrap(),
        serde_json::to_string(&rebuilt).unwrap()
    );
}

#[test]
fn pattern_json_roundtrip() {
    let q = random_pattern(5, 8, &["A", "B", "C"], PatternShape::Cyclic, 9);
    let json = serde_json::to_string(&q).unwrap();
    let q2: Pattern = serde_json::from_str(&json).unwrap();
    assert_eq!(q, q2);
}

#[test]
fn bounded_pattern_json_roundtrip() {
    let mut b = PatternBuilder::new();
    let x = b.node_labeled("A");
    let y = b.node_labeled("B");
    b.edge_bounded(x, y, 3);
    b.edge_unbounded(y, x);
    let q = b.build_bounded().unwrap();
    let json = serde_json::to_string(&q).unwrap();
    let q2: BoundedPattern = serde_json::from_str(&json).unwrap();
    assert_eq!(q, q2);
}

#[test]
fn view_set_and_result_roundtrip() {
    let g = random_graph(40, 100, &["A", "B", "C"], 3);
    let q = random_pattern(3, 3, &["A", "B", "C"], PatternShape::Any, 4);
    let views = ViewSet::new(vec![ViewDef::new("v", q.clone())]);
    let ext = materialize(&views, &g);

    let json = serde_json::to_string(&views).unwrap();
    let views2: ViewSet = serde_json::from_str(&json).unwrap();
    assert_eq!(views2.card(), 1);

    let json = serde_json::to_string(&ext).unwrap();
    let ext2: graph_views::views::ViewExtensions = serde_json::from_str(&json).unwrap();
    assert_eq!(ext, ext2);

    // The deserialized cache answers queries.
    if let Some(plan) = contain(&q, &views2) {
        let r = match_join(&q, &plan, &ext2).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
    }
}

#[test]
fn match_result_equality_ignores_node_sets_json() {
    let g = random_graph(30, 80, &["A", "B"], 5);
    let q = random_pattern(2, 2, &["A", "B"], PatternShape::Any, 6);
    let r = match_pattern(&q, &g);
    let json = serde_json::to_string(&r).unwrap();
    let r2: MatchResult = serde_json::from_str(&json).unwrap();
    assert_eq!(r, r2);
}
