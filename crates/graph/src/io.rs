//! Line-oriented text I/O for data graphs.
//!
//! Format (one record per line, `#` comments and blank lines ignored):
//!
//! ```text
//! node <id> [label1,label2,...] [key=value ...]
//! edge <src> <dst>
//! ```
//!
//! Node ids must be dense `0..n` but may appear in any order; `-` denotes an
//! empty label set. Values are parsed as `i64` when possible, strings
//! otherwise (quote with `"` to force a string or embed spaces).

use crate::builder::GraphBuilder;
use crate::graph::{DataGraph, NodeId};
use crate::value::Value;
use std::fmt::Write as _;

/// Errors produced while parsing the text graph format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line whose first token is neither `node` nor `edge`.
    UnknownRecord(usize, String),
    /// A malformed record (missing/invalid fields).
    Malformed(usize, String),
    /// Node ids are not dense `0..n`.
    NonDenseIds,
    /// A node id of `u32::MAX` or more (node ids are `u32`, and one value
    /// is kept free so that `n` itself fits).
    NodeIdOutOfRange(usize, u64),
    /// An edge references a node id that was never declared.
    DanglingEdge(usize, u32),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownRecord(l, s) => write!(f, "line {l}: unknown record kind `{s}`"),
            ParseError::Malformed(l, s) => write!(f, "line {l}: malformed record: {s}"),
            ParseError::NonDenseIds => write!(f, "node ids are not dense 0..n"),
            ParseError::NodeIdOutOfRange(l, id) => {
                write!(
                    f,
                    "line {l}: node id {id} is out of range (ids must be below {})",
                    u32::MAX
                )
            }
            ParseError::DanglingEdge(l, id) => {
                write!(f, "line {l}: edge references undeclared node {id}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a graph from the text format.
pub fn parse_graph(text: &str) -> Result<DataGraph, ParseError> {
    struct NodeDecl {
        labels: Vec<String>,
        attrs: Vec<(String, Value)>,
    }
    // `(id, decl)` records in file order; nothing is allocated by id until
    // the ids are known to be dense.
    let mut decls: Vec<(u32, NodeDecl)> = Vec::new();
    let mut edges: Vec<(usize, u32, u32)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = tokenize(line);
        let kind = tokens.next().unwrap_or_default();
        match kind.as_str() {
            "node" => {
                let id: u64 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno + 1, raw.to_string()))?;
                let id = u32::try_from(id)
                    .ok()
                    .filter(|&id| id < u32::MAX)
                    .ok_or(ParseError::NodeIdOutOfRange(lineno + 1, id))?;
                let label_tok = tokens.next().unwrap_or_else(|| "-".to_string());
                let labels: Vec<String> = if label_tok == "-" {
                    Vec::new()
                } else {
                    label_tok.split(',').map(str::to_string).collect()
                };
                let mut attrs = Vec::new();
                for t in tokens {
                    let (k, v) = t
                        .split_once('=')
                        .ok_or_else(|| ParseError::Malformed(lineno + 1, raw.to_string()))?;
                    let value = match v.parse::<i64>() {
                        Ok(i) => Value::Int(i),
                        Err(_) => Value::Str(v.trim_matches('"').to_string()),
                    };
                    attrs.push((k.to_string(), value));
                }
                decls.push((id, NodeDecl { labels, attrs }));
            }
            "edge" => {
                let u: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno + 1, raw.to_string()))?;
                let v: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno + 1, raw.to_string()))?;
                edges.push((lineno + 1, u, v));
            }
            other => return Err(ParseError::UnknownRecord(lineno + 1, other.to_string())),
        }
    }

    // A later declaration of the same id replaces the earlier one: keep the
    // last record per id, then require the ids to be exactly `0..n`.
    decls.reverse();
    decls.sort_by_key(|&(id, _)| id);
    decls.dedup_by_key(|&mut (id, _)| id);
    if decls
        .last()
        .is_some_and(|&(id, _)| id as usize != decls.len() - 1)
    {
        return Err(ParseError::NonDenseIds);
    }
    let mut b = GraphBuilder::with_capacity(decls.len(), edges.len());
    for (_, d) in &decls {
        let v = b.add_node(d.labels.iter().map(String::as_str));
        for (k, val) in &d.attrs {
            b.set_attr(v, k, val.clone());
        }
    }
    let n = decls.len() as u32;
    for (line, u, v) in edges {
        if u >= n {
            return Err(ParseError::DanglingEdge(line, u));
        }
        if v >= n {
            return Err(ParseError::DanglingEdge(line, v));
        }
        b.add_edge(NodeId(u), NodeId(v));
    }
    Ok(b.build())
}

/// Serializes a graph to the text format (round-trips through
/// [`parse_graph`]).
pub fn write_graph(g: &DataGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} nodes, {} edges", g.node_count(), g.edge_count());
    for v in g.nodes() {
        let labels = g.labels_of(v);
        let label_str = if labels.is_empty() {
            "-".to_string()
        } else {
            labels
                .iter()
                .map(|&l| g.label_name(l))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = write!(out, "node {} {}", v.0, label_str);
        let (s, e) = (
            g.attr_offsets[v.index()] as usize,
            g.attr_offsets[v.index() + 1] as usize,
        );
        for &(aid, _) in &g.attr_data[s..e] {
            match g.attr(v, aid).expect("attr present by construction") {
                crate::ValueRef::Int(i) => {
                    let _ = write!(out, " {}={}", g.attr_name(aid), i);
                }
                crate::ValueRef::Str(st) => {
                    if st.contains(' ') {
                        let _ = write!(out, " {}=\"{}\"", g.attr_name(aid), st);
                    } else {
                        let _ = write!(out, " {}={}", g.attr_name(aid), st);
                    }
                }
            }
        }
        out.push('\n');
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "edge {} {}", u.0, v.0);
    }
    out
}

/// Splits a line into whitespace-separated tokens, honouring `"` quoting for
/// attribute values (quotes only matter after a `=`).
fn tokenize(line: &str) -> impl Iterator<Item = String> + '_ {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            c if c.is_whitespace() && !in_quote => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ValueRef;

    #[test]
    fn parse_basic() {
        let g = parse_graph(
            "# comment\n\
             node 0 PM name=Bob\n\
             node 1 DBA,Senior rank=3\n\
             edge 0 1\n",
        )
        .unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_label(NodeId(1), g.lookup_label("Senior").unwrap()));
        assert_eq!(
            g.attr(NodeId(0), g.lookup_attr("name").unwrap()),
            Some(ValueRef::Str("Bob"))
        );
        assert_eq!(
            g.attr_int(NodeId(1), g.lookup_attr("rank").unwrap()),
            Some(3)
        );
    }

    #[test]
    fn parse_quoted_value_with_space() {
        let g = parse_graph("node 0 V title=\"Hello World\"\n").unwrap();
        assert_eq!(
            g.attr(NodeId(0), g.lookup_attr("title").unwrap()),
            Some(ValueRef::Str("Hello World"))
        );
    }

    #[test]
    fn parse_unlabeled() {
        let g = parse_graph("node 0 -\nnode 1 -\nedge 0 1\n").unwrap();
        assert!(g.labels_of(NodeId(0)).is_empty());
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse_graph("blah 0\n"),
            Err(ParseError::UnknownRecord(1, _))
        ));
        assert!(matches!(
            parse_graph("node zero A\n"),
            Err(ParseError::Malformed(1, _))
        ));
        assert!(matches!(
            parse_graph("node 0 A\nedge 0 5\n"),
            Err(ParseError::DanglingEdge(2, 5))
        ));
        assert!(matches!(
            parse_graph("node 1 A\n"),
            Err(ParseError::NonDenseIds)
        ));
    }

    #[test]
    fn huge_node_ids_error_without_allocating_by_id() {
        for id in [u64::MAX, u64::from(u32::MAX)] {
            assert_eq!(
                parse_graph(&format!("node 0 A\nnode {id} A\n")).err(),
                Some(ParseError::NodeIdOutOfRange(2, id))
            );
        }
        // Below the limit but sparse: refused by the density check, which
        // runs before anything is sized by id.
        assert_eq!(
            parse_graph("node 4000000000 A\n").err(),
            Some(ParseError::NonDenseIds)
        );
    }

    #[test]
    fn ids_in_any_order_and_redeclared_ids_keep_the_last_declaration() {
        let g = parse_graph("node 1 B\nnode 0 A\nnode 1 C\nedge 0 1\n").unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.label_name(g.labels_of(NodeId(1))[0]), "C");
        assert_eq!(g.label_name(g.labels_of(NodeId(0))[0]), "A");
    }

    #[test]
    fn roundtrip() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["PM"]);
        let c = b.add_node(["DBA", "BA"]);
        let d = b.add_unlabeled_node();
        b.set_attr(a, "name", Value::str("Walt Smith"));
        b.set_attr(a, "age", Value::int(44));
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.add_edge(d, a);
        let g = b.build();

        let text = write_graph(&g);
        let g2 = parse_graph(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(
            g2.attr(a, g2.lookup_attr("name").unwrap()),
            Some(ValueRef::Str("Walt Smith"))
        );
        assert_eq!(g2.attr_int(a, g2.lookup_attr("age").unwrap()), Some(44));
        let edges1: Vec<_> = g.edges().collect();
        let edges2: Vec<_> = g2.edges().collect();
        assert_eq!(edges1, edges2);
    }
}
