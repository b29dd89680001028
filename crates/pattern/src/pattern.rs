//! Graph pattern queries `Qs = (Vp, Ep, fv)` (paper Section II-A).

use crate::predicate::Predicate;
use gpv_graph::scc::{tarjan_scc, Condensation};
use serde::{Deserialize, Serialize};

/// A pattern-node identifier: dense index in `0..node_count`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PatternNodeId(pub u32);

impl PatternNodeId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PatternNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A pattern-edge identifier: dense index into [`Pattern::edges`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PatternEdgeId(pub u32);

impl PatternEdgeId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors from [`PatternBuilder::build`](crate::PatternBuilder::build).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternError {
    /// The pattern has no nodes.
    Empty,
    /// An edge endpoint references a node id out of range.
    BadEdge(u32, u32),
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::Empty => write!(f, "pattern has no nodes"),
            PatternError::BadEdge(u, v) => write!(f, "edge ({u},{v}) references missing node"),
        }
    }
}

impl std::error::Error for PatternError {}

/// A graph pattern query `Qs = (Vp, Ep, fv)`: a directed graph whose nodes
/// carry search-condition [`Predicate`]s.
///
/// Patterns are small (the paper evaluates up to 10 nodes / 20 edges), so the
/// representation favours simplicity: adjacency is `Vec<Vec<_>>` rather than
/// CSR. Edges are deduplicated and stored in sorted order; self-loops are
/// allowed (a node collaborating with itself is a 1-cycle).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Pattern {
    preds: Vec<Predicate>,
    edges: Vec<(PatternNodeId, PatternNodeId)>,
    out_adj: Vec<Vec<(PatternNodeId, PatternEdgeId)>>,
    in_adj: Vec<Vec<(PatternNodeId, PatternEdgeId)>>,
}

impl Pattern {
    /// Builds a pattern from parallel arrays. Prefer
    /// [`PatternBuilder`](crate::PatternBuilder).
    pub fn from_parts(
        preds: Vec<Predicate>,
        mut edge_list: Vec<(u32, u32)>,
    ) -> Result<Self, PatternError> {
        if preds.is_empty() {
            return Err(PatternError::Empty);
        }
        let n = preds.len() as u32;
        edge_list.sort_unstable();
        edge_list.dedup();
        for &(u, v) in &edge_list {
            if u >= n || v >= n {
                return Err(PatternError::BadEdge(u, v));
            }
        }
        let edges: Vec<(PatternNodeId, PatternNodeId)> = edge_list
            .iter()
            .map(|&(u, v)| (PatternNodeId(u), PatternNodeId(v)))
            .collect();
        let mut out_adj = vec![Vec::new(); preds.len()];
        let mut in_adj = vec![Vec::new(); preds.len()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            out_adj[u.index()].push((v, PatternEdgeId(i as u32)));
            in_adj[v.index()].push((u, PatternEdgeId(i as u32)));
        }
        Ok(Pattern {
            preds,
            edges,
            out_adj,
            in_adj,
        })
    }

    /// Number of pattern nodes `|Vp|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of pattern edges `|Ep|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The paper's `|Qs|`: nodes plus edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterates node ids.
    pub fn nodes(&self) -> impl Iterator<Item = PatternNodeId> + '_ {
        (0..self.node_count() as u32).map(PatternNodeId)
    }

    /// All edges in sorted order, indexable by [`PatternEdgeId`].
    #[inline]
    pub fn edges(&self) -> &[(PatternNodeId, PatternNodeId)] {
        &self.edges
    }

    /// The endpoints of edge `e`.
    #[inline]
    pub fn edge(&self, e: PatternEdgeId) -> (PatternNodeId, PatternNodeId) {
        self.edges[e.index()]
    }

    /// Out-edges of `u` as `(target, edge id)`.
    #[inline]
    pub fn out_edges(&self, u: PatternNodeId) -> &[(PatternNodeId, PatternEdgeId)] {
        &self.out_adj[u.index()]
    }

    /// In-edges of `u` as `(source, edge id)`.
    #[inline]
    pub fn in_edges(&self, u: PatternNodeId) -> &[(PatternNodeId, PatternEdgeId)] {
        &self.in_adj[u.index()]
    }

    /// The search condition of node `u`.
    #[inline]
    pub fn pred(&self, u: PatternNodeId) -> &Predicate {
        &self.preds[u.index()]
    }

    /// All predicates, indexable by node id.
    #[inline]
    pub fn preds(&self) -> &[Predicate] {
        &self.preds
    }

    /// Looks up the edge id of `(u, v)`, if present.
    pub fn edge_id(&self, u: PatternNodeId, v: PatternNodeId) -> Option<PatternEdgeId> {
        self.edges
            .binary_search(&(u, v))
            .ok()
            .map(|i| PatternEdgeId(i as u32))
    }

    /// Whether `u` has a self-loop.
    pub fn has_self_loop(&self, u: PatternNodeId) -> bool {
        self.edge_id(u, u).is_some()
    }

    /// Whether `u` has no incident edge (every node of an edgeless
    /// pattern).
    pub fn is_isolated(&self, u: PatternNodeId) -> bool {
        self.out_adj[u.index()].is_empty() && self.in_adj[u.index()].is_empty()
    }

    /// Whether the pattern is acyclic (a DAG pattern in the paper's
    /// terminology; self-loops count as cycles).
    pub fn is_dag(&self) -> bool {
        let cond = self.condensation();
        cond.scc.comp_count == self.node_count() && self.nodes().all(|u| !self.has_self_loop(u))
    }

    /// Whether the pattern is weakly connected (the paper assumes
    /// connectivity w.l.o.g.; the algorithms here do not require it).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![PatternNodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            let next = self
                .out_edges(u)
                .iter()
                .map(|&(v, _)| v)
                .chain(self.in_edges(u).iter().map(|&(v, _)| v));
            for v in next {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.node_count()
    }

    /// SCC condensation plus the paper's rank function (Section III), used by
    /// the bottom-up `MatchJoin` strategy.
    pub fn condensation(&self) -> Condensation {
        let n = self.node_count();
        let succ = |u: u32| {
            self.out_adj[u as usize]
                .iter()
                .map(|&(v, _)| v.0)
                .collect::<Vec<_>>()
        };
        let scc = tarjan_scc(n, succ);
        Condensation::build(n, succ, scc)
    }

    /// Per-edge ranks `r(e)` in edge-id order: `r((u', u)) = r(u)`.
    pub fn edge_ranks(&self) -> Vec<u32> {
        let cond = self.condensation();
        self.edges
            .iter()
            .map(|&(_, dst)| cond.rank(dst.0))
            .collect()
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pattern ({} nodes, {} edges)",
            self.node_count(),
            self.edge_count()
        )?;
        for u in self.nodes() {
            writeln!(f, "  {u}: {}", self.pred(u))?;
        }
        for &(u, v) in &self.edges {
            writeln!(f, "  {u} -> {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PatternBuilder;

    /// The paper's Fig. 1(c) pattern: PM -> DBA1 -> PRG1 -> DBA2 -> PRG2 with
    /// PM -> PRG2 and the DBA/PRG collaboration cycle.
    pub(crate) fn fig1c() -> Pattern {
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

    #[test]
    fn sizes() {
        let q = fig1c();
        assert_eq!(q.node_count(), 5);
        assert_eq!(q.edge_count(), 6);
        assert_eq!(q.size(), 11);
    }

    #[test]
    fn adjacency() {
        let q = fig1c();
        let pm = PatternNodeId(0);
        assert_eq!(q.out_edges(pm).len(), 2);
        assert_eq!(q.in_edges(pm).len(), 0);
        let dba1 = PatternNodeId(1);
        assert_eq!(q.in_edges(dba1).len(), 2); // from PM and PRG2
    }

    #[test]
    fn edge_lookup() {
        let q = fig1c();
        let e = q.edge_id(PatternNodeId(0), PatternNodeId(1)).unwrap();
        assert_eq!(q.edge(e), (PatternNodeId(0), PatternNodeId(1)));
        assert_eq!(q.edge_id(PatternNodeId(1), PatternNodeId(0)), None);
    }

    #[test]
    fn cyclic_not_dag() {
        let q = fig1c();
        assert!(!q.is_dag());
        assert!(q.is_connected());
    }

    #[test]
    fn dag_pattern() {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let c = b.node_labeled("B");
        b.edge(a, c);
        let q = b.build().unwrap();
        assert!(q.is_dag());
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        b.edge(a, a);
        let q = b.build().unwrap();
        assert!(q.has_self_loop(a));
        assert!(!q.is_dag());
    }

    #[test]
    fn disconnected_detected() {
        let mut b = PatternBuilder::new();
        b.node_labeled("A");
        b.node_labeled("B");
        let q = b.build().unwrap();
        assert!(!q.is_connected());
    }

    #[test]
    fn ranks_follow_paper() {
        // Fig. 1(c): the {DBA1, PRG1, DBA2, PRG2} cycle is one SCC with no
        // outgoing condensation edges (rank 0); PM points into it (rank 1).
        let q = fig1c();
        let cond = q.condensation();
        assert_eq!(cond.scc.comp_count, 2);
        for u in 1..5 {
            assert_eq!(cond.rank(u), 0, "cycle member u{u}");
        }
        assert_eq!(cond.rank(0), 1, "PM");
        let ranks = q.edge_ranks();
        // Edges from PM target rank-0 nodes => rank 0; every edge here
        // targets a cycle member, so all ranks are 0.
        assert!(ranks.iter().all(|&r| r == 0));
    }

    #[test]
    fn dedup_edges() {
        let p = Pattern::from_parts(
            vec![Predicate::label("A"), Predicate::label("B")],
            vec![(0, 1), (0, 1)],
        )
        .unwrap();
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn errors() {
        assert_eq!(
            Pattern::from_parts(vec![], vec![]).unwrap_err(),
            PatternError::Empty
        );
        assert_eq!(
            Pattern::from_parts(vec![Predicate::any()], vec![(0, 3)]).unwrap_err(),
            PatternError::BadEdge(0, 3)
        );
    }

    #[test]
    fn display_contains_structure() {
        let s = format!("{}", fig1c());
        assert!(s.contains("u0 -> u1"));
        assert!(s.contains("PM"));
    }
}
