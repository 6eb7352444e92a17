//! Phase 2 of the methodology: the switching graph and Algorithm 1.
//!
//! Use-cases that require *smooth switching* between them (no NoC
//! reconfiguration) are connected by an edge in the undirected switching
//! graph `SG` (Definition 1). Every compound mode is automatically tied to
//! each of its constituents, because entering or leaving a parallel mode
//! must not disturb the use-cases that keep running. Algorithm 1 groups
//! use-cases by reachability in `SG` (connected components found with
//! repeated depth-first search); members of one group must share a single
//! NoC configuration, while crossings between groups may reconfigure paths
//! and slot tables.

use std::collections::BTreeSet;

use crate::spec::UseCaseId;

/// The undirected switching graph `SG(SV, SE)` over use-cases.
///
/// ```
/// use noc_usecase::{SwitchingGraph, spec::UseCaseId};
///
/// // Figure 4 of the paper: 10 use-cases, compounds U_123 (id 8) and
/// // U_45 (id 9), plus a smooth edge between U6 and U7.
/// let u = |i| UseCaseId::new(i);
/// let mut sg = SwitchingGraph::new(10);
/// sg.add_compound(u(8), &[u(0), u(1), u(2)]); // U_123
/// sg.add_compound(u(9), &[u(3), u(4)]);       // U_45
/// sg.add_smooth_pair(u(5), u(6));             // U6 -- U7
/// let groups = sg.group();
/// assert_eq!(groups.group_count(), 4);        // {0,1,2,8}, {3,4,9}, {5,6}, {7}
/// assert_eq!(groups.group_of(u(0)), groups.group_of(u(8)));
/// assert_ne!(groups.group_of(u(0)), groups.group_of(u(7)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchingGraph {
    vertices: usize,
    adjacency: Vec<BTreeSet<usize>>,
}

impl SwitchingGraph {
    /// Creates a switching graph over `use_case_count` isolated vertices.
    pub fn new(use_case_count: usize) -> Self {
        SwitchingGraph {
            vertices: use_case_count,
            adjacency: vec![BTreeSet::new(); use_case_count],
        }
    }

    /// Number of vertices (use-cases).
    pub fn vertex_count(&self) -> usize {
        self.vertices
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Declares that `a` and `b` need smooth switching (an `SE` edge).
    /// Self-edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn add_smooth_pair(&mut self, a: UseCaseId, b: UseCaseId) {
        let (i, j) = (a.index(), b.index());
        assert!(i < self.vertices, "use-case {a} out of range");
        assert!(j < self.vertices, "use-case {b} out of range");
        if i == j {
            return;
        }
        self.adjacency[i].insert(j);
        self.adjacency[j].insert(i);
    }

    /// Ties a compound mode to each of its constituents: transitions into
    /// and out of a parallel mode must be smooth, so the compound shares a
    /// configuration with every member (Section 4: "We automatically
    /// consider those use-cases in a compound-mode to also require
    /// smooth-switching").
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn add_compound(&mut self, compound: UseCaseId, constituents: &[UseCaseId]) {
        for &m in constituents {
            self.add_smooth_pair(compound, m);
        }
    }

    /// Returns `true` if `a` and `b` are directly connected.
    pub fn has_edge(&self, a: UseCaseId, b: UseCaseId) -> bool {
        self.adjacency
            .get(a.index())
            .is_some_and(|adj| adj.contains(&b.index()))
    }

    /// Algorithm 1: groups all use-cases reachable from each other.
    ///
    /// Implementation follows the paper literally: repeatedly pick an
    /// unvisited vertex, run a depth-first search, and group everything
    /// the search traverses.
    pub fn group(&self) -> UseCaseGroups {
        let mut group_of = vec![usize::MAX; self.vertices];
        let mut groups: Vec<Vec<UseCaseId>> = Vec::new();
        for start in 0..self.vertices {
            if group_of[start] != usize::MAX {
                continue;
            }
            let gid = groups.len();
            let mut members = Vec::new();
            let mut stack = vec![start];
            group_of[start] = gid;
            while let Some(v) = stack.pop() {
                members.push(UseCaseId::new(v as u32));
                for &w in &self.adjacency[v] {
                    if group_of[w] == usize::MAX {
                        group_of[w] = gid;
                        stack.push(w);
                    }
                }
            }
            members.sort_unstable();
            groups.push(members);
        }
        UseCaseGroups { group_of, groups }
    }
}

/// The result of Algorithm 1: a partition of use-cases into configuration
/// groups. Use-cases in one group share paths and slot tables; the NoC may
/// be reconfigured when switching between groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseCaseGroups {
    /// Group index per use-case (dense).
    group_of: Vec<usize>,
    /// Members of each group, sorted.
    groups: Vec<Vec<UseCaseId>>,
}

impl UseCaseGroups {
    /// A partition where every use-case sits alone in its own group —
    /// full reconfiguration freedom (no smooth-switching constraints).
    pub fn singletons(use_case_count: usize) -> Self {
        UseCaseGroups {
            group_of: (0..use_case_count).collect(),
            groups: (0..use_case_count)
                .map(|i| vec![UseCaseId::new(i as u32)])
                .collect(),
        }
    }

    /// A partition with all use-cases in one group — the NoC is never
    /// reconfigured (the ablation counterpart of grouping).
    pub fn single_group(use_case_count: usize) -> Self {
        UseCaseGroups {
            group_of: vec![0; use_case_count],
            groups: vec![(0..use_case_count)
                .map(|i| UseCaseId::new(i as u32))
                .collect()],
        }
    }

    /// Number of use-cases covered by the partition.
    pub fn use_case_count(&self) -> usize {
        self.group_of.len()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group index of a use-case.
    ///
    /// # Panics
    ///
    /// Panics if `uc` is out of range.
    pub fn group_of(&self, uc: UseCaseId) -> usize {
        self.group_of[uc.index()]
    }

    /// Members of group `g`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn members(&self, g: usize) -> &[UseCaseId] {
        &self.groups[g]
    }

    /// All groups.
    pub fn groups(&self) -> &[Vec<UseCaseId>] {
        &self.groups
    }

    /// Whether two use-cases must share one NoC configuration.
    pub fn same_group(&self, a: UseCaseId, b: UseCaseId) -> bool {
        self.group_of(a) == self.group_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UseCaseId {
        UseCaseId::new(i)
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let sg = SwitchingGraph::new(4);
        let g = sg.group();
        assert_eq!(g.group_count(), 4);
        for i in 0..4 {
            assert_eq!(g.members(g.group_of(u(i))), &[u(i)]);
        }
        assert_eq!(g, UseCaseGroups::singletons(4));
    }

    #[test]
    fn figure4_grouping() {
        // Paper Figure 4: U1..U8 are ids 0..7, U_123 id 8, U_45 id 9.
        let mut sg = SwitchingGraph::new(10);
        sg.add_compound(u(8), &[u(0), u(1), u(2)]);
        sg.add_compound(u(9), &[u(3), u(4)]);
        sg.add_smooth_pair(u(5), u(6));
        let g = sg.group();
        assert_eq!(g.group_count(), 4);
        assert_eq!(g.members(g.group_of(u(0))), &[u(0), u(1), u(2), u(8)]);
        assert_eq!(g.members(g.group_of(u(3))), &[u(3), u(4), u(9)]);
        assert_eq!(g.members(g.group_of(u(5))), &[u(5), u(6)]);
        assert_eq!(g.members(g.group_of(u(7))), &[u(7)]);
    }

    #[test]
    fn transitive_chains_merge() {
        let mut sg = SwitchingGraph::new(5);
        sg.add_smooth_pair(u(0), u(1));
        sg.add_smooth_pair(u(1), u(2));
        sg.add_smooth_pair(u(3), u(4));
        let g = sg.group();
        assert_eq!(g.group_count(), 2);
        assert!(g.same_group(u(0), u(2)));
        assert!(!g.same_group(u(2), u(3)));
    }

    #[test]
    fn grouping_is_a_partition() {
        let mut sg = SwitchingGraph::new(8);
        sg.add_smooth_pair(u(0), u(3));
        sg.add_smooth_pair(u(3), u(5));
        sg.add_smooth_pair(u(1), u(2));
        let g = sg.group();
        // Every use-case appears in exactly one group.
        let mut seen = [0usize; 8];
        for grp in g.groups() {
            for &m in grp {
                seen[m.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // group_of is consistent with members().
        for (gi, grp) in g.groups().iter().enumerate() {
            for &m in grp {
                assert_eq!(g.group_of(m), gi);
            }
        }
    }

    #[test]
    fn self_edges_ignored_and_duplicates_idempotent() {
        let mut sg = SwitchingGraph::new(3);
        sg.add_smooth_pair(u(0), u(0));
        assert_eq!(sg.edge_count(), 0);
        sg.add_smooth_pair(u(0), u(1));
        sg.add_smooth_pair(u(1), u(0));
        assert_eq!(sg.edge_count(), 1);
        assert!(sg.has_edge(u(0), u(1)));
        assert!(sg.has_edge(u(1), u(0)));
        assert!(!sg.has_edge(u(0), u(2)));
    }

    #[test]
    fn single_group_partition() {
        let g = UseCaseGroups::single_group(5);
        assert_eq!(g.group_count(), 1);
        assert!(g.same_group(u(0), u(4)));
        assert_eq!(g.members(0).len(), 5);
        assert_eq!(g.use_case_count(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut sg = SwitchingGraph::new(2);
        sg.add_smooth_pair(u(0), u(5));
    }

    #[test]
    fn fully_connected_collapses_to_one_group() {
        let mut sg = SwitchingGraph::new(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                sg.add_smooth_pair(u(i), u(j));
            }
        }
        let g = sg.group();
        assert_eq!(g.group_count(), 1);
        assert_eq!(g, {
            let mut expected = UseCaseGroups::single_group(6);
            expected.groups[0].sort_unstable();
            expected
        });
    }
}
