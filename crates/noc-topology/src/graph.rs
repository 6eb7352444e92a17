//! The NoC topology graph: switches and network interfaces (NIs) connected
//! by unidirectional links.
//!
//! The mapping algorithm places SoC cores on NIs; every NI hangs off exactly
//! one switch. Links are directed — a bidirectional physical channel is two
//! [`Link`]s — because TDMA slot tables are per-direction resources.

use std::fmt;

use crate::error::TopologyError;

/// Identifier of a node (switch or NI) inside one [`Topology`].
///
/// Ids are dense indices assigned in insertion order; they are only
/// meaningful within the topology that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Returns the dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) const fn new(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a directed link inside one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// Returns the dense index of this link.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) const fn new(index: usize) -> Self {
        LinkId(index as u32)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// What a topology node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A packet switch (router). `x`/`y` are grid coordinates for mesh
    /// topologies and are informational for irregular ones.
    Switch {
        /// Column coordinate.
        x: u16,
        /// Row coordinate.
        y: u16,
    },
    /// A network interface attached to `switch`. Cores are mapped onto NIs.
    Ni {
        /// The switch this NI hangs off.
        switch: NodeId,
        /// Index of this NI among its switch's NIs.
        local_index: u16,
    },
}

/// A node of the NoC graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
}

impl Node {
    /// The node's id.
    pub const fn id(&self) -> NodeId {
        self.id
    }

    /// The node's kind.
    pub const fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Returns `true` if the node is a switch.
    pub const fn is_switch(&self) -> bool {
        matches!(self.kind, NodeKind::Switch { .. })
    }

    /// Returns `true` if the node is an NI.
    pub const fn is_ni(&self) -> bool {
        matches!(self.kind, NodeKind::Ni { .. })
    }
}

/// A unidirectional link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    id: LinkId,
    src: NodeId,
    dst: NodeId,
}

impl Link {
    /// The link's id.
    pub const fn id(&self) -> LinkId {
        self.id
    }

    /// Source node.
    pub const fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node.
    pub const fn dst(&self) -> NodeId {
        self.dst
    }
}

/// An immutable NoC topology graph.
///
/// Construct one with [`TopologyBuilder`] or the mesh convenience
/// [`crate::MeshBuilder`].
///
/// ```
/// use noc_topology::{TopologyBuilder};
///
/// # fn main() -> Result<(), noc_topology::TopologyError> {
/// let mut b = TopologyBuilder::new();
/// let s0 = b.add_switch(0, 0);
/// let s1 = b.add_switch(1, 0);
/// let ni = b.add_ni(s0)?;
/// b.connect_bidir(s0, s1)?;
/// let topo = b.build();
/// assert_eq!(topo.switch_count(), 2);
/// assert_eq!(topo.ni_count(), 1);
/// assert_eq!(topo.link_count(), 4); // s0<->s1 and s0<->ni
/// assert_eq!(topo.ni_switch(ni), Some(s0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing link ids per node.
    out_adj: Vec<Vec<LinkId>>,
    /// Incoming link ids per node.
    in_adj: Vec<Vec<LinkId>>,
    switches: Vec<NodeId>,
    nis: Vec<NodeId>,
}

impl Topology {
    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of nodes (switches + NIs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Ids of all switches, in insertion order.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// Ids of all NIs, in insertion order.
    pub fn nis(&self) -> &[NodeId] {
        &self.nis
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of NIs.
    pub fn ni_count(&self) -> usize {
        self.nis.len()
    }

    /// Outgoing links of `node`.
    pub fn outgoing(&self, node: NodeId) -> &[LinkId] {
        &self.out_adj[node.index()]
    }

    /// Incoming links of `node`.
    pub fn incoming(&self, node: NodeId) -> &[LinkId] {
        &self.in_adj[node.index()]
    }

    /// The switch an NI hangs off, or `None` if `node` is not an NI.
    pub fn ni_switch(&self, node: NodeId) -> Option<NodeId> {
        match self.node(node).kind() {
            NodeKind::Ni { switch, .. } => Some(switch),
            NodeKind::Switch { .. } => None,
        }
    }

    /// The number of ports of a switch: max(in-degree, out-degree).
    ///
    /// Port count drives the crossbar term of the area model.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a switch node.
    pub fn switch_ports(&self, switch: NodeId) -> usize {
        assert!(
            self.node(switch).is_switch(),
            "switch_ports called on non-switch node {switch}"
        );
        self.out_adj[switch.index()]
            .len()
            .max(self.in_adj[switch.index()].len())
    }

    /// Grid coordinates of a switch (meshes set these; irregular topologies
    /// may reuse them as labels).
    pub fn switch_coords(&self, switch: NodeId) -> Option<(u16, u16)> {
        match self.node(switch).kind() {
            NodeKind::Switch { x, y } => Some((x, y)),
            NodeKind::Ni { .. } => None,
        }
    }

    /// Finds the directed link from `src` to `dst`, if one exists.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|&l| self.link(l).dst() == dst)
    }

    /// Minimum hop distance (in links) between two nodes via BFS, or `None`
    /// if unreachable. Used for lower-bounding path latencies.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[from.index()] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            let d = dist[n.index()];
            for &l in self.outgoing(n) {
                let m = self.link(l).dst();
                if dist[m.index()] == usize::MAX {
                    dist[m.index()] = d + 1;
                    if m == to {
                        return Some(d + 1);
                    }
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Checks that every node can reach every other node (strong
    /// connectivity), which valid NoC topologies must satisfy.
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let start = self.nodes[0].id();
        self.reachable_count_from(start) == self.node_count()
            && self.reverse_reachable_count_from(start) == self.node_count()
    }

    fn reachable_count_from(&self, start: NodeId) -> usize {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            for &l in self.outgoing(n) {
                let m = self.link(l).dst();
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    stack.push(m);
                }
            }
        }
        count
    }

    fn reverse_reachable_count_from(&self, start: NodeId) -> usize {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            for &l in self.incoming(n) {
                let m = self.link(l).src();
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    stack.push(m);
                }
            }
        }
        count
    }
}

/// Incremental builder for [`Topology`].
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    out_adj: Vec<Vec<LinkId>>,
    in_adj: Vec<Vec<LinkId>>,
    switches: Vec<NodeId>,
    nis: Vec<NodeId>,
    ni_counts: Vec<u16>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a switch at grid coordinates `(x, y)` and returns its id.
    pub fn add_switch(&mut self, x: u16, y: u16) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind: NodeKind::Switch { x, y },
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.switches.push(id);
        self.ni_counts.push(0);
        id
    }

    /// Adds an NI attached to `switch` (with bidirectional links to it) and
    /// returns the NI's id.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotASwitch`] if `switch` is not a switch.
    pub fn add_ni(&mut self, switch: NodeId) -> Result<NodeId, TopologyError> {
        let sw_pos = self
            .switches
            .iter()
            .position(|&s| s == switch)
            .ok_or(TopologyError::NotASwitch { node: switch })?;
        let local_index = self.ni_counts[sw_pos];
        self.ni_counts[sw_pos] += 1;
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind: NodeKind::Ni {
                switch,
                local_index,
            },
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.nis.push(id);
        self.connect_bidir(switch, id)?;
        Ok(id)
    }

    /// Adds a directed link `src -> dst`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateLink`] if the link already exists,
    /// or [`TopologyError::SelfLoop`] if `src == dst`.
    pub fn connect(&mut self, src: NodeId, dst: NodeId) -> Result<LinkId, TopologyError> {
        if src == dst {
            return Err(TopologyError::SelfLoop { node: src });
        }
        if self.out_adj[src.index()]
            .iter()
            .any(|&l| self.links[l.index()].dst() == dst)
        {
            return Err(TopologyError::DuplicateLink { src, dst });
        }
        let id = LinkId::new(self.links.len());
        self.links.push(Link { id, src, dst });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        Ok(id)
    }

    /// Adds a pair of opposite directed links between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TopologyBuilder::connect`], for either direction.
    pub fn connect_bidir(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> Result<(LinkId, LinkId), TopologyError> {
        let ab = self.connect(a, b)?;
        let ba = self.connect(b, a)?;
        Ok((ab, ba))
    }

    /// Finishes the build.
    pub fn build(self) -> Topology {
        Topology {
            nodes: self.nodes,
            links: self.links,
            out_adj: self.out_adj,
            in_adj: self.in_adj,
            switches: self.switches,
            nis: self.nis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch_topo() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(0, 0);
        let s1 = b.add_switch(1, 0);
        let n0 = b.add_ni(s0).unwrap();
        let n1 = b.add_ni(s1).unwrap();
        b.connect_bidir(s0, s1).unwrap();
        (b.build(), s0, s1, n0, n1)
    }

    #[test]
    fn builder_constructs_expected_shape() {
        let (t, s0, s1, n0, n1) = two_switch_topo();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.switch_count(), 2);
        assert_eq!(t.ni_count(), 2);
        // 2 links per NI attachment + 2 inter-switch links.
        assert_eq!(t.link_count(), 6);
        assert_eq!(t.ni_switch(n0), Some(s0));
        assert_eq!(t.ni_switch(n1), Some(s1));
        assert_eq!(t.ni_switch(s0), None);
        assert!(t.node(s0).is_switch());
        assert!(t.node(n0).is_ni());
    }

    #[test]
    fn adjacency_is_consistent() {
        let (t, s0, s1, n0, _n1) = two_switch_topo();
        // s0 connects out to n0 and s1.
        let outs: Vec<NodeId> = t.outgoing(s0).iter().map(|&l| t.link(l).dst()).collect();
        assert!(outs.contains(&n0) && outs.contains(&s1));
        assert_eq!(t.outgoing(s0).len(), 2);
        assert_eq!(t.incoming(s0).len(), 2);
        // NI has exactly one in and one out.
        assert_eq!(t.outgoing(n0).len(), 1);
        assert_eq!(t.incoming(n0).len(), 1);
    }

    #[test]
    fn link_between_finds_directed_links() {
        let (t, s0, s1, n0, n1) = two_switch_topo();
        assert!(t.link_between(s0, s1).is_some());
        assert!(t.link_between(s1, s0).is_some());
        assert!(t.link_between(n0, s0).is_some());
        assert!(t.link_between(n0, n1).is_none());
    }

    #[test]
    fn hop_distance_bfs() {
        let (t, s0, _s1, n0, n1) = two_switch_topo();
        assert_eq!(t.hop_distance(n0, n0), Some(0));
        assert_eq!(t.hop_distance(n0, s0), Some(1));
        // n0 -> s0 -> s1 -> n1
        assert_eq!(t.hop_distance(n0, n1), Some(3));
    }

    #[test]
    fn hop_distance_unreachable() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(0, 0);
        let s1 = b.add_switch(1, 0);
        // One-directional only: s0 -> s1.
        b.connect(s0, s1).unwrap();
        let t = b.build();
        assert_eq!(t.hop_distance(s0, s1), Some(1));
        assert_eq!(t.hop_distance(s1, s0), None);
        assert!(!t.is_strongly_connected());
    }

    #[test]
    fn strongly_connected_mesh_like() {
        let (t, ..) = two_switch_topo();
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn switch_ports_counts_degree() {
        let (t, s0, ..) = two_switch_topo();
        // s0: out to {n0, s1}, in from {n0, s1} -> 2 ports.
        assert_eq!(t.switch_ports(s0), 2);
    }

    #[test]
    #[should_panic(expected = "non-switch")]
    fn switch_ports_panics_on_ni() {
        let (t, _, _, n0, _) = two_switch_topo();
        let _ = t.switch_ports(n0);
    }

    #[test]
    fn builder_rejects_duplicates_and_self_loops() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(0, 0);
        let s1 = b.add_switch(1, 0);
        b.connect(s0, s1).unwrap();
        assert!(matches!(
            b.connect(s0, s1),
            Err(TopologyError::DuplicateLink { .. })
        ));
        assert!(matches!(
            b.connect(s0, s0),
            Err(TopologyError::SelfLoop { .. })
        ));
    }

    #[test]
    fn add_ni_rejects_non_switch_parent() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(0, 0);
        let ni = b.add_ni(s0).unwrap();
        assert!(matches!(
            b.add_ni(ni),
            Err(TopologyError::NotASwitch { .. })
        ));
    }

    #[test]
    fn ids_display() {
        let (t, s0, ..) = two_switch_topo();
        assert_eq!(format!("{}", s0), "n0");
        assert_eq!(format!("{}", t.links()[0].id()), "l0");
    }
}
