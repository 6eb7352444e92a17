//! Fault model: failed links and NIs composed onto a [`Topology`].
//!
//! A [`FaultSet`] records which directed links and which NIs have
//! failed, bit-mask backed like the TDMA `SlotMask` so membership
//! tests are O(1) and the set is cheap to clone. It is *composable*:
//! the topology itself stays immutable, and [`Topology::degraded`]
//! yields a [`DegradedView`] that answers reachability questions over
//! the surviving resources only. Unreachable pairs surface as a typed
//! [`PathError`] — never a panic — so callers can degrade gracefully.

use std::collections::{BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

use crate::graph::{LinkId, NodeId, Topology};

fn word_set(words: &mut Vec<u64>, idx: usize) -> bool {
    let w = idx / 64;
    if words.len() <= w {
        words.resize(w + 1, 0);
    }
    let bit = 1u64 << (idx % 64);
    let newly = words[w] & bit == 0;
    words[w] |= bit;
    newly
}

fn word_get(words: &[u64], idx: usize) -> bool {
    words
        .get(idx / 64)
        .map_or(false, |w| w & (1u64 << (idx % 64)) != 0)
}

/// A set of failed resources: directed links and NIs.
///
/// Failing an NI implicitly fails every link incident to it (the NI
/// can neither send nor receive), which [`DegradedView::link_usable`]
/// and [`FaultSet::banned_links`] account for. Fault sets only grow —
/// repairs are modeled by building a new set — so two sets compare
/// equal iff they name the same failed resources.
///
/// ```
/// use noc_topology::{FaultSet, MeshBuilder};
///
/// # fn main() -> Result<(), noc_topology::TopologyError> {
/// let mesh = MeshBuilder::new(2, 2).build()?;
/// let topo = mesh.topology();
/// let mut faults = FaultSet::default();
/// faults.fail_link(topo.links()[0].id());
/// assert_eq!(faults.failed_link_count(), 1);
/// assert!(!faults.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    link_words: Vec<u64>,
    ni_words: Vec<u64>,
    links_failed: usize,
    nis_failed: usize,
}

impl FaultSet {
    /// Creates an empty fault set (every resource healthy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a directed link as failed. Returns `true` if it was not
    /// already failed.
    pub fn fail_link(&mut self, link: LinkId) -> bool {
        let newly = word_set(&mut self.link_words, link.index());
        if newly {
            self.links_failed += 1;
        }
        newly
    }

    /// Marks an NI as failed. Returns `true` if it was not already
    /// failed.
    pub fn fail_ni(&mut self, ni: NodeId) -> bool {
        let newly = word_set(&mut self.ni_words, ni.index());
        if newly {
            self.nis_failed += 1;
        }
        newly
    }

    /// Whether the directed link has failed (explicitly; links killed
    /// transitively by a failed NI are reported by
    /// [`DegradedView::link_usable`]).
    pub fn link_failed(&self, link: LinkId) -> bool {
        word_get(&self.link_words, link.index())
    }

    /// Whether the NI has failed.
    pub fn ni_failed(&self, ni: NodeId) -> bool {
        word_get(&self.ni_words, ni.index())
    }

    /// `true` when no resource has failed.
    pub fn is_empty(&self) -> bool {
        self.links_failed == 0 && self.nis_failed == 0
    }

    /// Number of explicitly failed links.
    pub fn failed_link_count(&self) -> usize {
        self.links_failed
    }

    /// Number of failed NIs.
    pub fn failed_ni_count(&self) -> usize {
        self.nis_failed
    }

    /// Indices of explicitly failed links, ascending.
    pub fn failed_link_indices(&self) -> Vec<usize> {
        bit_indices(&self.link_words)
    }

    /// Indices of failed NIs (node ids), ascending.
    pub fn failed_ni_indices(&self) -> Vec<usize> {
        bit_indices(&self.ni_words)
    }

    /// Every link of `topo` that is unusable under this fault set:
    /// explicitly failed links plus all links incident to a failed NI.
    pub fn banned_links(&self, topo: &Topology) -> BTreeSet<LinkId> {
        let mut banned = BTreeSet::new();
        for link in topo.links() {
            if self.link_failed(link.id())
                || self.ni_failed(link.src())
                || self.ni_failed(link.dst())
            {
                banned.insert(link.id());
            }
        }
        banned
    }
}

fn bit_indices(words: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            out.push(w * 64 + b);
            bits &= bits - 1;
        }
    }
    out
}

/// Why no path exists between two nodes of a degraded topology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PathError {
    /// An endpoint of the query has itself failed.
    NodeFailed {
        /// The failed endpoint.
        node: NodeId,
    },
    /// Both endpoints are alive but every route between them crosses
    /// a failed resource.
    Unreachable {
        /// Query source.
        src: NodeId,
        /// Query destination.
        dst: NodeId,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::NodeFailed { node } => {
                write!(f, "node {node} has failed")
            }
            PathError::Unreachable { src, dst } => {
                write!(f, "no surviving path from {src} to {dst}")
            }
        }
    }
}

impl Error for PathError {}

/// A [`Topology`] seen through a [`FaultSet`]: the surviving graph.
///
/// Borrowed, not copied — build one with [`Topology::degraded`].
#[derive(Debug, Clone, Copy)]
pub struct DegradedView<'a> {
    topo: &'a Topology,
    faults: &'a FaultSet,
}

impl<'a> DegradedView<'a> {
    /// The underlying (undegraded) topology.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// The fault set this view applies.
    pub fn faults(&self) -> &'a FaultSet {
        self.faults
    }

    /// Whether the link survives: neither explicitly failed nor
    /// incident to a failed NI.
    pub fn link_usable(&self, link: LinkId) -> bool {
        if self.faults.link_failed(link) {
            return false;
        }
        let l = self.topo.link(link);
        !self.faults.ni_failed(l.src()) && !self.faults.ni_failed(l.dst())
    }

    /// Whether the node survives (switches never fail in this model;
    /// only NIs and links do).
    pub fn node_usable(&self, node: NodeId) -> bool {
        !self.faults.ni_failed(node)
    }

    /// The surviving NIs, in topology order.
    pub fn usable_nis(&self) -> Vec<NodeId> {
        self.topo
            .nis()
            .iter()
            .copied()
            .filter(|&ni| self.node_usable(ni))
            .collect()
    }

    /// Minimum hop distance over surviving links, as a typed result.
    ///
    /// # Errors
    ///
    /// [`PathError::NodeFailed`] when either endpoint has failed,
    /// [`PathError::Unreachable`] when no surviving path exists.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Result<usize, PathError> {
        if !self.node_usable(from) {
            return Err(PathError::NodeFailed { node: from });
        }
        if !self.node_usable(to) {
            return Err(PathError::NodeFailed { node: to });
        }
        if from == to {
            return Ok(0);
        }
        let mut dist = vec![usize::MAX; self.topo.node_count()];
        dist[from.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            let d = dist[n.index()];
            for &l in self.topo.outgoing(n) {
                if !self.link_usable(l) {
                    continue;
                }
                let m = self.topo.link(l).dst();
                if dist[m.index()] == usize::MAX {
                    dist[m.index()] = d + 1;
                    if m == to {
                        return Ok(d + 1);
                    }
                    queue.push_back(m);
                }
            }
        }
        Err(PathError::Unreachable { src: from, dst: to })
    }

    /// Minimum hop distance over surviving links from `from` to every
    /// node, indexed by node id — one BFS where [`Self::hop_distance`]
    /// runs one per target. An entry is `None` exactly where
    /// `hop_distance(from, node)` errs: the node is unreachable or has
    /// failed, or `from` itself has failed (then every entry is `None`).
    pub fn hop_distances_from(&self, from: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.topo.node_count()];
        if !self.node_usable(from) {
            return dist;
        }
        dist[from.index()] = Some(0);
        let mut queue = VecDeque::from([(from, 0)]);
        while let Some((n, d)) = queue.pop_front() {
            for &l in self.topo.outgoing(n) {
                if !self.link_usable(l) {
                    continue;
                }
                let m = self.topo.link(l).dst();
                if dist[m.index()].is_none() {
                    dist[m.index()] = Some(d + 1);
                    queue.push_back((m, d + 1));
                }
            }
        }
        dist
    }
}

impl Topology {
    /// Views this topology through a fault set.
    pub fn degraded<'a>(&'a self, faults: &'a FaultSet) -> DegradedView<'a> {
        DegradedView { topo: self, faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MeshBuilder;

    fn mesh_2x2() -> Topology {
        MeshBuilder::new(2, 2)
            .nis_per_switch(1)
            .build()
            .unwrap()
            .topology()
            .clone()
    }

    #[test]
    fn empty_set_degrades_nothing() {
        let topo = mesh_2x2();
        let faults = FaultSet::default();
        let view = topo.degraded(&faults);
        assert!(faults.is_empty());
        assert!(faults.banned_links(&topo).is_empty());
        assert_eq!(view.usable_nis(), topo.nis().to_vec());
        for link in topo.links() {
            assert!(view.link_usable(link.id()));
        }
        let (a, b) = (topo.nis()[0], topo.nis()[3]);
        assert_eq!(
            view.hop_distance(a, b),
            Ok(topo.hop_distance(a, b).unwrap())
        );
    }

    #[test]
    fn failed_link_is_banned_and_idempotent() {
        let topo = mesh_2x2();
        let mut faults = FaultSet::default();
        let l = topo.links()[5].id();
        assert!(faults.fail_link(l));
        assert!(!faults.fail_link(l));
        assert_eq!(faults.failed_link_count(), 1);
        assert!(faults.link_failed(l));
        assert_eq!(faults.failed_link_indices(), vec![l.index()]);
        let view = topo.degraded(&faults);
        assert!(!view.link_usable(l));
        assert!(faults.banned_links(&topo).contains(&l));
    }

    #[test]
    fn failed_ni_kills_incident_links() {
        let topo = mesh_2x2();
        let mut faults = FaultSet::default();
        let ni = topo.nis()[0];
        assert!(faults.fail_ni(ni));
        let view = topo.degraded(&faults);
        assert!(!view.node_usable(ni));
        for &l in topo.outgoing(ni).iter().chain(topo.incoming(ni)) {
            assert!(!view.link_usable(l));
            assert!(faults.banned_links(&topo).contains(&l));
        }
        assert_eq!(view.usable_nis().len(), topo.ni_count() - 1);
        let other = topo.nis()[1];
        assert_eq!(
            view.hop_distance(ni, other),
            Err(PathError::NodeFailed { node: ni })
        );
        assert_eq!(
            view.hop_distance(other, ni),
            Err(PathError::NodeFailed { node: ni })
        );
    }

    #[test]
    fn unreachable_is_typed_not_a_panic() {
        let topo = mesh_2x2();
        let src = topo.nis()[0];
        let dst = topo.nis()[3];
        let mut faults = FaultSet::default();
        // Sever the NI from its switch in the outbound direction.
        for &l in topo.outgoing(src) {
            faults.fail_link(l);
        }
        let view = topo.degraded(&faults);
        assert_eq!(
            view.hop_distance(src, dst),
            Err(PathError::Unreachable { src, dst })
        );
        // Inbound direction still works.
        assert!(view.hop_distance(dst, src).is_ok());
    }

    #[test]
    fn equality_tracks_contents_not_construction_order() {
        let topo = mesh_2x2();
        let (la, lb) = (topo.links()[1].id(), topo.links()[7].id());
        let mut f1 = FaultSet::default();
        f1.fail_link(la);
        f1.fail_link(lb);
        let mut f2 = FaultSet::default();
        f2.fail_link(lb);
        f2.fail_link(la);
        assert_eq!(f1, f2);
        f2.fail_ni(topo.nis()[2]);
        assert_ne!(f1, f2);
        assert_eq!(f2.failed_ni_indices(), vec![topo.nis()[2].index()]);
    }

    #[test]
    fn path_errors_display_lowercase() {
        let topo = mesh_2x2();
        let n = topo.nis()[0];
        let msg = PathError::NodeFailed { node: n }.to_string();
        assert!(!msg.ends_with('.'));
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<PathError>();
    }
}
