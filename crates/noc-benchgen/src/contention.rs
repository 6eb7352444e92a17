//! Multi-hop best-effort contention patterns.
//!
//! The mapping methodology reserves resources only for GT flows; how the
//! *leftover* capacity behaves under best-effort load depends on how BE
//! paths overlap on interior mesh links. This module synthesizes the
//! canonical overlap shapes as deterministic route sets (no RNG — the
//! patterns are pure functions of their dimensions):
//!
//! * [`chained_chain`] — a sliding window of equal-length flows along a
//!   1×N chain; consecutive flows share `hops − 1` interior links.
//! * [`funnel_chain`] — every flow targets the chain's last switch, so
//!   all of them squeeze through a shared trunk of `hops` links (a
//!   hot-spot sink, like a shared external memory).
//! * [`crossing_mesh`] — XY-routed diagonal flows on a 2-D mesh whose
//!   row-0 spans nest inside each other before fanning out down
//!   distinct columns.
//!
//! The routes are plain `(CoreId, CoreId, Vec<LinkId>)` triples, so the
//! crate stays independent of the simulator; `noc-sim`'s
//! `BestEffortFlow` (or GT `Connection`) wraps them directly. The
//! `be_burst` suite in `noc-flow` sweeps these patterns against the
//! traffic models of `noc-sim`.
//!
//! # Example
//!
//! ```
//! use noc_benchgen::contention::chained_chain;
//!
//! let (mesh, routes) = chained_chain(3, 4);
//! assert_eq!(mesh.cols(), 7); // 3 flows + 4 hops
//! assert_eq!(routes.len(), 3);
//! for r in &routes {
//!     // NI→switch, 4 switch hops, switch→NI.
//!     assert_eq!(r.path.len(), 6);
//! }
//! ```

use noc_topology::{LinkId, Mesh, MeshBuilder, NodeId};
use noc_usecase::spec::CoreId;

/// One source-routed best-effort route: endpoint cores (row-major switch
/// index on the generating mesh, one core per NI) plus the full NI→NI
/// link path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeRoute {
    /// Source core (hosted on the NI of the route's first switch).
    pub src: CoreId,
    /// Destination core (hosted on the NI of the route's last switch).
    pub dst: CoreId,
    /// Links from source NI to destination NI.
    pub path: Vec<LinkId>,
}

impl BeRoute {
    /// Switch-to-switch hops of the route. Note this deliberately does
    /// **not** count the NI ingress/egress links — unlike
    /// `nocmap::Route::hops()`, which returns the full link count; use
    /// `path.len()` when computing latency bounds over the whole
    /// pipeline.
    pub fn switch_hops(&self) -> usize {
        self.path.len() - 2
    }
}

fn ni_of(mesh: &Mesh, switch: NodeId) -> NodeId {
    mesh.topology()
        .nis()
        .iter()
        .copied()
        .find(|&ni| mesh.topology().ni_switch(ni) == Some(switch))
        .expect("every mesh switch carries at least one NI")
}

fn core_at(mesh: &Mesh, row: u16, col: u16) -> CoreId {
    CoreId::new(u32::from(row) * u32::from(mesh.cols()) + u32::from(col))
}

/// The XY route (column-first along the source row, then down the
/// destination column) between the NIs at two mesh coordinates,
/// including the NI ingress and egress links.
///
/// # Panics
///
/// Panics if either coordinate is out of range or the endpoints
/// coincide.
///
/// ```
/// use noc_topology::MeshBuilder;
/// use noc_benchgen::contention::route_between;
///
/// let mesh = MeshBuilder::new(2, 3).nis_per_switch(1).build().unwrap();
/// let r = route_between(&mesh, (0, 0), (1, 2));
/// // NI→switch + 2 horizontal + 1 vertical + switch→NI.
/// assert_eq!(r.path.len(), 5);
/// assert_eq!(r.switch_hops(), 3);
/// ```
pub fn route_between(mesh: &Mesh, from: (u16, u16), to: (u16, u16)) -> BeRoute {
    assert_ne!(from, to, "route endpoints must differ");
    let topo = mesh.topology();
    let src_switch = mesh.switch_at(from.0, from.1);
    let dst_switch = mesh.switch_at(to.0, to.1);
    let mut path = vec![topo
        .link_between(ni_of(mesh, src_switch), src_switch)
        .expect("NI is attached to its switch")];
    let mut at = from;
    while at != to {
        let next = if at.1 != to.1 {
            (at.0, if at.1 < to.1 { at.1 + 1 } else { at.1 - 1 })
        } else {
            (if at.0 < to.0 { at.0 + 1 } else { at.0 - 1 }, at.1)
        };
        path.push(
            topo.link_between(mesh.switch_at(at.0, at.1), mesh.switch_at(next.0, next.1))
                .expect("mesh neighbours are connected"),
        );
        at = next;
    }
    path.push(
        topo.link_between(dst_switch, ni_of(mesh, dst_switch))
            .expect("NI is attached to its switch"),
    );
    BeRoute {
        src: core_at(mesh, from.0, from.1),
        dst: core_at(mesh, to.0, to.1),
        path,
    }
}

fn chain(flows: usize, hops: usize) -> Mesh {
    assert!(flows >= 1, "need at least one flow");
    assert!(hops >= 1, "need at least one hop");
    let cols = flows + hops;
    assert!(cols <= usize::from(u16::MAX), "chain too long");
    MeshBuilder::new(1, cols as u16)
        .nis_per_switch(1)
        .build()
        .expect("non-degenerate chain dimensions")
}

/// `flows` equal-length flows sliding along a 1×(`flows` + `hops`)
/// chain: flow `i` runs from column `i` to column `i + hops`, so
/// consecutive flows share `hops − 1` interior links and the overlap
/// builds multi-hop FIFO contention everywhere in the middle of the
/// chain.
///
/// # Panics
///
/// Panics if `flows` or `hops` is zero.
pub fn chained_chain(flows: usize, hops: usize) -> (Mesh, Vec<BeRoute>) {
    let mesh = chain(flows, hops);
    let routes = (0..flows)
        .map(|i| route_between(&mesh, (0, i as u16), (0, (i + hops) as u16)))
        .collect();
    (mesh, routes)
}

/// `flows` flows on a 1×(`flows` + `hops`) chain that all target the
/// last switch: flow `i` starts at column `i`, and every flow traverses
/// the shared trunk of the final `hops` links — the hot-spot sink
/// pattern of a shared external memory.
///
/// # Panics
///
/// Panics if `flows` or `hops` is zero.
///
/// ```
/// use noc_benchgen::contention::funnel_chain;
///
/// let (_, routes) = funnel_chain(4, 2);
/// // The last two switch links are shared by all four flows.
/// let trunk: Vec<_> = routes[3].path[1..3].to_vec();
/// for r in &routes {
///     let tail = &r.path[r.path.len() - 3..r.path.len() - 1];
///     assert_eq!(tail, &trunk[..]);
/// }
/// ```
pub fn funnel_chain(flows: usize, hops: usize) -> (Mesh, Vec<BeRoute>) {
    let mesh = chain(flows, hops);
    let last = (flows + hops - 1) as u16;
    let routes = (0..flows)
        .map(|i| route_between(&mesh, (0, i as u16), (0, last)))
        .collect();
    (mesh, routes)
}

/// `pairs` XY-routed diagonal flows on a `rows` × (2·`pairs`) mesh: flow
/// `i` runs from the top of column `i` to the bottom of column
/// 2·`pairs`−1−`i`, so the row-0 horizontal spans nest inside each other
/// (the innermost links carry every flow) before the flows fan out down
/// distinct columns.
///
/// # Panics
///
/// Panics if `pairs` is zero or `rows < 2`.
pub fn crossing_mesh(pairs: usize, rows: u16) -> (Mesh, Vec<BeRoute>) {
    assert!(pairs >= 1, "need at least one pair");
    assert!(rows >= 2, "crossing flows need at least two rows");
    let cols = 2 * pairs;
    assert!(cols <= usize::from(u16::MAX), "mesh too wide");
    let mesh = MeshBuilder::new(rows, cols as u16)
        .nis_per_switch(1)
        .build()
        .expect("non-degenerate mesh dimensions");
    let routes = (0..pairs)
        .map(|i| route_between(&mesh, (0, i as u16), (rows - 1, (cols - 1 - i) as u16)))
        .collect();
    (mesh, routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Links in `r` that are switch-to-switch (the contention-relevant
    /// interior of the route).
    fn interior(r: &BeRoute) -> BTreeSet<LinkId> {
        r.path[1..r.path.len() - 1].iter().copied().collect()
    }

    fn assert_contiguous(mesh: &Mesh, r: &BeRoute) {
        let topo = mesh.topology();
        for pair in r.path.windows(2) {
            assert_eq!(
                topo.link(pair[0]).dst(),
                topo.link(pair[1]).src(),
                "links must chain head to tail"
            );
        }
        assert_eq!(
            topo.ni_switch(topo.link(r.path[0]).src()),
            Some(topo.link(r.path[0]).dst()),
            "route must start at an NI"
        );
    }

    #[test]
    fn chained_routes_are_contiguous_and_overlap() {
        let (mesh, routes) = chained_chain(3, 4);
        for r in &routes {
            assert_contiguous(&mesh, r);
            assert_eq!(r.switch_hops(), 4);
        }
        for pair in routes.windows(2) {
            let shared = interior(&pair[0]).intersection(&interior(&pair[1])).count();
            assert_eq!(shared, 3, "consecutive flows share hops-1 links");
        }
        // Non-adjacent flows overlap less.
        let far = interior(&routes[0])
            .intersection(&interior(&routes[2]))
            .count();
        assert_eq!(far, 2);
    }

    #[test]
    fn funnel_shares_the_full_trunk() {
        let (mesh, routes) = funnel_chain(4, 3);
        let trunk = interior(routes.last().unwrap());
        assert_eq!(trunk.len(), 3);
        for r in &routes {
            assert_contiguous(&mesh, r);
            assert!(
                trunk.is_subset(&interior(r)),
                "every flow must cross the whole trunk"
            );
        }
        assert_eq!(
            routes[0].switch_hops(),
            6,
            "farthest source walks the chain"
        );
    }

    #[test]
    fn crossing_spans_nest_on_row_zero() {
        let (mesh, routes) = crossing_mesh(3, 4);
        for r in &routes {
            assert_contiguous(&mesh, r);
        }
        // Flow 0 spans the whole row: its interior contains every other
        // flow's horizontal segment.
        let outer = interior(&routes[0]);
        let inner = interior(&routes[2]);
        let shared = outer.intersection(&inner).count();
        assert!(
            shared >= 1,
            "nested spans must share the innermost row links"
        );
        // Distinct destination columns: last switch links differ.
        let tails: BTreeSet<LinkId> = routes.iter().map(|r| r.path[r.path.len() - 2]).collect();
        assert_eq!(tails.len(), routes.len());
    }

    #[test]
    fn endpoint_cores_are_row_major_switch_indices() {
        let (_, routes) = chained_chain(2, 3);
        assert_eq!(routes[0].src, CoreId::new(0));
        assert_eq!(routes[0].dst, CoreId::new(3));
        assert_eq!(routes[1].src, CoreId::new(1));
        assert_eq!(routes[1].dst, CoreId::new(4));
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn degenerate_route_rejected() {
        let mesh = MeshBuilder::new(1, 2).nis_per_switch(1).build().unwrap();
        let _ = route_between(&mesh, (0, 0), (0, 0));
    }
}
