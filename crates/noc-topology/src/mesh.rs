//! Regular 2-D mesh topologies.
//!
//! The paper's Algorithm 2 grows a mesh from one switch until a valid
//! mapping exists ("increase the topology size and go to step 1"); this
//! module provides the mesh generator for that outer loop, plus the size
//! enumeration order used there (1×1, 1×2, 2×2, 2×3, 3×3, …).

use crate::error::TopologyError;
use crate::graph::{NodeId, Topology, TopologyBuilder};

/// A built 2-D mesh: the [`Topology`] plus its grid metadata.
///
/// ```
/// use noc_topology::MeshBuilder;
///
/// # fn main() -> Result<(), noc_topology::TopologyError> {
/// let mesh = MeshBuilder::new(3, 2).nis_per_switch(2).build()?;
/// assert_eq!(mesh.rows(), 3);
/// assert_eq!(mesh.cols(), 2);
/// assert_eq!(mesh.topology().switch_count(), 6);
/// assert_eq!(mesh.topology().ni_count(), 12);
/// // XY hop distance between opposite corner switches: (3-1)+(2-1) = 3.
/// let a = mesh.switch_at(0, 0);
/// let b = mesh.switch_at(2, 1);
/// assert_eq!(mesh.topology().hop_distance(a, b), Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    rows: u16,
    cols: u16,
    nis_per_switch: u16,
    topology: Topology,
    /// switch ids in row-major order
    switch_grid: Vec<NodeId>,
}

impl Mesh {
    /// Number of rows of switches.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of columns of switches.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// NIs attached to every switch.
    pub fn nis_per_switch(&self) -> u16 {
        self.nis_per_switch
    }

    /// The underlying topology graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Consumes the mesh, returning the topology.
    pub fn into_topology(self) -> Topology {
        self.topology
    }

    /// The switch at grid position (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn switch_at(&self, row: u16, col: u16) -> NodeId {
        assert!(
            row < self.rows && col < self.cols,
            "mesh coordinates out of range"
        );
        self.switch_grid[row as usize * self.cols as usize + col as usize]
    }

    /// Total number of switches (`rows × cols`).
    pub fn switch_count(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// A short label like `"3x2"` for reports.
    pub fn dims_label(&self) -> String {
        format!("{}x{}", self.rows, self.cols)
    }
}

/// Builder for [`Mesh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshBuilder {
    rows: u16,
    cols: u16,
    nis_per_switch: u16,
    torus: bool,
}

impl MeshBuilder {
    /// Starts a mesh of `rows × cols` switches with one NI per switch.
    pub fn new(rows: u16, cols: u16) -> Self {
        MeshBuilder {
            rows,
            cols,
            nis_per_switch: 1,
            torus: false,
        }
    }

    /// Sets how many NIs hang off each switch (each NI hosts one core).
    #[must_use]
    pub fn nis_per_switch(mut self, nis: u16) -> Self {
        self.nis_per_switch = nis;
        self
    }

    /// Adds wraparound links, turning the mesh into a 2-D torus.
    /// Wraparound is only created along dimensions of length ≥ 3 (for
    /// length 2 the links already exist; for length 1 they would be
    /// self-loops).
    #[must_use]
    pub fn torus(mut self, enabled: bool) -> Self {
        self.torus = enabled;
        self
    }

    /// Builds the mesh.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyDimension`] if any dimension or the NI
    /// count is zero.
    pub fn build(self) -> Result<Mesh, TopologyError> {
        if self.rows == 0 {
            return Err(TopologyError::EmptyDimension { what: "mesh rows" });
        }
        if self.cols == 0 {
            return Err(TopologyError::EmptyDimension { what: "mesh cols" });
        }
        if self.nis_per_switch == 0 {
            return Err(TopologyError::EmptyDimension {
                what: "NIs per switch",
            });
        }
        let mut b = TopologyBuilder::new();
        let mut grid = Vec::with_capacity(self.rows as usize * self.cols as usize);
        for r in 0..self.rows {
            for c in 0..self.cols {
                grid.push(b.add_switch(c, r));
            }
        }
        let at = |r: u16, c: u16| grid[r as usize * self.cols as usize + c as usize];
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c + 1 < self.cols {
                    b.connect_bidir(at(r, c), at(r, c + 1))?;
                }
                if r + 1 < self.rows {
                    b.connect_bidir(at(r, c), at(r + 1, c))?;
                }
            }
        }
        if self.torus {
            if self.cols >= 3 {
                for r in 0..self.rows {
                    b.connect_bidir(at(r, self.cols - 1), at(r, 0))?;
                }
            }
            if self.rows >= 3 {
                for c in 0..self.cols {
                    b.connect_bidir(at(self.rows - 1, c), at(0, c))?;
                }
            }
        }
        for &sw in &grid {
            for _ in 0..self.nis_per_switch {
                b.add_ni(sw)?;
            }
        }
        Ok(Mesh {
            rows: self.rows,
            cols: self.cols,
            nis_per_switch: self.nis_per_switch,
            topology: b.build(),
            switch_grid: grid,
        })
    }
}

/// Enumerates near-square mesh dimensions in non-decreasing switch count:
/// (1,1), (1,2), (2,2), (2,3), (3,3), (3,4), …
///
/// This is the growth order of Algorithm 2's outer loop. The iterator is
/// infinite; cap it with [`Iterator::take`] or a size bound.
///
/// ```
/// let sizes: Vec<(u16, u16)> = noc_topology::mesh::mesh_sizes().take(5).collect();
/// assert_eq!(sizes, vec![(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]);
/// ```
pub fn mesh_sizes() -> impl Iterator<Item = (u16, u16)> {
    // i = 0, 1, 2, ... -> (1,1), (1,2), (2,2), (2,3), (3,3), ...
    (0u32..).map(|i| ((i / 2 + 1) as u16, ((i + 1) / 2 + 1) as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_counts() {
        let mesh = MeshBuilder::new(4, 4).nis_per_switch(3).build().unwrap();
        let t = mesh.topology();
        assert_eq!(t.switch_count(), 16);
        assert_eq!(t.ni_count(), 48);
        // Inter-switch links: 2 * (rows*(cols-1) + cols*(rows-1)) = 2*24 = 48.
        // NI links: 2 * 48 = 96.
        assert_eq!(t.link_count(), 48 + 96);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn single_switch_mesh() {
        let mesh = MeshBuilder::new(1, 1).nis_per_switch(20).build().unwrap();
        let t = mesh.topology();
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.ni_count(), 20);
        assert_eq!(t.switch_ports(t.switches()[0]), 20);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn xy_distances_match_manhattan() {
        let mesh = MeshBuilder::new(3, 3).build().unwrap();
        let t = mesh.topology();
        for r0 in 0..3u16 {
            for c0 in 0..3u16 {
                for r1 in 0..3u16 {
                    for c1 in 0..3u16 {
                        let d = t
                            .hop_distance(mesh.switch_at(r0, c0), mesh.switch_at(r1, c1))
                            .unwrap();
                        let manhattan = (r0 as i32 - r1 as i32).unsigned_abs() as usize
                            + (c0 as i32 - c1 as i32).unsigned_abs() as usize;
                        assert_eq!(d, manhattan);
                    }
                }
            }
        }
    }

    #[test]
    fn corner_and_center_ports() {
        let mesh = MeshBuilder::new(3, 3).nis_per_switch(2).build().unwrap();
        let t = mesh.topology();
        // Corner: 2 mesh neighbours + 2 NIs = 4 ports.
        assert_eq!(t.switch_ports(mesh.switch_at(0, 0)), 4);
        // Center: 4 mesh neighbours + 2 NIs = 6 ports.
        assert_eq!(t.switch_ports(mesh.switch_at(1, 1)), 6);
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(MeshBuilder::new(0, 3).build().is_err());
        assert!(MeshBuilder::new(3, 0).build().is_err());
        assert!(MeshBuilder::new(3, 3).nis_per_switch(0).build().is_err());
    }

    #[test]
    fn mesh_sizes_are_non_decreasing_and_near_square() {
        let sizes: Vec<(u16, u16)> = mesh_sizes().take(12).collect();
        assert_eq!(
            sizes,
            vec![
                (1, 1),
                (1, 2),
                (2, 2),
                (2, 3),
                (3, 3),
                (3, 4),
                (4, 4),
                (4, 5),
                (5, 5),
                (5, 6),
                (6, 6),
                (6, 7)
            ]
        );
        let mut prev = 0;
        for (r, c) in sizes {
            let n = r as usize * c as usize;
            assert!(n >= prev);
            assert!(c as i32 - r as i32 <= 1);
            prev = n;
        }
    }

    #[test]
    fn dims_label() {
        let mesh = MeshBuilder::new(2, 3).build().unwrap();
        assert_eq!(mesh.dims_label(), "2x3");
    }

    #[test]
    fn torus_wraps_both_dimensions() {
        let mesh = MeshBuilder::new(4, 4).torus(true).build().unwrap();
        let t = mesh.topology();
        // Mesh links 2*(4*3+4*3)=48 + wraparound 2*(4+4)=16.
        assert_eq!(t.link_count() - 2 * t.ni_count(), 48 + 16);
        // Opposite edge switches are now adjacent.
        assert_eq!(
            t.hop_distance(mesh.switch_at(0, 0), mesh.switch_at(0, 3)),
            Some(1)
        );
        assert_eq!(
            t.hop_distance(mesh.switch_at(0, 0), mesh.switch_at(3, 0)),
            Some(1)
        );
        // Every switch has degree 4 + NIs.
        for &sw in t.switches() {
            assert_eq!(t.switch_ports(sw), 4 + 1);
        }
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn torus_skips_short_dimensions() {
        // 2-long dimension: wraparound would duplicate the existing link.
        let small = MeshBuilder::new(2, 3).torus(true).build().unwrap();
        let t = small.topology();
        // Mesh links 2*(2*2+3*1)=14 + column wrap only (cols=3): 2*2=4.
        assert_eq!(t.link_count() - 2 * t.ni_count(), 14 + 4);
        // 1-long dimension: nothing to wrap.
        let line = MeshBuilder::new(1, 4).torus(true).build().unwrap();
        let lt = line.topology();
        assert_eq!(lt.link_count() - 2 * lt.ni_count(), 6 + 2);
        assert!(lt.is_strongly_connected());
    }

    #[test]
    fn torus_shortens_worst_case_distance() {
        let mesh = MeshBuilder::new(5, 5).build().unwrap();
        let torus = MeshBuilder::new(5, 5).torus(true).build().unwrap();
        let d_mesh = mesh
            .topology()
            .hop_distance(mesh.switch_at(0, 0), mesh.switch_at(4, 4))
            .unwrap();
        let d_torus = torus
            .topology()
            .hop_distance(torus.switch_at(0, 0), torus.switch_at(4, 4))
            .unwrap();
        assert_eq!(d_mesh, 8);
        assert_eq!(d_torus, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn switch_at_bounds() {
        let mesh = MeshBuilder::new(2, 2).build().unwrap();
        let _ = mesh.switch_at(2, 0);
    }
}
