//! Chip topologies and hop distances.

use std::fmt;

/// Identifier of one core on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// The physical arrangement of cores, which determines hop distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A `width × height` 2-D mesh with XY routing.
    Mesh {
        /// Number of columns.
        width: usize,
        /// Number of rows.
        height: usize,
    },
    /// An ideal crossbar: every pair of distinct cores is one hop apart.
    Crossbar {
        /// Number of cores.
        size: usize,
    },
}

impl Topology {
    /// A `width × height` mesh.
    pub fn mesh(width: usize, height: usize) -> Topology {
        Topology::Mesh { width, height }
    }

    /// An ideal crossbar of `size` cores.
    pub fn crossbar(size: usize) -> Topology {
        Topology::Crossbar { size }
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        match *self {
            Topology::Mesh { width, height } => width * height,
            Topology::Crossbar { size } => size,
        }
    }

    /// The largest hop count between two of its cores: `(width − 1) +
    /// (height − 1)` on a mesh, 1 on a crossbar of two or more cores.
    pub fn diameter(&self) -> usize {
        match *self {
            Topology::Mesh { width, height } => width.saturating_sub(1) + height.saturating_sub(1),
            Topology::Crossbar { size } => usize::from(size > 1),
        }
    }

    /// The (x, y) coordinates of a core in a mesh; cores are numbered row
    /// by row. On the crossbar, y is always 0.
    pub(crate) fn coordinates(&self, core: CoreId) -> (usize, usize) {
        match *self {
            Topology::Mesh { width, .. } => (core.0 % width, core.0 / width),
            _ => (core.0, 0),
        }
    }

    /// Number of router hops between two cores (0 when they are equal).
    pub(crate) fn hops(&self, from: CoreId, to: CoreId) -> usize {
        if from == to {
            return 0;
        }
        match *self {
            Topology::Mesh { .. } => {
                let (ax, ay) = self.coordinates(from);
                let (bx, by) = self.coordinates(to);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            Topology::Crossbar { .. } => 1,
        }
    }

    /// Whether `core` is a valid identifier for this topology.
    pub(crate) fn contains(&self, core: CoreId) -> bool {
        core.0 < self.num_cores()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Mesh { width, height } => write!(f, "{width}x{height} mesh"),
            Topology::Crossbar { size } => write!(f, "{size}-core crossbar"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mesh_coordinates_and_hops() {
        let t = Topology::mesh(4, 4);
        assert_eq!(t.num_cores(), 16);
        assert_eq!(t.coordinates(CoreId(0)), (0, 0));
        assert_eq!(t.coordinates(CoreId(5)), (1, 1));
        assert_eq!(t.coordinates(CoreId(15)), (3, 3));
        assert_eq!(t.hops(CoreId(0), CoreId(0)), 0);
        assert_eq!(t.hops(CoreId(0), CoreId(3)), 3);
        assert_eq!(t.hops(CoreId(0), CoreId(15)), 6);
        assert_eq!(t.hops(CoreId(5), CoreId(6)), 1);
    }

    #[test]
    fn crossbar_is_single_hop() {
        let t = Topology::crossbar(64);
        assert_eq!(t.hops(CoreId(3), CoreId(60)), 1);
        assert_eq!(t.hops(CoreId(3), CoreId(3)), 0);
    }

    #[test]
    fn the_diameter_is_the_farthest_pair() {
        assert_eq!(Topology::mesh(4, 3).diameter(), 5);
        assert_eq!(Topology::mesh(1, 1).diameter(), 0);
        assert_eq!(Topology::crossbar(64).diameter(), 1);
        assert_eq!(Topology::crossbar(1).diameter(), 0);
    }

    #[test]
    fn membership_and_enumeration() {
        let t = Topology::mesh(3, 2);
        assert!(t.contains(CoreId(5)));
        assert!(!t.contains(CoreId(6)));
        assert_eq!(t.to_string(), "3x2 mesh");
    }

    proptest! {
        #[test]
        fn hops_are_a_metric(w in 1usize..8, h in 1usize..8, a in 0usize..64, b in 0usize..64, c in 0usize..64) {
            let t = Topology::mesh(w, h);
            let n = t.num_cores();
            let (a, b, c) = (CoreId(a % n), CoreId(b % n), CoreId(c % n));
            // Symmetry, identity, triangle inequality.
            prop_assert_eq!(t.hops(a, b), t.hops(b, a));
            prop_assert_eq!(t.hops(a, a), 0);
            prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
            prop_assert!(t.hops(a, b) <= t.diameter());
        }
    }
}
