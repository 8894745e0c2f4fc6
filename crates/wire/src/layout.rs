//! Bus track layout: signals, shields and neighbor relations.
//!
//! §3: "A 1.5mm inter-repeater distance is used with shield wires inserted
//! after every 4 wires. Such a shield insertion interval (in terms of
//! wires) is a typical design practice for limiting noise and inductive
//! effects for wide buses."

use crate::coupling::NeighborKind;

/// Neighborhood of one signal wire: what sits on each adjacent and
/// second-adjacent track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WirePosition {
    /// This wire's bit index.
    pub bit: usize,
    /// Immediate left neighbor.
    pub left: NeighborKind,
    /// Immediate right neighbor.
    pub right: NeighborKind,
    /// Second neighbor to the left (screened to [`NeighborKind::Open`]
    /// when the immediate left neighbor is a shield).
    pub left2: NeighborKind,
    /// Second neighbor to the right (same screening rule).
    pub right2: NeighborKind,
}

/// Physical track ordering of an `n_bits` bus with a shield after every
/// `group_size` signals (and on both outer edges).
///
/// ```
/// use razorbus_wire::{BusLayout, NeighborKind};
/// let layout = BusLayout::paper_default();
/// assert_eq!(layout.n_bits(), 32);
/// assert_eq!(layout.n_shields(), 9);
/// // Bit 0 sits against the edge shield.
/// assert_eq!(layout.position(0).left, NeighborKind::Shield);
/// assert_eq!(layout.position(0).right, NeighborKind::Signal(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BusLayout {
    n_bits: usize,
    group_size: usize,
    positions: Vec<WirePosition>,
}

impl BusLayout {
    /// Creates a layout of `n_bits` signals with shields after every
    /// `group_size` signals and on both edges.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits == 0`, `group_size == 0`, or `n_bits` is not a
    /// multiple of `group_size`.
    #[must_use]
    pub fn new(n_bits: usize, group_size: usize) -> Self {
        assert!(n_bits > 0, "bus must have at least one bit");
        assert!(group_size > 0, "group size must be positive");
        assert_eq!(
            n_bits % group_size,
            0,
            "bit count must be a whole number of shield groups"
        );
        let positions = (0..n_bits)
            .map(|bit| Self::compute_position(bit, n_bits, group_size))
            .collect();
        Self {
            n_bits,
            group_size,
            positions,
        }
    }

    /// The paper's layout: 32 bits, shield after every 4 signals.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(32, 4)
    }

    fn compute_position(bit: usize, n_bits: usize, group_size: usize) -> WirePosition {
        let in_group = bit % group_size;
        let first_of_group = in_group == 0;
        let last_of_group = in_group == group_size - 1;

        let left = if first_of_group {
            NeighborKind::Shield
        } else {
            NeighborKind::Signal(bit - 1)
        };
        let right = if last_of_group {
            NeighborKind::Shield
        } else {
            NeighborKind::Signal(bit + 1)
        };

        // Second neighbors are screened by an intervening shield; across a
        // signal they reach the next track, which may itself be a shield.
        let left2 = match left {
            NeighborKind::Shield | NeighborKind::Open => NeighborKind::Open,
            NeighborKind::Signal(_) => {
                if in_group == 1 {
                    NeighborKind::Shield
                } else {
                    NeighborKind::Signal(bit - 2)
                }
            }
        };
        let right2 = match right {
            NeighborKind::Shield | NeighborKind::Open => NeighborKind::Open,
            NeighborKind::Signal(_) => {
                if in_group == group_size - 2 {
                    NeighborKind::Shield
                } else {
                    NeighborKind::Signal(bit + 2)
                }
            }
        };

        debug_assert!(bit < n_bits);
        WirePosition {
            bit,
            left,
            right,
            left2,
            right2,
        }
    }

    /// Number of signal bits.
    #[must_use]
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Mask selecting the bus's signal bits of a 32-bit trace word: a
    /// cycle toggles a wire exactly when `(prev ^ cur) & word_mask()`
    /// is non-zero.
    #[inline]
    #[must_use]
    pub fn word_mask(&self) -> u32 {
        if self.n_bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.n_bits) - 1
        }
    }

    /// Signals per shield group.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of shield tracks (between groups plus both edges).
    #[must_use]
    pub fn n_shields(&self) -> usize {
        self.n_bits / self.group_size + 1
    }

    /// Total routed tracks (signals + shields) — the routing-area cost.
    #[must_use]
    pub fn n_tracks(&self) -> usize {
        self.n_bits + self.n_shields()
    }

    /// Neighborhood of bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= n_bits`.
    #[must_use]
    pub fn position(&self, bit: usize) -> WirePosition {
        self.positions[bit]
    }

    /// Iterates all wire positions in bit order.
    pub fn positions(&self) -> impl ExactSizeIterator<Item = &WirePosition> {
        self.positions.iter()
    }
}

impl Default for BusLayout {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_counts() {
        let l = BusLayout::paper_default();
        assert_eq!(l.n_bits(), 32);
        assert_eq!(l.group_size(), 4);
        assert_eq!(l.n_shields(), 9);
        assert_eq!(l.n_tracks(), 41);
    }

    #[test]
    fn group_interior_and_edges() {
        let l = BusLayout::paper_default();
        // Bit 1: signal neighbors 0 and 2; second-left is the shield.
        let p1 = l.position(1);
        assert_eq!(p1.left, NeighborKind::Signal(0));
        assert_eq!(p1.right, NeighborKind::Signal(2));
        assert_eq!(p1.left2, NeighborKind::Shield);
        assert_eq!(p1.right2, NeighborKind::Signal(3));
        // Bit 3 closes its group against a shield.
        let p3 = l.position(3);
        assert_eq!(p3.right, NeighborKind::Shield);
        assert_eq!(p3.right2, NeighborKind::Open);
        assert_eq!(p3.left2, NeighborKind::Signal(1));
        // Bit 4 starts the next group.
        let p4 = l.position(4);
        assert_eq!(p4.left, NeighborKind::Shield);
        assert_eq!(p4.right, NeighborKind::Signal(5));
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let l = BusLayout::paper_default();
        for p in l.positions() {
            if let NeighborKind::Signal(j) = p.right {
                assert_eq!(l.position(j).left, NeighborKind::Signal(p.bit));
            }
            if let NeighborKind::Signal(j) = p.left {
                assert_eq!(l.position(j).right, NeighborKind::Signal(p.bit));
            }
        }
    }

    #[test]
    fn no_wire_references_itself_or_out_of_range() {
        let l = BusLayout::new(16, 4);
        for p in l.positions() {
            for n in [p.left, p.right, p.left2, p.right2] {
                if let NeighborKind::Signal(j) = n {
                    assert!(j < l.n_bits());
                    assert_ne!(j, p.bit);
                }
            }
        }
    }

    #[test]
    fn group_of_one_is_fully_shielded() {
        let l = BusLayout::new(8, 1);
        for p in l.positions() {
            assert_eq!(p.left, NeighborKind::Shield);
            assert_eq!(p.right, NeighborKind::Shield);
            assert_eq!(p.left2, NeighborKind::Open);
            assert_eq!(p.right2, NeighborKind::Open);
        }
        assert_eq!(l.n_shields(), 9);
    }

    #[test]
    #[should_panic(expected = "whole number of shield groups")]
    fn rejects_ragged_groups() {
        let _ = BusLayout::new(30, 4);
    }
}
