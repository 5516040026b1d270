//! Memory maps (§3.1).
//!
//! A memory map relates offsets (in floats) from an instruction's base
//! address to lanes of the vector register being loaded or stored. The
//! original LGen memory map only described horizontal (row) segments; the
//! generic load/store extension added vertical (column) segments, which is
//! what lets scalar replacement match strided accesses without leftover
//! shuffles.

/// A memory map: which float offsets correspond to which vector lanes.
///
/// Maps are ordered by lane. For loads, lanes not present in the map are
/// implicitly zero-filled (the Loader packs leftover tiles into ν-sized
/// matrices padded with zeros, §2.1.4).
///
/// # Example
///
/// ```
/// use lgen_cir::MemMap;
///
/// let row = MemMap::horizontal(3);          // offsets 0,1,2 → lanes 0,1,2
/// let col = MemMap::vertical(3, 10);        // offsets 0,10,20 → lanes 0,1,2
/// assert!(row.footprint_equals(&row));
/// assert!(!row.footprint_equals(&col));
/// assert_eq!(col.stride(), Some(10));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct MemMap {
    /// `(offset_in_floats, lane)` pairs, sorted by lane, lanes distinct.
    entries: Vec<(i64, u8)>,
    /// Whether a single memory element is broadcast to all lanes.
    broadcast: bool,
}

impl MemMap {
    /// A horizontal (unit-stride) map of `lanes` elements starting at lane 0.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 4.
    pub fn horizontal(lanes: usize) -> Self {
        assert!(
            (1..=4).contains(&lanes),
            "lanes must be in 1..=4, got {lanes}"
        );
        MemMap {
            entries: (0..lanes).map(|i| (i as i64, i as u8)).collect(),
            broadcast: false,
        }
    }

    /// A vertical (strided) map of `lanes` elements with `stride` floats
    /// between consecutive elements (the row length of a row-major matrix).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 4, or `stride` is not positive.
    pub fn vertical(lanes: usize, stride: i64) -> Self {
        assert!(
            (1..=4).contains(&lanes),
            "lanes must be in 1..=4, got {lanes}"
        );
        assert!(stride > 0, "stride must be positive, got {stride}");
        MemMap {
            entries: (0..lanes).map(|i| (i as i64 * stride, i as u8)).collect(),
            broadcast: false,
        }
    }

    /// A broadcast map: one element replicated into all `lanes` lanes
    /// (loads only; lowers to `_mm_load1_ps` / `vld1q_dup_f32`).
    pub fn splat(lanes: usize) -> Self {
        assert!(
            (1..=4).contains(&lanes),
            "lanes must be in 1..=4, got {lanes}"
        );
        MemMap {
            entries: (0..lanes).map(|i| (0, i as u8)).collect(),
            broadcast: true,
        }
    }

    /// A single-element map targeting lane 0 (scalar access).
    pub fn scalar() -> Self {
        MemMap::horizontal(1)
    }

    /// An arbitrary map from explicit `(offset, lane)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty, lanes are not distinct, or any lane exceeds 3.
    pub(crate) fn from_entries(mut entries: Vec<(i64, u8)>) -> Self {
        assert!(!entries.is_empty(), "memory map must be non-empty");
        entries.sort_by_key(|&(_, lane)| lane);
        for w in entries.windows(2) {
            assert!(w[0].1 < w[1].1, "duplicate lane {} in memory map", w[1].1);
        }
        assert!(entries.iter().all(|&(_, l)| l < 4), "lanes must be < 4");
        MemMap {
            entries,
            broadcast: false,
        }
    }

    /// The `(offset, lane)` pairs, sorted by lane.
    pub fn entries(&self) -> &[(i64, u8)] {
        &self.entries
    }

    /// Number of lanes touched.
    pub fn lanes(&self) -> usize {
        self.entries.len()
    }

    /// Whether this is a broadcast (splat) map.
    pub(crate) fn is_broadcast(&self) -> bool {
        self.broadcast
    }

    /// Whether the map is horizontal: offsets `0..k` mapping to lanes `0..k`.
    pub fn is_horizontal(&self) -> bool {
        !self.broadcast
            && self
                .entries
                .iter()
                .enumerate()
                .all(|(i, &(off, lane))| off == i as i64 && lane == i as u8)
    }

    /// The constant stride between consecutive lanes, if the map is a
    /// uniform vertical/strided segment starting at lane 0 (returns the
    /// stride; `Some(1)` for horizontal maps of ≥ 2 lanes).
    pub fn stride(&self) -> Option<i64> {
        if self.broadcast || self.entries.len() < 2 {
            return None;
        }
        if self.entries[0] != (0, 0) {
            return None;
        }
        let s = self.entries[1].0 - self.entries[0].0;
        for (i, &(off, lane)) in self.entries.iter().enumerate() {
            if lane != i as u8 || off != s * i as i64 {
                return None;
            }
        }
        Some(s)
    }

    /// Whether two maps describe the same memory footprint relative to
    /// their (shared) base address — the scalar-replacement matching
    /// criterion of §3.1.
    pub fn footprint_equals(&self, other: &MemMap) -> bool {
        // The footprint is the set of (offset, lane) pairs: a store/load
        // pair forwards only if the same offsets feed the same lanes.
        self.entries == other.entries
    }

    /// The largest offset touched (in floats), for bounds checking.
    pub fn max_offset(&self) -> i64 {
        self.entries.iter().map(|&(off, _)| off).max().unwrap_or(0)
    }

    /// Bytes spanned when the map is a contiguous horizontal run.
    pub(crate) fn contiguous_bytes(&self) -> Option<usize> {
        if self.is_horizontal() {
            Some(self.lanes() * 4)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_shape() {
        let m = MemMap::horizontal(4);
        assert!(m.is_horizontal());
        assert_eq!(m.lanes(), 4);
        assert_eq!(m.stride(), Some(1));
        assert_eq!(m.contiguous_bytes(), Some(16));
        assert_eq!(m.max_offset(), 3);
    }

    #[test]
    fn vertical_shape() {
        let m = MemMap::vertical(4, 8);
        assert!(!m.is_horizontal());
        assert_eq!(m.stride(), Some(8));
        assert_eq!(m.max_offset(), 24);
        assert_eq!(m.contiguous_bytes(), None);
    }

    #[test]
    fn splat_shape() {
        let m = MemMap::splat(4);
        assert!(m.is_broadcast());
        assert_eq!(m.lanes(), 4);
        assert_eq!(m.stride(), None);
        assert_eq!(m.max_offset(), 0);
    }

    #[test]
    fn footprint_matching_requires_same_offsets_and_lanes() {
        // The paper's Fig. 3.4 case: a 3-element store and a 3-element load
        // implemented differently still match on footprint.
        let st = MemMap::horizontal(3);
        let ld = MemMap::horizontal(3);
        assert!(st.footprint_equals(&ld));
        // Horizontal vs vertical 3-element segments do not match.
        assert!(!st.footprint_equals(&MemMap::vertical(3, 6)));
        // Same offsets in different lanes do not match.
        let swapped = MemMap::from_entries(vec![(1, 0), (0, 1), (2, 2)]);
        assert!(!st.footprint_equals(&swapped));
    }

    #[test]
    #[should_panic(expected = "duplicate lane")]
    fn duplicate_lanes_rejected() {
        let _ = MemMap::from_entries(vec![(0, 1), (4, 1)]);
    }

    #[test]
    fn vertical_one_lane_equals_scalar_footprint() {
        assert!(MemMap::vertical(1, 8).footprint_equals(&MemMap::scalar()));
    }
}
