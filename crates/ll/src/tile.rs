//! ν-tiling grids (§2.1.2).
//!
//! The first (inner) level of tiling targets vectorization: matrices are
//! cut into ν-sized tiles, with *leftover* tiles of size `dim mod ν` along
//! the edges when a dimension is not divisible by ν. LGen allows leftovers
//! in at most one level of tiling; outer levels must divide the full-tile
//! count evenly (which is why a prime full-tile count forbids outer tiling
//! — the performance dips at n = 695, 893 in Fig. 5.2/5.14).

/// Tiling of one dimension into `full` tiles of size `tile` plus an
/// optional `leftover`-sized tail tile.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TileGrid {
    /// The dimension being tiled.
    pub dim: usize,
    /// Tile size (ν, or 1 for scalar code).
    pub tile: usize,
    /// Number of full tiles.
    pub full: usize,
    /// Size of the leftover tile (0 if none).
    pub leftover: usize,
}

impl TileGrid {
    /// Tiles `dim` by `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is 0.
    pub fn new(dim: usize, tile: usize) -> Self {
        assert!(tile > 0, "tile size must be positive");
        TileGrid {
            dim,
            tile,
            full: dim / tile,
            leftover: dim % tile,
        }
    }

    /// Total number of tiles including the leftover.
    pub fn count(&self) -> usize {
        self.full + usize::from(self.leftover > 0)
    }

    /// Iterator over `(start, size)` of each tile.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let full_part = (0..self.full).map(move |i| (i * self.tile, self.tile));
        let tail = (self.leftover > 0).then_some((self.full * self.tile, self.leftover));
        full_part.chain(tail)
    }

    /// Start offset of the leftover region (== `dim` when there is none).
    pub fn leftover_start(&self) -> usize {
        self.full * self.tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let g = TileGrid::new(16, 4);
        assert_eq!((g.full, g.leftover), (4, 0));
        assert_eq!(g.count(), 4);
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            vec![(0, 4), (4, 4), (8, 4), (12, 4)]
        );
    }

    #[test]
    fn with_leftover() {
        // The paper's example: a 30×4 matrix with ν = 4 gives seven 4×4
        // tiles and one 2×4 leftover tile.
        let g = TileGrid::new(30, 4);
        assert_eq!((g.full, g.leftover), (7, 2));
        assert_eq!(g.count(), 8);
        assert_eq!(g.iter().last(), Some((28, 2)));
        assert_eq!(g.leftover_start(), 28);
    }

    #[test]
    fn dim_smaller_than_tile() {
        let g = TileGrid::new(3, 4);
        assert_eq!((g.full, g.leftover), (0, 3));
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(0, 3)]);
    }

    #[test]
    fn scalar_tiling() {
        let g = TileGrid::new(5, 1);
        assert_eq!((g.full, g.leftover), (5, 0));
        assert_eq!(g.count(), 5);
    }
}
