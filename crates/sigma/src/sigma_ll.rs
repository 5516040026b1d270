//! Σ-LL: summations over gathered/scattered tiles (paper §2.1.3).
//!
//! Σ-LL makes access patterns and loops explicit: a tiled LL computation
//! becomes nested summations whose bodies combine *gather* matrices (extract
//! a tile) and *scatter* matrices (embed a tile). This module gives the
//! representation executable semantics — gathers and scatters are
//! materialized as 0/1 matrices and the summations actually summed — so the
//! tiling algebra can be tested against direct evaluation, e.g. that
//! equation (2.4) computes exactly `C = AB`, and that the MVH/RR rewrite
//! (3.7) → (3.8) is semantics-preserving.

use lgen_ll::blac::Dims;
use std::fmt;

/// A dense row-major matrix (small, test-sized).
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    /// Dimensions.
    pub dims: Dims,
    /// Row-major data.
    pub data: Vec<f32>,
}

impl Mat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            dims: Dims::new(rows, cols),
            data: vec![0.0; rows * cols],
        }
    }

    /// From parts.
    ///
    /// # Panics
    ///
    /// Panics if sizes mismatch.
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Mat {
            dims: Dims::new(rows, cols),
            data,
        }
    }

    /// Element access.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.dims.cols + c]
    }

    fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.dims.cols + c] = v;
    }

    /// Dense matrix product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.dims.cols, other.dims.rows,
            "{} · {}",
            self.dims, other.dims
        );
        let mut out = Mat::zeros(self.dims.rows, other.dims.cols);
        for i in 0..self.dims.rows {
            for j in 0..other.dims.cols {
                let mut acc = 0.0;
                for k in 0..self.dims.cols {
                    acc += self.at(i, k) * other.at(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &Mat) -> Mat {
        assert_eq!(self.dims, other.dims);
        Mat {
            dims: self.dims,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Transpose.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.dims.cols, self.dims.rows);
        for i in 0..self.dims.rows {
            for j in 0..self.dims.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        out
    }
}

/// The gather matrix `G_x` extracting `size` rows starting at `start` from
/// a space of `of` rows (paper §2.1.3): a `size×of` 0/1 matrix.
///
/// Multiplying `G A` from the left extracts rows; `A Gᵀ`-shaped right
/// multiplication (the paper writes the right gather with the transposed
/// layout) extracts columns — see [`gather_right`].
pub(crate) fn gather_left(start: usize, size: usize, of: usize) -> Mat {
    let mut g = Mat::zeros(size, of);
    for r in 0..size {
        g.set(r, start + r, 1.0);
    }
    g
}

/// The right gather matrix (an `of×size` 0/1 matrix): `A · G` extracts
/// `size` columns of `A` starting at column `start`.
pub(crate) fn gather_right(start: usize, size: usize, of: usize) -> Mat {
    gather_left(start, size, of).t()
}

/// The left scatter matrix `S = Gᵀ` embedding `size` rows at `start` into
/// `of` rows.
pub(crate) fn scatter_left(start: usize, size: usize, of: usize) -> Mat {
    gather_left(start, size, of).t()
}

/// The right scatter matrix: `A · S` embeds columns.
pub(crate) fn scatter_right(start: usize, size: usize, of: usize) -> Mat {
    gather_left(start, size, of)
}

/// A Σ-LL summation bound: `Σ_{i=start,step}^{bound}` (the paper's
/// subscript `i = start, step` with inclusive upper index `bound`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SumRange {
    /// First index value.
    pub start: usize,
    /// Inclusive last index value.
    pub last: usize,
    /// Step (the tile size along this dimension).
    pub step: usize,
}

impl SumRange {
    /// The range `start, start+step, …, ≤ last`.
    pub fn new(start: usize, last: usize, step: usize) -> Self {
        assert!(step > 0);
        SumRange { start, last, step }
    }

    /// Iterate the index values.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.start..=self.last).step_by(self.step)
    }
}

impl fmt::Display for SumRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Σ_{{{},{}}}^{{{}}}", self.start, self.step, self.last)
    }
}

/// The Σ-LL form of a tiled matrix-matrix multiplication
/// `C = Σ_i Σ_j Σ_k S_i (G_i A G_k) S_k S_k (G_k B G_j) S_j`
/// — equation (2.4) generalized to arbitrary sizes and tiles.
#[derive(Clone, Debug, PartialEq)]
pub struct TiledMmm {
    /// `A` is `m×k`, `B` is `k×n`.
    pub m: usize,
    /// Contraction dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Row tile (the `i` step).
    pub ti: usize,
    /// Column tile (the `j` step).
    pub tj: usize,
    /// Contraction tile (the `k` step).
    pub tk: usize,
}

impl TiledMmm {
    /// The three summation ranges `(i, j, k)`.
    pub fn ranges(&self) -> (SumRange, SumRange, SumRange) {
        (
            SumRange::new(0, self.m - 1, self.ti),
            SumRange::new(0, self.n - 1, self.tj),
            SumRange::new(0, self.k - 1, self.tk),
        )
    }

    /// Evaluates the Σ-LL expression *literally*: every tile is gathered
    /// with explicit 0/1 matrices, partial products are scattered into
    /// full-size zero-padded matrices (the white regions of Fig. 2.2), and
    /// the summations add them up.
    pub fn eval(&self, a: &Mat, b: &Mat) -> Mat {
        assert_eq!(a.dims, Dims::new(self.m, self.k));
        assert_eq!(b.dims, Dims::new(self.k, self.n));
        let (ri, rj, rk) = self.ranges();
        let mut c = Mat::zeros(self.m, self.n);
        for i in ri.iter() {
            let hi = self.ti.min(self.m - i);
            for j in rj.iter() {
                let wj = self.tj.min(self.n - j);
                for k in rk.iter() {
                    let dk = self.tk.min(self.k - k);
                    // G_i A G_k — a tile of A.
                    let a_tile = gather_left(i, hi, self.m)
                        .matmul(a)
                        .matmul(&gather_right(k, dk, self.k));
                    // G_k B G_j — a tile of B.
                    let b_tile = gather_left(k, dk, self.k)
                        .matmul(b)
                        .matmul(&gather_right(j, wj, self.n));
                    // S_i (…) S_j — scatter the product into C's space.
                    let prod = a_tile.matmul(&b_tile);
                    let placed = scatter_left(i, hi, self.m)
                        .matmul(&prod)
                        .matmul(&scatter_right(j, wj, self.n));
                    c = c.add(&placed);
                }
            }
        }
        c
    }

    /// Number of summands (= tiles of work), for search-space accounting.
    pub fn summands(&self) -> usize {
        let (ri, rj, rk) = self.ranges();
        ri.iter().count() * rj.iter().count() * rk.iter().count()
    }
}

impl fmt::Display for TiledMmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ri, rj, rk) = self.ranges();
        write!(
            f,
            "C = {ri} {rj} {rk} S_i (G_i A G_k) S_k S_k (G_k B G_j) S_j"
        )
    }
}

/// The Σ-LL form of a tiled matrix-vector multiplication, in both variants
/// of §3.3: classic (3.7) and MVH/RR (3.8).
#[derive(Clone, Debug, PartialEq)]
pub struct TiledMvm {
    /// `A` is `m×n`.
    pub m: usize,
    /// Columns of `A` / length of `x`.
    pub n: usize,
    /// Tile size ν.
    pub nu: usize,
}

impl TiledMvm {
    /// Equation (3.7): `y = Σ_i S_i Σ_j (G_i A G_j)(G_j x)`.
    pub fn eval_classic(&self, a: &Mat, x: &Mat) -> Mat {
        let mut y = Mat::zeros(self.m, 1);
        for i in (0..self.m).step_by(self.nu) {
            let hi = self.nu.min(self.m - i);
            let mut acc = Mat::zeros(hi, 1);
            for j in (0..self.n).step_by(self.nu) {
                let wj = self.nu.min(self.n - j);
                let a_tile = gather_left(i, hi, self.m)
                    .matmul(a)
                    .matmul(&gather_right(j, wj, self.n));
                let x_tile = gather_left(j, wj, self.n).matmul(x);
                acc = acc.add(&a_tile.matmul(&x_tile));
            }
            y = y.add(&scatter_left(i, hi, self.m).matmul(&acc));
        }
        y
    }

    /// Equation (3.8): `y = Σ_i S_i [ ⊘ Σ_j (G_i A G_j) ⊙ (G_j x) ]` — the
    /// summation moved between the MVH and the row reduction.
    pub fn eval_mvh_rr(&self, a: &Mat, x: &Mat) -> Mat {
        let mut y = Mat::zeros(self.m, 1);
        for i in (0..self.m).step_by(self.nu) {
            let hi = self.nu.min(self.m - i);
            // Σ_j of MVH results: hi×ν accumulator.
            let mut acc = Mat::zeros(hi, self.nu);
            for j in (0..self.n).step_by(self.nu) {
                let wj = self.nu.min(self.n - j);
                let a_tile = gather_left(i, hi, self.m)
                    .matmul(a)
                    .matmul(&gather_right(j, wj, self.n));
                let x_tile = gather_left(j, wj, self.n).matmul(x);
                // MVH: row-wise Hadamard with xᵀ, zero-padded to ν wide.
                let mut mvh = Mat::zeros(hi, self.nu);
                for r in 0..hi {
                    for c in 0..wj {
                        mvh.set(r, c, a_tile.at(r, c) * x_tile.at(c, 0));
                    }
                }
                acc = acc.add(&mvh);
            }
            // RR: row reduction.
            let mut red = Mat::zeros(hi, 1);
            for r in 0..hi {
                let s: f32 = (0..self.nu).map(|c| acc.at(r, c)).sum();
                red.set(r, 0, s);
            }
            y = y.add(&scatter_left(i, hi, self.m).matmul(&red));
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_mat(rows: usize, cols: usize, scale: f32) -> Mat {
        Mat::new(
            rows,
            cols,
            (0..rows * cols).map(|i| scale * (i as f32 - 3.0)).collect(),
        )
    }

    #[test]
    fn gathers_extract_tiles() {
        // The paper's 4×4 example: upper-left 2×2 via G_L A G_R.
        let a = seq_mat(4, 4, 1.0);
        let tile = gather_left(0, 2, 4)
            .matmul(&a)
            .matmul(&gather_right(0, 2, 4));
        assert_eq!(tile.dims, Dims::new(2, 2));
        assert_eq!(tile.at(0, 0), a.at(0, 0));
        assert_eq!(tile.at(1, 1), a.at(1, 1));
        // And a non-corner tile.
        let tile = gather_left(1, 2, 4)
            .matmul(&a)
            .matmul(&gather_right(2, 2, 4));
        assert_eq!(tile.at(0, 0), a.at(1, 2));
    }

    #[test]
    fn scatter_is_gather_transposed() {
        assert_eq!(scatter_left(1, 2, 5), gather_left(1, 2, 5).t());
        assert_eq!(scatter_right(1, 2, 5), gather_left(1, 2, 5));
    }

    /// Equation (2.4): the 4×16×4 product tiled (2, 4, 8) evaluates to AB.
    #[test]
    fn equation_2_4_is_ab() {
        let t = TiledMmm {
            m: 4,
            k: 16,
            n: 4,
            ti: 2,
            tj: 4,
            tk: 8,
        };
        let a = seq_mat(4, 16, 0.25);
        let b = seq_mat(16, 4, 0.5);
        assert_eq!(t.eval(&a, &b), a.matmul(&b));
        // Display resembles the paper's notation.
        assert_eq!(
            t.to_string(),
            "C = Σ_{0,2}^{3} Σ_{0,4}^{3} Σ_{0,8}^{15} S_i (G_i A G_k) S_k S_k (G_k B G_j) S_j"
        );
        assert_eq!(t.summands(), 2 * 2);
    }

    /// Tilings with leftovers still evaluate correctly.
    #[test]
    fn leftover_tiles_evaluate() {
        let t = TiledMmm {
            m: 5,
            k: 7,
            n: 3,
            ti: 4,
            tj: 4,
            tk: 4,
        };
        let a = seq_mat(5, 7, 0.5);
        let b = seq_mat(7, 3, 0.25);
        assert_eq!(t.eval(&a, &b), a.matmul(&b));
    }

    /// §3.3: (3.7) and (3.8) agree with each other and with `A·x`, on exact
    /// and leftover shapes.
    #[test]
    fn mvm_rewrite_preserves_semantics() {
        for (m, n) in [(4, 8), (6, 10), (3, 5), (8, 4)] {
            let t = TiledMvm { m, n, nu: 4 };
            let a = seq_mat(m, n, 0.5);
            let x = seq_mat(n, 1, 0.25);
            let direct = a.matmul(&x);
            assert_eq!(t.eval_classic(&a, &x), direct, "classic {m}×{n}");
            assert_eq!(t.eval_mvh_rr(&a, &x), direct, "mvh/rr {m}×{n}");
        }
    }

    #[test]
    fn sum_range_display_matches_paper_notation() {
        assert_eq!(SumRange::new(0, 15, 8).to_string(), "Σ_{0,8}^{15}");
    }
}
