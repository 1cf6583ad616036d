//! Row-major dense `f64` matrix.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::rng::SeededRng;

/// Minimum `rows · inner · cols` product (≈ multiply-add count) before
/// [`Matrix::matmul`] fans rows out across the parallel runtime. Below this,
/// scoped-thread spawn overhead (tens of µs) exceeds the whole product.
const PAR_MATMUL_MIN_WORK: usize = 32 * 1024;

/// A dense, row-major `f64` matrix.
///
/// `Matrix` is the single tensor type of the workspace: a batch of samples is
/// a `(batch, features)` matrix, a dense-layer weight is `(in, out)`, a vector
/// is a `(1, n)` or `(n, 1)` matrix.
///
/// # Example
///
/// ```
/// use hqnn_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m[(1, 2)], 6.0);
/// assert_eq!(m.transpose().shape(), (3, 2));
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s allocation when it is
    /// large enough — the layers' backward caches rely on this.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            // lint:allow(panic): allocation-size overflow is unrecoverable
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Reshapes `self` to `rows × cols` and fills it with zeros, reusing the
    /// existing allocation when it is large enough.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.resize(rows, cols);
        self.data.fill(0.0);
    }

    /// Reshapes `self` to `rows × cols` keeping whatever values the buffer
    /// holds; for callers that overwrite every entry.
    fn resize(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            // lint:allow(panic): allocation-size overflow is unrecoverable
            .expect("matrix dimensions overflow usize");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(len, 0.0);
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a `1 × n` row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Samples every entry i.i.d. uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut SeededRng) -> Self {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.uniform(lo, hi);
        }
        m
    }

    /// Samples every entry i.i.d. from `N(mean, std²)`.
    pub fn normal(rows: usize, cols: usize, mean: f64, std: f64, rng: &mut SeededRng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.normal(mean, std);
        }
        m
    }

    /// Glorot/Xavier uniform initialisation for a `(fan_in, fan_out)` weight,
    /// the Keras `Dense` default the paper's models were initialised with.
    pub fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut SeededRng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        Self::uniform(fan_in, fan_out, -limit, limit, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {} out of bounds ({})", c, self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterator over rows as slices — always yields exactly `rows` items,
    /// including `rows` empty slices for a zero-column matrix (where
    /// `chunks` on the empty backing store would yield nothing).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |r| &self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// Writes the transpose into `out`, reshaping it and reusing its
    /// allocation.
    pub fn transpose_into(&self, out: &mut Self) {
        out.resize(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Matrix product `self · other`.
    ///
    /// Every output entry is the same left fold at any width and thread
    /// count: ascending `k` from `0.0`, skipping exact zeros of `self`, each
    /// step `acc += a · b` (Rust never contracts it to an FMA). Right
    /// operands up to 16 columns wide run a kernel that keeps the row's
    /// accumulators in registers, and every kernel runs on AVX2 where the
    /// CPU has it ([`hqnn_runtime::simd`]); the fold, and so every bit, is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        hqnn_telemetry::counter("tensor.matmuls", 1);
        hqnn_telemetry::counter(
            "tensor.matmul_flops",
            2 * (self.rows * self.cols * other.cols) as u64,
        );
        let n = other.cols;
        let mut out = Self::zeros(self.rows, n);
        let (a, k, b) = (&self.data[..], self.cols, &other.data[..]);
        // Output rows are independent, so large products fan rows out across
        // the runtime, each written in place by the same dispatched kernel
        // as the inline loop, so the gate only changes wall-clock, never a
        // single bit of the result. Small products stay inline — thread
        // spawn would dominate them. A product this large has `n ≥ 1`.
        let work = self.rows * k * n;
        if self.rows > 1 && work >= PAR_MATMUL_MIN_WORK && hqnn_runtime::threads() > 1 {
            let mut rows: Vec<&mut [f64]> = out.data.chunks_exact_mut(n).collect();
            hqnn_runtime::par_for_each_mut(&mut rows, |r, dst| {
                let a = &a[r * k..(r + 1) * k];
                hqnn_runtime::simd(
                    (a, k, b, n, &mut **dst),
                    baseline::matmul_rows,
                    avx2::matmul_rows,
                );
            });
        } else {
            hqnn_runtime::simd(
                (a, k, b, n, &mut out.data[..]),
                baseline::matmul_rows,
                avx2::matmul_rows,
            );
        }
        out
    }

    /// Writes `selfᵀ · other` into `out` without materialising the
    /// transpose, bit-identical to `self.transpose().matmul(other)`: output
    /// row `i` folds over the rows `r` of both operands in ascending order,
    /// starting from `0.0` and skipping exact zeros of `self[r, i]`. Right
    /// operands up to 16 columns wide run a register-tiled kernel that
    /// accumulates several output rows at once, reading each row of `other`
    /// once per tile; the fold of every entry, and so every bit, is the
    /// same, also on AVX2 ([`hqnn_runtime::simd`]). Runs sequentially and
    /// bills the same `tensor.*` counters as the product it replaces.
    /// `out` is reshaped to `self.cols() × other.cols()`, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        hqnn_telemetry::counter("tensor.matmuls", 1);
        hqnn_telemetry::counter(
            "tensor.matmul_flops",
            2 * (self.rows * self.cols * other.cols) as u64,
        );
        let n = other.cols;
        out.resize(self.cols, n);
        hqnn_runtime::simd(
            (
                &self.data[..],
                self.cols,
                &other.data[..],
                n,
                &mut out.data[..],
            ),
            baseline::matmul_tn_rows,
            avx2::matmul_tn_rows,
        );
    }

    /// Elementwise map, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a * b)
    }

    /// Combines two equal-shape matrices elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with(&self, other: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|v| v * s)
    }

    /// Adds `other * s` into `self` (fused AXPY update, used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Self, s: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Broadcast-adds a `1 × cols` row vector to every row (bias add).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// In-place [`Matrix::add_row_broadcast`].
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Self) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Sums each column into a `1 × cols` row vector (bias gradient reduction).
    pub fn sum_rows(&self) -> Self {
        let mut out = Self::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// Writes [`Matrix::sum_rows`] into `out`, reusing its allocation.
    pub fn sum_rows_into(&self, out: &mut Self) {
        out.reset_zeros(1, self.cols);
        for row in self.iter_rows() {
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Sum of all entries (strict left-to-right fold in storage order).
    pub fn sum(&self) -> f64 {
        crate::fold::ordered_sum_f64(self.data.iter().copied())
    }

    /// Mean of all entries; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum entry; `f64::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f64 {
        crate::fold::ordered_max_f64(self.data.iter().copied())
    }

    /// Minimum entry; `f64::INFINITY` for an empty matrix.
    pub fn min(&self) -> f64 {
        crate::fold::ordered_min_f64(self.data.iter().copied())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::fold::ordered_sum_f64(self.data.iter().map(|v| v * v)).sqrt()
    }

    /// Index of the maximum entry in each row (`argmax` over columns),
    /// the prediction rule for classification heads.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Extracts the sub-matrix made of the given row indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Writes [`Matrix::select_rows`] into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Self) {
        out.resize(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// `true` when every entry is finite (no NaN/inf), used as a training
    /// sanity check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Elementwise approximate equality with mixed absolute/relative
    /// tolerance `tol`. Shapes must match for `true`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }
}

/// `dst = a · b` for a row-major `a` with `k` columns and a row-major `b`
/// with `n`: the body both of [`Matrix::matmul`]'s branches dispatch. One
/// `match` on `n` picks the kernel, then every row of `dst` runs through it.
#[inline(always)]
fn matmul_rows(a: &[f64], k: usize, b: &[f64], n: usize, dst: &mut [f64]) {
    if n == 0 {
        return;
    }
    let dst = dst.chunks_exact_mut(n);
    macro_rules! fixed {
        ($($n:literal)+) => {
            match n {
                $($n => for (r, d) in dst.enumerate() {
                    row_fixed::<$n, _>(a[r * k..(r + 1) * k].iter().copied(), b, d);
                },)+
                _ => for (r, d) in dst.enumerate() {
                    row_any(a[r * k..(r + 1) * k].iter().copied(), b, d);
                },
            }
        };
    }
    fixed!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
}

/// `N`-wide row kernel: the `N` accumulators live in registers for the
/// whole fold instead of being reloaded and stored on every `k`. Same sum,
/// same order as [`row_any`].
#[inline(always)]
fn row_fixed<const N: usize, I: Iterator<Item = f64>>(a: I, other: &[f64], dst: &mut [f64]) {
    let mut acc = [0.0; N];
    for (a, src) in a.zip(other.as_chunks::<N>().0) {
        if a == 0.0 {
            continue;
        }
        for (d, s) in acc.iter_mut().zip(src) {
            *d += a * s;
        }
    }
    dst.copy_from_slice(&acc);
}

/// Any-width row kernel, accumulating in `dst` itself.
#[inline(always)]
fn row_any<I: Iterator<Item = f64>>(a: I, other: &[f64], dst: &mut [f64]) {
    dst.fill(0.0);
    if dst.is_empty() {
        return;
    }
    for (a, src) in a.zip(other.chunks_exact(dst.len())) {
        if a == 0.0 {
            continue;
        }
        for (d, s) in dst.iter_mut().zip(src) {
            *d += a * s;
        }
    }
}

/// `xᵀ·g` into `out` for a row-major `x` with `cols` columns and a
/// row-major `g` with `n`: the body [`Matrix::matmul_tn`] dispatches.
/// Width `n` → tile height: as many output rows per tile as keep the
/// tile's accumulators in registers (measured on 8-row batches at 10 and
/// 110 input columns); wider `g` runs [`row_any`] per output row.
#[inline(always)]
fn matmul_tn_rows(x: &[f64], cols: usize, g: &[f64], n: usize, out: &mut [f64]) {
    if cols == 0 || n == 0 {
        return;
    }
    macro_rules! tiled {
        ($($n:literal => $t:literal)+) => {
            match n {
                $($n => tn_tiled::<$t, $n>(x, cols, g, out),)+
                _ => {
                    for (i, dst) in out.chunks_exact_mut(n).enumerate() {
                        let column = x.iter().skip(i).step_by(cols).copied();
                        row_any(column, g, dst);
                    }
                }
            }
        };
    }
    tiled!(
        1 => 8 2 => 8 3 => 8 4 => 8 5 => 4 6 => 4 7 => 2 8 => 2
        9 => 2 10 => 2 11 => 2 12 => 2 13 => 2 14 => 2 15 => 2 16 => 2
    );
}

/// The arguments of [`matmul_rows`] and [`matmul_tn_rows`], as one tuple.
type RowsArgs<'a> = (&'a [f64], usize, &'a [f64], usize, &'a mut [f64]);

/// Emits one kernel set: [`matmul_rows`] and [`matmul_tn_rows`] as the
/// functions [`hqnn_runtime::simd`] picks between, each inlining its whole
/// body. Invoked once for the baseline target and once for AVX2.
macro_rules! kernel_set {
    ($(#[$feature:meta])*) => {
        use super::RowsArgs;

        $(#[$feature])*
        pub(super) fn matmul_rows((a, k, b, n, dst): RowsArgs) {
            super::matmul_rows(a, k, b, n, dst)
        }

        $(#[$feature])*
        pub(super) fn matmul_tn_rows((x, cols, g, n, out): RowsArgs) {
            super::matmul_tn_rows(x, cols, g, n, out)
        }
    };
}

/// The kernels compiled for the x86-64 baseline (SSE2).
mod baseline {
    kernel_set!();
}

/// The kernels compiled for AVX2, run only on a CPU that has it.
mod avx2 {
    kernel_set!(#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]);
}

/// `xᵀ·g` into `out` for a row-major `x` with `cols` columns and a `g`
/// `N` columns wide: output rows in tiles of `T`, then one at a time.
#[inline(always)]
fn tn_tiled<const T: usize, const N: usize>(x: &[f64], cols: usize, g: &[f64], out: &mut [f64]) {
    let g = g.as_chunks::<N>().0;
    let mut i = 0;
    while i + T <= cols {
        tn_tile::<T, N>(x, cols, i, g, out);
        i += T;
    }
    while i < cols {
        tn_tile::<1, N>(x, cols, i, g, out);
        i += 1;
    }
}

/// Output rows `i..i + T` of `xᵀ·g`: the `T × N` accumulators stay in
/// registers while the fold walks the batch rows `r` in ascending order,
/// each step `acc[t] += x[r, i + t] · g[r]` unless `x[r, i + t]` is an
/// exact zero — [`row_fixed`]'s fold for each of the `T` rows.
#[inline(always)]
fn tn_tile<const T: usize, const N: usize>(
    x: &[f64],
    cols: usize,
    i: usize,
    g: &[[f64; N]],
    out: &mut [f64],
) {
    let mut acc = [[0.0; N]; T];
    for (x_row, g_row) in x.chunks_exact(cols).zip(g) {
        for (acc, &a) in acc.iter_mut().zip(&x_row[i..i + T]) {
            if a == 0.0 {
                continue;
            }
            for (d, s) in acc.iter_mut().zip(g_row) {
                *d += a * s;
            }
        }
    }
    out[i * N..(i + T) * N].copy_from_slice(acc.as_flattened());
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.add_scaled(rhs, 1.0);
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows() {
            write!(f, "  [")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.6}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_diagonal() {
        let id = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(id[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trips_indexing() {
        let m = sample();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        assert_eq!(m.matmul(&Matrix::identity(3)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn matmul_zero_dimension_operands() {
        // 0-row left operand: (0×3)·(3×2) = (0×2).
        let right = Matrix::zeros(3, 2);
        let out = Matrix::zeros(0, 3).matmul(&right);
        assert_eq!(out.shape(), (0, 2));
        assert!(out.is_empty());
        // 0-col right operand: (2×3)·(3×0) = (2×0).
        let out = sample().matmul(&Matrix::zeros(3, 0));
        assert_eq!(out.shape(), (2, 0));
        // 0 inner dimension: (2×0)·(0×4) = the 2×4 zero matrix.
        let out = Matrix::zeros(2, 0).matmul(&Matrix::zeros(0, 4));
        assert_eq!(out, Matrix::zeros(2, 4));
        // Same answers when the runtime would otherwise parallelise.
        hqnn_runtime::with_threads(4, || {
            let out = Matrix::zeros(0, 3).matmul(&Matrix::zeros(3, 7));
            assert_eq!(out.shape(), (0, 7));
        });
    }

    #[test]
    fn iter_rows_yields_every_row_even_with_zero_cols() {
        assert_eq!(sample().iter_rows().count(), 2);
        let wide_empty = Matrix::zeros(3, 0);
        let rows: Vec<&[f64]> = wide_empty.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        assert_eq!(Matrix::zeros(0, 5).iter_rows().count(), 0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatch() {
        let _ = sample().matmul(&sample());
    }

    #[test]
    fn hadamard_and_zip() {
        let m = sample();
        let sq = m.hadamard(&m);
        assert_eq!(sq[(1, 2)], 36.0);
    }

    #[test]
    fn add_sub_scale_ops() {
        let m = sample();
        let two = m.scale(2.0);
        assert_eq!(&(&m + &m), &two);
        assert_eq!((&two - &m), m);
        assert_eq!((&m * 0.0), Matrix::zeros(2, 3));
        assert_eq!((-&m).sum(), -m.sum());
    }

    #[test]
    fn add_row_broadcast_adds_bias() {
        let m = sample();
        let bias = Matrix::row_vector(&[10.0, 20.0, 30.0]);
        let out = m.add_row_broadcast(&bias);
        assert_eq!(out[(0, 0)], 11.0);
        assert_eq!(out[(1, 2)], 36.0);
    }

    #[test]
    fn sum_rows_reduces_batch() {
        let m = sample();
        assert_eq!(m.sum_rows(), Matrix::row_vector(&[5.0, 7.0, 9.0]));
    }

    #[test]
    fn reductions() {
        let m = sample();
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.min(), 1.0);
        assert!((m.frobenius_norm() - (91.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let m = Matrix::from_rows(&[&[0.1, 0.9, 0.0], &[5.0, 1.0, 2.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn select_rows_orders_and_repeats() {
        let m = sample();
        let s = m.select_rows(&[1, 1, 0]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), m.row(1));
        assert_eq!(s.row(2), m.row(0));
    }

    #[test]
    fn glorot_uniform_respects_limit() {
        let mut rng = SeededRng::new(7);
        let w = Matrix::glorot_uniform(10, 3, &mut rng);
        let limit = (6.0 / 13.0f64).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
        assert_eq!(w.shape(), (10, 3));
    }

    #[test]
    fn normal_has_roughly_correct_moments() {
        let mut rng = SeededRng::new(11);
        let m = Matrix::normal(100, 100, 2.0, 0.5, &mut rng);
        assert!((m.mean() - 2.0).abs() < 0.02);
        let var = m
            .as_slice()
            .iter()
            .map(|v| (v - m.mean()).powi(2))
            .sum::<f64>()
            / m.len() as f64;
        assert!((var.sqrt() - 0.5).abs() < 0.02);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = sample();
        assert!(m.all_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(format!("{}", sample()).contains("Matrix 2x3"));
    }

    /// A `rows × cols` matrix of values in `[-3, 3)` with exact `±0.0`
    /// (the zero skip) and, when `special` is set, `±inf` and `NaN`.
    fn mixed(rows: usize, cols: usize, special: bool, rng: &mut SeededRng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            let pick = rng.uniform(0.0, 1.0);
            *v = match pick {
                p if p < 0.15 => 0.0,
                p if p < 0.25 => -0.0,
                p if special && p < 0.28 => f64::INFINITY,
                p if special && p < 0.31 => f64::NEG_INFINITY,
                p if special && p < 0.33 => f64::NAN,
                _ => rng.uniform(-3.0, 3.0),
            };
        }
        m
    }

    #[test]
    fn undispatched_kernel_bodies_match_the_entry_points_bitwise() {
        // Called directly, `matmul_rows` and `matmul_tn_rows` are inlined
        // here and compiled for the baseline target; through the entry
        // points `hqnn_runtime::simd` runs the `avx2` kernel set on an
        // AVX2 host. Shapes: a single row, training batches, the 1200-row
        // evaluation set (row-parallel at 2+ threads) and an empty inner
        // dimension, at every fixed width and past them.
        let mut rng = SeededRng::new(24);
        for (rows, inner) in [(1, 110), (8, 10), (8, 110), (1200, 110), (8, 0)] {
            for n in 1..=18 {
                let a = mixed(rows, inner, false, &mut rng);
                let b = mixed(inner, n, true, &mut rng);
                let mut want = vec![f64::NAN; rows * n];
                matmul_rows(&a.data, inner, &b.data, n, &mut want);
                assert_same_bits(a.matmul(&b).as_slice(), &want, "matmul", rows, n);

                let g = mixed(rows, n, true, &mut rng);
                let mut want = vec![f64::NAN; inner * n];
                matmul_tn_rows(&a.data, inner, &g.data, n, &mut want);
                let mut got = Matrix::zeros(0, 0);
                a.matmul_tn(&g, &mut got);
                assert_same_bits(got.as_slice(), &want, "matmul_tn", rows, n);
            }
        }
    }

    /// Equal bits, or both NaN (a NaN's payload is unspecified).
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str, rows: usize, n: usize) {
        assert_eq!(got.len(), want.len(), "{what} {rows}x{n}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} {rows}x{n}: entry {i} is {g:e}, baseline kernel {w:e}"
            );
        }
    }

    #[test]
    fn parallel_matmul_bitwise_matches_sequential() {
        // Both clear PAR_MATMUL_MIN_WORK: a 64-wide product (general loop)
        // and a skinny 1200×110·110×10 one, the shape of a full-set
        // evaluation through a 10-neuron dense layer (fixed-width kernel).
        // A few exact zeros exercise the skip branch on both paths.
        let mut rng = SeededRng::new(42);
        for (rows, inner, cols) in [(64, 64, 64), (1200, 110, 10)] {
            let mut a = Matrix::uniform(rows, inner, -1.0, 1.0, &mut rng);
            let b = Matrix::uniform(inner, cols, -1.0, 1.0, &mut rng);
            for i in 0..rows {
                a[(i, (i * 7) % inner)] = 0.0;
            }
            let seq = hqnn_runtime::with_threads(1, || a.matmul(&b));
            for threads in [2, 3, 7] {
                let par = hqnn_runtime::with_threads(threads, || a.matmul(&b));
                assert_eq!(par.shape(), seq.shape());
                for (x, y) in par.as_slice().iter().zip(seq.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{rows}x{cols}, threads={threads}");
                }
            }
        }
    }
}
