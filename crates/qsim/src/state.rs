//! Dense statevector storage and the gate kernels over it.
//!
//! Every state lives in the **row-lane split-complex** layout of
//! [`BatchState`]: a chunk of `R` rows (*lanes*) of `2ⁿ` amplitudes keeps
//! amplitude `k` of lane `r` at `re[k·R + r]` and `im[k·R + r]`, and a
//! [`StateVector`] is the one-lane case. An amplitude pair `(k, k + s)` of
//! every lane then sits in two runs of `R` plain `f64`s, and a gate that all
//! lanes share walks runs of `s·R` contiguous `f64`s — loops the compiler
//! vectorises on the baseline target.
//!
//! The kernels here are the only ones: [`crate::Circuit::run`] (one lane),
//! the gate-major batch sweeps, the observables and the adjoint reverse
//! pass all call them. The main ones are `#[inline(always)]` bodies that
//! `crate::kernels` compiles into a baseline and an AVX2 set; callers
//! go through a set, never a body. A kernel takes its matrices as
//! `Mats` — one shared by every lane, or one per lane for input-fed
//! gates. Each lane runs the exact per-pair expressions a lone row would,
//! and every fold (expectations, inner products) accumulates per lane in
//! amplitude-index order, so a lane's bits never depend on the lanes
//! beside it.
//!
//! The 2×2 kernels pick their per-pair arithmetic from the matrix values
//! (`Shape`): a diagonal, real, or imaginary-off-diagonal matrix skips
//! the products its zero entries would contribute. A sweep runs one shape
//! for all its lanes — for per-lane matrices, the shape they all share, or
//! `Shape::General` when they differ, classified once when the matrices
//! are made (`Mats::per_lane`). Callers never choose, so a gate takes the
//! same path in every caller.

use std::fmt;

use crate::batch_state::BatchState;
use crate::complex::C64;
use crate::gates::{GateKind, Matrix2};
use crate::kernels::baseline;
use crate::MAX_QUBITS;

/// Which of `m`'s products are structurally zero, read from its entry
/// values. Each shape's per-pair transform (see `with_pair_transform!`)
/// drops exactly the products with a zero matrix factor; the general
/// shape keeps every product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// `m01 == m10 == 0`: RZ, Z, S, T, PhaseShift, `dRZ/dθ`, I.
    Diagonal,
    /// Every imaginary part is 0: RY, H, X, `dRY/dθ`.
    Real,
    /// Real diagonal, purely imaginary off-diagonal: RX, Y, `dRX/dθ`.
    ImagOffDiagonal,
    /// Anything else, including any matrix with a NaN entry.
    General,
}

impl Shape {
    /// The shape of `m`. Signed zeros of either sign count as zero.
    pub(crate) fn of(m: &Matrix2) -> Self {
        let [[m00, m01], [m10, m11]] = *m;
        let entries = [m00, m01, m10, m11];
        if entries.iter().any(|z| z.re.is_nan() || z.im.is_nan()) {
            Shape::General
        } else if m01 == C64::ZERO && m10 == C64::ZERO {
            Shape::Diagonal
        } else if entries.iter().all(|z| z.im == 0.0) {
            Shape::Real
        } else if m00.im == 0.0 && m11.im == 0.0 && m01.re == 0.0 && m10.re == 0.0 {
            Shape::ImagOffDiagonal
        } else {
            Shape::General
        }
    }

    /// The one shape a sweep of per-lane matrices `ms` runs: the shape
    /// they all share, or [`Shape::General`] when any two differ (so a NaN
    /// lane makes the whole sweep general).
    fn common(ms: &[Matrix2]) -> Self {
        let mut shapes = ms.iter().map(Shape::of);
        let first = shapes.next().unwrap_or(Shape::General);
        if shapes.all(|s| s == first) {
            first
        } else {
            Shape::General
        }
    }
}

/// The matrices one kernel call applies.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mats<'a> {
    /// Every lane applies the same matrix.
    Shared(&'a Matrix2),
    /// Lane `r` applies `ms[r]`; one matrix per lane, with their
    /// [`Shape::common`] shape. Made by [`Mats::per_lane`].
    PerLane(&'a [Matrix2], Shape),
}

impl<'a> Mats<'a> {
    /// One matrix per lane, classified once for every kernel call that
    /// applies them.
    pub(crate) fn per_lane(ms: &'a [Matrix2]) -> Self {
        Mats::PerLane(ms, Shape::common(ms))
    }

    /// Checks that per-lane matrices come one per lane of `state`.
    fn check(self, state: &BatchState) {
        if let Mats::PerLane(ms, _) = self {
            assert_eq!(ms.len(), state.rows(), "one matrix per lane");
        }
    }

    /// The one shape the sweep runs: the matrix's own, or the per-lane
    /// matrices' common shape they carry.
    fn shape(self) -> Shape {
        match self {
            Mats::Shared(m) => Shape::of(m),
            Mats::PerLane(ms, shape) => {
                debug_assert_eq!(shape, Shape::common(ms), "stale per-lane shape");
                shape
            }
        }
    }
}

/// Binds `$pair` to the transform `(x, y) ↦ (m00·x + m01·y, m10·x + m11·y)`
/// on split components, `(m, xr, xi, yr, yi) ↦ [xr', xi', yr', yi']`,
/// specialised to `$shape`, then evaluates `$walk`, so every pair walk is
/// written once and monomorphised per shape. Each component is the exact
/// expression `C64` arithmetic evaluates for the same product.
///
/// A specialised expression is the general one minus products with a zero
/// matrix factor. For finite amplitudes such a product is `±0`, and adding
/// `±0` leaves every nonzero value unchanged, so each nonzero component is
/// bitwise the general loop's; only an exactly-zero component may carry
/// the other sign (DESIGN.md §9 shows why no returned value can see it).
macro_rules! with_pair_transform {
    ($shape:expr, |$pair:ident| $walk:expr) => {{
        match $shape {
            Shape::Diagonal => {
                let $pair = |m: &Matrix2, xr: f64, xi: f64, yr: f64, yi: f64| {
                    let (a, d) = (m[0][0], m[1][1]);
                    [
                        a.re * xr - a.im * xi,
                        a.re * xi + a.im * xr,
                        d.re * yr - d.im * yi,
                        d.re * yi + d.im * yr,
                    ]
                };
                $walk
            }
            Shape::Real => {
                let $pair = |m: &Matrix2, xr: f64, xi: f64, yr: f64, yi: f64| {
                    let (r00, r01, r10, r11) = (m[0][0].re, m[0][1].re, m[1][0].re, m[1][1].re);
                    [
                        r00 * xr + r01 * yr,
                        r00 * xi + r01 * yi,
                        r10 * xr + r11 * yr,
                        r10 * xi + r11 * yi,
                    ]
                };
                $walk
            }
            Shape::ImagOffDiagonal => {
                let $pair = |m: &Matrix2, xr: f64, xi: f64, yr: f64, yi: f64| {
                    let (r00, s01, s10, r11) = (m[0][0].re, m[0][1].im, m[1][0].im, m[1][1].re);
                    [
                        r00 * xr - s01 * yi,
                        r00 * xi + s01 * yr,
                        r11 * yr - s10 * xi,
                        s10 * xr + r11 * yi,
                    ]
                };
                $walk
            }
            Shape::General => {
                let $pair = |m: &Matrix2, xr: f64, xi: f64, yr: f64, yi: f64| {
                    let ([a, b], [c, d]) = (m[0], m[1]);
                    [
                        (a.re * xr - a.im * xi) + (b.re * yr - b.im * yi),
                        (a.re * xi + a.im * xr) + (b.re * yi + b.im * yr),
                        (c.re * xr - c.im * xi) + (d.re * yr - d.im * yi),
                        (c.re * xi + c.im * xr) + (d.re * yi + d.im * yr),
                    ]
                };
                $walk
            }
        }
    }};
}

/// Applies `pair` to every lane of a run of amplitude pairs: `x` holds the
/// target-0 halves `(re, im)`, `y` the target-1 halves, all four the same
/// whole number of lane groups long. A shared matrix sweeps each run as
/// one flat loop; per-lane matrices go group by group, lane `r` with
/// `ms[r]`.
#[inline(always)]
fn pair_run(
    [xr, xi]: [&mut [f64]; 2],
    [yr, yi]: [&mut [f64]; 2],
    mats: Mats,
    pair: &impl Fn(&Matrix2, f64, f64, f64, f64) -> [f64; 4],
) {
    match mats {
        Mats::Shared(m) => {
            let m = *m;
            for (((xr, xi), yr), yi) in xr.iter_mut().zip(xi).zip(yr).zip(yi) {
                [*xr, *xi, *yr, *yi] = pair(&m, *xr, *xi, *yr, *yi);
            }
        }
        Mats::PerLane(ms, _) => {
            let lanes = ms.len();
            let groups = xr
                .chunks_exact_mut(lanes)
                .zip(xi.chunks_exact_mut(lanes))
                .zip(yr.chunks_exact_mut(lanes))
                .zip(yi.chunks_exact_mut(lanes));
            for (((xr, xi), yr), yi) in groups {
                let lane = xr.iter_mut().zip(xi).zip(yr).zip(yi).zip(ms);
                for ((((xr, xi), yr), yi), m) in lane {
                    [*xr, *xi, *yr, *yi] = pair(m, *xr, *xi, *yr, *yi);
                }
            }
        }
    }
}

/// Applies a single-qubit gate on wire `target` to every lane of `state`,
/// with the per-pair arithmetic of the matrices' [`Shape`].
#[inline(always)]
pub(crate) fn apply_single(state: &mut BatchState, mats: Mats, target: usize) {
    mats.check(state);
    with_pair_transform!(mats.shape(), |pair| single_walk(state, mats, target, pair))
}

/// Walks `2·stride` amplitude blocks, splitting each into its target-0 /
/// target-1 halves — two runs of `stride·R` contiguous `f64`s per
/// component, with no per-iteration bounds checks.
#[inline(always)]
fn single_walk(
    state: &mut BatchState,
    mats: Mats,
    target: usize,
    pair: impl Fn(&Matrix2, f64, f64, f64, f64) -> [f64; 4],
) {
    let run = (1usize << target) * state.rows();
    if run == 0 {
        return;
    }
    let (re, im) = state.parts_mut();
    for (rb, ib) in re
        .chunks_exact_mut(run << 1)
        .zip(im.chunks_exact_mut(run << 1))
    {
        let (xr, yr) = rb.split_at_mut(run);
        let (xi, yi) = ib.split_at_mut(run);
        pair_run([xr, xi], [yr, yi], mats, &pair);
    }
}

/// Applies a gate to every amplitude pair whose index has the control bit
/// set and the target bit clear, in every lane — the walk behind
/// controlled gates and [`StateVector::apply_controlled_projected`]. Only
/// control-1 pairs (a quarter of the state) are enumerated.
#[inline(always)]
pub(crate) fn apply_controlled(state: &mut BatchState, mats: Mats, control: usize, target: usize) {
    mats.check(state);
    with_pair_transform!(mats.shape(), |pair| control1_walk(
        state,
        mats,
        1usize << control,
        1usize << target,
        pair
    ))
}

/// Enumerates the control-1 pairs as runs: blocks of twice the larger
/// pinned-bit stride, sub-blocks of twice the smaller one, and in each a
/// run of `min(stride)·R` contiguous `f64`s on either side of the pair.
#[inline(always)]
fn control1_walk(
    state: &mut BatchState,
    mats: Mats,
    c_stride: usize,
    t_stride: usize,
    pair: impl Fn(&Matrix2, f64, f64, f64, f64) -> [f64; 4],
) {
    let lanes = state.rows();
    if lanes == 0 {
        return;
    }
    let (run, big) = (t_stride.min(c_stride), t_stride.max(c_stride));
    let dim = state.row_dim();
    let (re, im) = state.parts_mut();
    for hi in (0..dim).step_by(big << 1) {
        for mid in (0..big).step_by(run << 1) {
            let at = (hi + mid + c_stride) * lanes;
            let (xr, yr) = pair_halves(re, at, t_stride * lanes, run * lanes);
            let (xi, yi) = pair_halves(im, at, t_stride * lanes, run * lanes);
            pair_run([xr, xi], [yr, yi], mats, &pair);
        }
    }
}

/// The `len`-long runs of `v` at `at` and at `at + gap`.
#[inline(always)]
fn pair_halves(v: &mut [f64], at: usize, gap: usize, len: usize) -> (&mut [f64], &mut [f64]) {
    let (lo, hi) = v[at..].split_at_mut(gap);
    (&mut lo[..len], &mut hi[..len])
}

/// Zeroes every amplitude whose control bit is clear (both target halves),
/// in every lane — the projection step of
/// [`StateVector::apply_controlled_projected`].
pub(crate) fn zero_control0(state: &mut BatchState, control: usize) {
    let run = (1usize << control) * state.rows();
    if run == 0 {
        return;
    }
    let (re, im) = state.parts_mut();
    for v in [re, im] {
        for block in v.chunks_exact_mut(run << 1) {
            block[..run].fill(0.0);
        }
    }
}

/// Swaps wires `a` and `b` in every lane.
pub(crate) fn apply_swap(state: &mut BatchState, a: usize, b: usize) {
    let lanes = state.rows();
    let (ma, mb) = (1usize << a, 1usize << b);
    let dim = state.row_dim();
    let (re, im) = state.parts_mut();
    // Visit each (01, 10) pair exactly once.
    for k in (0..dim).filter(|k| k & ma != 0 && k & mb == 0) {
        let j = (k & !ma) | mb;
        let (lo, hi) = (k.min(j) * lanes, k.max(j) * lanes);
        for v in [&mut *re, &mut *im] {
            let (head, tail) = v.split_at_mut(hi);
            head[lo..lo + lanes].swap_with_slice(&mut tail[..lanes]);
        }
    }
}

/// Adds `Re(conj(λ_k)·μ_k)` to each lane's `out[r]` for every amplitude
/// `k` of a run, in index order — the lane fold step of the adjoint inner
/// products. `λ` and the pair components `x`/`y` are runs of the same
/// whole number of lane groups; `mu(m, x_re, x_im, y_re, y_im)` gives
/// `μ_k` of one lane.
#[inline(always)]
fn inner_run(
    out: &mut [f64],
    [lr, li]: [&[f64]; 2],
    [xr, xi, yr, yi]: [&[f64]; 4],
    mats: Mats,
    mu: &impl Fn(&Matrix2, f64, f64, f64, f64) -> (f64, f64),
) {
    let lanes = out.len();
    let groups = lr
        .chunks_exact(lanes)
        .zip(li.chunks_exact(lanes))
        .zip(xr.chunks_exact(lanes))
        .zip(xi.chunks_exact(lanes))
        .zip(yr.chunks_exact(lanes))
        .zip(yi.chunks_exact(lanes));
    for (((((lr, li), xr), xi), yr), yi) in groups {
        let lane = out
            .iter_mut()
            .zip(lr)
            .zip(li)
            .zip(xr)
            .zip(xi)
            .zip(yr)
            .zip(yi);
        match mats {
            Mats::Shared(m) => {
                let m = *m;
                for ((((((acc, lr), li), xr), xi), yr), yi) in lane {
                    let (mr, mi) = mu(&m, *xr, *xi, *yr, *yi);
                    *acc += lr * mr - (-li) * mi;
                }
            }
            Mats::PerLane(ms, _) => {
                for (((((((acc, lr), li), xr), xi), yr), yi), m) in lane.zip(ms) {
                    let (mr, mi) = mu(m, *xr, *xi, *yr, *yi);
                    *acc += lr * mr - (-li) * mi;
                }
            }
        }
    }
}

/// `Re⟨λ|M_target|ψ⟩` of every lane into `out` (one entry per lane),
/// without materialising `M·ψ` — the fused read-only kernel behind the
/// adjoint sweep's per-gate derivative term. Each `(M·ψ)_k` is the exact
/// expression [`apply_single`] writes for the matrices' [`Shape`], and each
/// lane folds its products from `+0` in amplitude-index order (each
/// `2·stride` block's target-0 half, then its target-1 half), as the real
/// part of [`StateVector::inner`] over the `M`-applied copy would.
#[inline(always)]
pub(crate) fn inner_single(
    lambda: &BatchState,
    psi: &BatchState,
    mats: Mats,
    target: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(lambda.parts().0.len(), psi.parts().0.len());
    mats.check(psi);
    out.fill(0.0);
    with_pair_transform!(mats.shape(), |pair| inner_single_walk(
        lambda, psi, mats, target, out, pair
    ))
}

/// The block walk of [`inner_single`]. Each half uses one output of
/// `pair`; the other is dead code once the transform is inlined.
#[inline(always)]
fn inner_single_walk(
    lambda: &BatchState,
    psi: &BatchState,
    mats: Mats,
    target: usize,
    out: &mut [f64],
    pair: impl Fn(&Matrix2, f64, f64, f64, f64) -> [f64; 4],
) {
    let run = (1usize << target) * psi.rows();
    if run == 0 {
        return;
    }
    let mu_x = |m: &Matrix2, xr, xi, yr, yi| {
        let [r, i, _, _] = pair(m, xr, xi, yr, yi);
        (r, i)
    };
    let mu_y = |m: &Matrix2, xr, xi, yr, yi| {
        let [_, _, r, i] = pair(m, xr, xi, yr, yi);
        (r, i)
    };
    let ((lr, li), (pr, pi)) = (lambda.parts(), psi.parts());
    let blocks = lr
        .chunks_exact(run << 1)
        .zip(li.chunks_exact(run << 1))
        .zip(pr.chunks_exact(run << 1))
        .zip(pi.chunks_exact(run << 1));
    for (((lr, li), pr), pi) in blocks {
        let ((lr0, lr1), (li0, li1)) = (lr.split_at(run), li.split_at(run));
        let ((xr, yr), (xi, yi)) = (pr.split_at(run), pi.split_at(run));
        inner_run(out, [lr0, li0], [xr, xi, yr, yi], mats, &mu_x);
        inner_run(out, [lr1, li1], [xr, xi, yr, yi], mats, &mu_y);
    }
}

/// `Re⟨λ|(|1⟩⟨1|_control ⊗ M_target)|ψ⟩` of every lane into `out` — the
/// fused counterpart of [`StateVector::apply_controlled_projected`]
/// followed by [`StateVector::inner`]. Each lane folds every amplitude in
/// index order: a control-0 index adds `Re(conj(λ_k)·0)`, a control-1 one
/// the exact [`apply_controlled`] expression — bitwise the
/// copy-apply-inner result.
#[inline(always)]
pub(crate) fn inner_controlled_projected(
    lambda: &BatchState,
    psi: &BatchState,
    mats: Mats,
    control: usize,
    target: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(lambda.parts().0.len(), psi.parts().0.len());
    mats.check(psi);
    out.fill(0.0);
    let lanes = psi.rows();
    if lanes == 0 {
        return;
    }
    let (c_mask, t_stride) = (1usize << control, 1usize << target);
    let ((lr, li), (pr, pi)) = (lambda.parts(), psi.parts());
    fn group(v: &[f64], k: usize, lanes: usize) -> &[f64] {
        &v[k * lanes..(k + 1) * lanes]
    }
    with_pair_transform!(mats.shape(), |pair| {
        let mu_x = |m: &Matrix2, xr, xi, yr, yi| {
            let [r, i, _, _] = pair(m, xr, xi, yr, yi);
            (r, i)
        };
        let mu_y = |m: &Matrix2, xr, xi, yr, yi| {
            let [_, _, r, i] = pair(m, xr, xi, yr, yi);
            (r, i)
        };
        for k in 0..psi.row_dim() {
            let l = [group(lr, k, lanes), group(li, k, lanes)];
            if k & c_mask == 0 {
                for ((acc, lr), li) in out.iter_mut().zip(l[0]).zip(l[1]) {
                    *acc += lr * 0.0 - (-li) * 0.0;
                }
                continue;
            }
            let (x, y) = (k & !t_stride, k | t_stride);
            let p = [
                group(pr, x, lanes),
                group(pi, x, lanes),
                group(pr, y, lanes),
                group(pi, y, lanes),
            ];
            if k & t_stride == 0 {
                inner_run(out, l, p, mats, &mu_x);
            } else {
                inner_run(out, l, p, mats, &mu_y);
            }
        }
    })
}

/// `Re⟨a|b⟩` of every lane into `out`, each lane folded from `+0` in
/// amplitude-index order — the real part of [`StateVector::inner`].
pub(crate) fn inner_re(a: &BatchState, b: &BatchState, out: &mut [f64]) {
    out.fill(0.0);
    let lanes = a.rows();
    if lanes == 0 {
        return;
    }
    let ((ar, ai), (br, bi)) = (a.parts(), b.parts());
    let groups = ar
        .chunks_exact(lanes)
        .zip(ai.chunks_exact(lanes))
        .zip(br.chunks_exact(lanes))
        .zip(bi.chunks_exact(lanes));
    for (((ar, ai), br), bi) in groups {
        for ((((acc, ar), ai), br), bi) in out.iter_mut().zip(ar).zip(ai).zip(br).zip(bi) {
            *acc += ar * br - (-ai) * bi;
        }
    }
}

/// `⟨ψ|Z_w|ψ⟩` of every lane for each wire `w` of `wires`, in one pass
/// over the state: `out[o·R + r]` is lane `r`'s expectation on
/// `wires[o]`. Each accumulator starts at `+0` and adds
/// `±(re² + im²)` in amplitude-index order, so every wire gets the bits
/// of a fold over the state for that wire alone.
#[inline(always)]
pub(crate) fn expectations_z(state: &BatchState, wires: &[usize], out: &mut [f64]) {
    let lanes = state.rows();
    debug_assert_eq!(out.len(), wires.len() * lanes);
    out.fill(0.0);
    if lanes == 0 {
        return;
    }
    let (re, im) = state.parts();
    for (k, (re, im)) in re
        .chunks_exact(lanes)
        .zip(im.chunks_exact(lanes))
        .enumerate()
    {
        for (&wire, acc) in wires.iter().zip(out.chunks_exact_mut(lanes)) {
            let sign = if k >> wire & 1 == 0 { 1.0 } else { -1.0 };
            for ((acc, re), im) in acc.iter_mut().zip(re).zip(im) {
                *acc += sign * (re * re + im * im);
            }
        }
    }
}

/// The adjoint seed `λ = Σ_o w_o·Z_{wires[o]}|ψ⟩` of every lane in one
/// pass, for readouts that are all single-qubit `Z`s; `weights[o·R + r]`
/// is lane `r`'s weight on `wires[o]`. Per lane and amplitude it is
/// exactly the three-pass build — copy `ψ`, apply the `Z` matrix with the
/// diagonal pair transform, then [`add_weighted`] — with the observables
/// in order: the same products of the same `Z` entries, added from `+0`,
/// and a zero weight leaves the lane untouched. So every lane holds the
/// three-pass bits while `ψ` is finite; a non-finite amplitude gives NaN
/// either way.
#[inline(always)]
pub(crate) fn seed_z(lambda: &mut BatchState, psi: &BatchState, wires: &[usize], weights: &[f64]) {
    let lanes = psi.rows();
    debug_assert_eq!(weights.len(), wires.len() * lanes);
    if lanes == 0 {
        return;
    }
    let z = GateKind::Z.matrix(0.0);
    let (pr, pi) = psi.parts();
    let (lr, li) = lambda.parts_mut();
    let amps = lr
        .chunks_exact_mut(lanes)
        .zip(li.chunks_exact_mut(lanes))
        .zip(pr.chunks_exact(lanes).zip(pi.chunks_exact(lanes)));
    for (k, ((lr, li), (pr, pi))) in amps.enumerate() {
        lr.fill(0.0);
        li.fill(0.0);
        for (&wire, w) in wires.iter().zip(weights.chunks_exact(lanes)) {
            // The target-0 half of a pair meets `z[0][0]`, the target-1
            // half `z[1][1]`; the off-diagonal zeros drop out.
            let e = if k >> wire & 1 == 0 { z[0][0] } else { z[1][1] };
            let lane = lr.iter_mut().zip(li.iter_mut()).zip(pr).zip(pi).zip(w);
            for ((((lr, li), xr), xi), w) in lane {
                if *w != 0.0 {
                    let (tr, ti) = (e.re * xr - e.im * xi, e.re * xi + e.im * xr);
                    *lr += tr * w;
                    *li += ti * w;
                }
            }
        }
    }
}

/// `acc += w_r · term` in every lane `r` whose weight is nonzero — one
/// observable's share of the adjoint seed `λ = Σ_o w_o·O_o|ψ⟩`. A zero
/// weight leaves its lane untouched.
pub(crate) fn add_weighted(acc: &mut BatchState, term: &BatchState, weights: &[f64]) {
    let lanes = weights.len();
    debug_assert_eq!(lanes, acc.rows());
    if lanes == 0 {
        return;
    }
    let (tr, ti) = term.parts();
    let (ar, ai) = acc.parts_mut();
    for (a, t) in [(ar, tr), (ai, ti)] {
        for (a, t) in a.chunks_exact_mut(lanes).zip(t.chunks_exact(lanes)) {
            for ((a, t), w) in a.iter_mut().zip(t).zip(weights) {
                *a = if *w != 0.0 { *a + t * w } else { *a };
            }
        }
    }
}

/// A pure quantum state over `n` qubits: 2ⁿ complex amplitudes in
/// little-endian wire order (wire `q` is bit `q` of the amplitude index),
/// stored as the one-lane case of [`BatchState`].
///
/// # Example
///
/// ```
/// use hqnn_qsim::{GateKind, StateVector};
///
/// // Build the Bell state (|00⟩ + |11⟩)/√2.
/// let mut s = StateVector::new(2);
/// s.apply_single(&GateKind::H.matrix(0.0), 0);
/// s.apply_controlled(&GateKind::X.matrix(0.0), 0, 1);
/// assert!((s.probability(0) - 0.5).abs() < 1e-12);
/// assert!((s.probability(3) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    lane: BatchState,
}

impl StateVector {
    /// Creates the computational basis state `|0…0⟩` on `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > MAX_QUBITS`.
    pub fn new(n_qubits: usize) -> Self {
        Self {
            lane: BatchState::new(n_qubits, 1),
        }
    }

    /// Creates a state from explicit amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the amplitude count is not a power of two ≥ 2, exceeds
    /// `2^MAX_QUBITS`, or the vector is not normalised to within `1e-9`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "amplitude count {len} is not a power of two >= 2"
        );
        let n_qubits = len.trailing_zeros() as usize;
        assert!(n_qubits <= MAX_QUBITS, "too many qubits");
        let norm: f64 = hqnn_tensor::fold::ordered_sum_f64(amps.iter().map(|a| a.norm_sqr()));
        assert!(
            (norm - 1.0).abs() < 1e-9,
            "state is not normalised: |ψ|² = {norm}"
        );
        let mut lane = BatchState::new(n_qubits, 1);
        let (re, im) = lane.parts_mut();
        for ((re, im), a) in re.iter_mut().zip(im).zip(&amps) {
            (*re, *im) = (a.re, a.im);
        }
        Self { lane }
    }

    /// Wraps one lane produced by an internal evolution path — a
    /// [`BatchState`] row, which is a unitary image of `|0…0⟩`.
    pub(crate) fn from_lane(lane: BatchState) -> Self {
        debug_assert_eq!(lane.rows(), 1);
        Self { lane }
    }

    /// The state as a one-lane [`BatchState`], for the kernels.
    pub(crate) fn lane(&self) -> &BatchState {
        &self.lane
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.lane.n_qubits()
    }

    /// The amplitudes (length `2^n_qubits`), in index order.
    pub fn amplitudes(&self) -> Vec<C64> {
        self.lane.row(0)
    }

    /// `⟨self|other⟩`, folded left to right in index order.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner(&self, other: &Self) -> C64 {
        assert_eq!(self.n_qubits(), other.n_qubits(), "qubit count mismatch");
        let ((ar, ai), (br, bi)) = (self.lane.parts(), other.lane.parts());
        hqnn_tensor::fold::ordered_sum(
            C64::ZERO,
            ar.iter()
                .zip(ai)
                .zip(br.iter().zip(bi))
                .map(|((ar, ai), (br, bi))| C64::new(*ar, *ai).conj() * C64::new(*br, *bi)),
        )
    }

    /// `|ψ|²` — should be 1 for any state produced by unitary evolution.
    pub fn norm_sqr(&self) -> f64 {
        let (re, im) = self.lane.parts();
        hqnn_tensor::fold::ordered_sum_f64(re.iter().zip(im).map(|(re, im)| re * re + im * im))
    }

    /// Probability of measuring computational basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n_qubits`.
    pub fn probability(&self, index: usize) -> f64 {
        let (re, im) = self.lane.parts();
        re[index] * re[index] + im[index] * im[index]
    }

    /// Fidelity `|⟨self|other⟩|²` between two pure states.
    pub fn fidelity(&self, other: &Self) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Applies a single-qubit unitary to `target`.
    ///
    /// The kernel walks the state in `2·stride` blocks and splits each block
    /// into its target-0 / target-1 halves, so the inner amplitude-pair loop
    /// runs over contiguous runs with no per-iteration bounds checks or
    /// index arithmetic. The arithmetic is `m·(a, b)ᵀ` per pair, minus the
    /// products with a zero entry of `m`, so for finite amplitudes every
    /// nonzero component is bitwise the scalar reference loop's and an
    /// exactly-zero one may differ only in sign. A dense matrix, or one with
    /// a NaN entry, runs the full expression.
    ///
    /// # Panics
    ///
    /// Panics if `target >= n_qubits`.
    pub fn apply_single(&mut self, m: &Matrix2, target: usize) {
        assert!(
            target < self.n_qubits(),
            "target wire {target} out of range"
        );
        baseline::apply_single(&mut self.lane, Mats::Shared(m), target);
    }

    /// Applies a single-qubit unitary to `target`, conditioned on `control`
    /// being `|1⟩` (covers CNOT, CZ, CRX, …).
    ///
    /// Only the control-1 amplitude pairs (a quarter of the state) are
    /// enumerated; the control-0 subspace is never touched or scanned.
    ///
    /// # Panics
    ///
    /// Panics if the wires coincide or are out of range.
    pub fn apply_controlled(&mut self, m: &Matrix2, control: usize, target: usize) {
        self.check_pair(control, target);
        baseline::apply_controlled(&mut self.lane, Mats::Shared(m), control, target);
    }

    /// Applies `(|1⟩⟨1| on control) ⊗ M` — the controlled *derivative*
    /// operator used by adjoint differentiation of controlled rotations.
    /// Unlike [`StateVector::apply_controlled`] this zeroes the control-0
    /// subspace instead of leaving it untouched.
    ///
    /// # Panics
    ///
    /// Panics if the wires coincide or are out of range.
    pub fn apply_controlled_projected(&mut self, m: &Matrix2, control: usize, target: usize) {
        self.check_pair(control, target);
        zero_control0(&mut self.lane, control);
        baseline::apply_controlled(&mut self.lane, Mats::Shared(m), control, target);
    }

    fn check_pair(&self, control: usize, target: usize) {
        assert!(control < self.n_qubits(), "control wire out of range");
        assert!(target < self.n_qubits(), "target wire out of range");
        assert_ne!(control, target, "control and target must differ");
    }

    /// Swaps wires `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the wires coincide or are out of range.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(
            a < self.n_qubits() && b < self.n_qubits(),
            "wire out of range"
        );
        assert_ne!(a, b, "swap wires must differ");
        apply_swap(&mut self.lane, a, b);
    }

    /// Expectation value `⟨ψ|Z_wire|ψ⟩ ∈ [-1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= n_qubits`.
    pub fn expectation_z(&self, wire: usize) -> f64 {
        assert!(wire < self.n_qubits(), "wire {wire} out of range");
        let mut out = [0.0];
        baseline::expectations_z(&self.lane, &[wire], &mut out);
        out[0]
    }

    /// `true` when all amplitudes are finite.
    pub fn all_finite(&self) -> bool {
        let (re, im) = self.lane.parts();
        re.iter().chain(im).all(|v| v.is_finite())
    }

    /// Elementwise approximate equality of amplitudes.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.n_qubits() == other.n_qubits()
            && self
                .amplitudes()
                .iter()
                .zip(other.amplitudes())
                .all(|(a, b)| a.approx_eq(b, tol))
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "StateVector({} qubits) [", self.n_qubits())?;
        for (i, a) in self.amplitudes().iter().enumerate() {
            if a.norm_sqr() > 1e-12 {
                writeln!(f, "  |{:0width$b}⟩: {a}", i, width = self.n_qubits())?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateKind;
    use crate::BatchState;

    #[test]
    fn new_state_is_ground() {
        let s = StateVector::new(3);
        assert_eq!(s.amplitudes()[0], C64::ONE);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(s.probability(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_rejected() {
        let _ = StateVector::new(0);
    }

    #[test]
    #[should_panic(expected = "MAX_QUBITS")]
    fn too_many_qubits_rejected() {
        let _ = StateVector::new(25);
    }

    #[test]
    fn x_flips_target_wire() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::X.matrix(0.0), 1);
        // |q1 q0⟩ = |10⟩ → index 2.
        assert_eq!(s.probability(2), 1.0);
    }

    #[test]
    fn hadamard_makes_uniform_superposition() {
        let mut s = StateVector::new(1);
        s.apply_single(&GateKind::H.matrix(0.0), 0);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cnot_truth_table() {
        // For each basis input, CNOT(control=0, target=1) flips bit 1 iff bit 0 set.
        for input in 0..4usize {
            let mut amps = vec![C64::ZERO; 4];
            amps[input] = C64::ONE;
            let mut s = StateVector::from_amplitudes(amps);
            s.apply_controlled(&GateKind::X.matrix(0.0), 0, 1);
            let expected = if input & 1 != 0 { input ^ 2 } else { input };
            assert!(
                (s.probability(expected) - 1.0).abs() < 1e-12,
                "input {input}"
            );
        }
    }

    #[test]
    fn bell_state_expectations() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::H.matrix(0.0), 0);
        s.apply_controlled(&GateKind::X.matrix(0.0), 0, 1);
        assert!(s.expectation_z(0).abs() < 1e-12);
        assert!(s.expectation_z(1).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rx_expectation_is_cosine() {
        for k in 0..10 {
            let theta = k as f64 * 0.37;
            let mut s = StateVector::new(1);
            s.apply_single(&GateKind::RX.matrix(theta), 0);
            assert!((s.expectation_z(0) - theta.cos()).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_exchanges_wires() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::X.matrix(0.0), 0); // |01⟩ (index 1)
        s.apply_swap(0, 1);
        assert_eq!(s.probability(2), 1.0); // |10⟩
    }

    #[test]
    fn swap_matches_three_cnots() {
        let mut a = StateVector::new(3);
        a.apply_single(&GateKind::H.matrix(0.0), 0);
        a.apply_single(&GateKind::RY.matrix(0.7), 2);
        let mut b = a.clone();
        a.apply_swap(0, 2);
        let x = GateKind::X.matrix(0.0);
        b.apply_controlled(&x, 0, 2);
        b.apply_controlled(&x, 2, 0);
        b.apply_controlled(&x, 0, 2);
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn inner_product_and_fidelity() {
        let s = StateVector::new(2);
        let mut t = StateVector::new(2);
        assert!((s.fidelity(&t) - 1.0).abs() < 1e-12);
        t.apply_single(&GateKind::X.matrix(0.0), 0);
        assert!(s.fidelity(&t) < 1e-12);
        assert_eq!(s.inner(&s), C64::ONE);
    }

    #[test]
    fn controlled_projected_zeroes_control_zero_subspace() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::H.matrix(0.0), 0);
        // After projection onto control=|1⟩ with identity on target,
        // only index 1 (|01⟩: q0=1) survives with amplitude 1/√2.
        s.apply_controlled_projected(&GateKind::I.matrix(0.0), 0, 1);
        assert!((s.amplitudes()[1].norm_sqr() - 0.5).abs() < 1e-12);
        assert_eq!(s.amplitudes()[0], C64::ZERO);
        assert_eq!(s.amplitudes()[2], C64::ZERO);
    }

    #[test]
    fn from_amplitudes_validates_norm() {
        let ok = StateVector::from_amplitudes(vec![C64::ONE, C64::ZERO]);
        assert_eq!(ok.n_qubits(), 1);
    }

    #[test]
    #[should_panic(expected = "not normalised")]
    fn from_amplitudes_rejects_unnormalised() {
        let _ = StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_bad_length() {
        let _ = StateVector::from_amplitudes(vec![C64::ONE, C64::ZERO, C64::ZERO]);
    }

    #[test]
    fn display_shows_nonzero_amplitudes() {
        let s = StateVector::new(2);
        let txt = s.to_string();
        assert!(txt.contains("|00⟩"));
        assert!(!txt.contains("|01⟩"));
    }

    #[test]
    fn kernels_treat_batch_buffer_as_independent_rows() {
        // Every kernel applied to a chunk of lanes must equal applying it to
        // each row alone, bitwise, for shared and per-lane matrices.
        let n = 3usize;
        let rows = 5usize; // deliberately not a power of two
        let mk_row = |r: usize| {
            let mut s = StateVector::new(n);
            s.apply_single(&GateKind::RY.matrix(0.3 + r as f64), 0);
            s.apply_single(&GateKind::H.matrix(0.0), 2);
            s.apply_controlled(&GateKind::X.matrix(0.0), 2, 1);
            s
        };
        let m = GateKind::RZ.matrix(0.77);
        let lane_ms: Vec<Matrix2> = (0..rows)
            .map(|r| GateKind::RX.matrix(0.2 * r as f64 - 0.3))
            .collect();

        let mut per_row: Vec<StateVector> = (0..rows).map(mk_row).collect();
        for (s, lm) in per_row.iter_mut().zip(&lane_ms) {
            s.apply_single(&m, 1);
            s.apply_controlled(&m, 0, 2);
            s.apply_swap(0, 1);
            s.apply_single(lm, 2);
            s.apply_controlled(lm, 1, 0);
            s.apply_controlled_projected(&m, 2, 0);
        }
        let mut batch = BatchState::from_states(&(0..rows).map(mk_row).collect::<Vec<_>>());
        baseline::apply_single(&mut batch, Mats::Shared(&m), 1);
        baseline::apply_controlled(&mut batch, Mats::Shared(&m), 0, 2);
        apply_swap(&mut batch, 0, 1);
        baseline::apply_single(&mut batch, Mats::per_lane(&lane_ms), 2);
        baseline::apply_controlled(&mut batch, Mats::per_lane(&lane_ms), 1, 0);
        zero_control0(&mut batch, 2);
        baseline::apply_controlled(&mut batch, Mats::Shared(&m), 2, 0);

        let mut z = vec![0.0; rows];
        baseline::expectations_z(&batch, &[1], &mut z);
        for (r, want) in per_row.iter().enumerate() {
            assert_eq!(batch.row(r), want.amplitudes(), "row {r}");
            assert_eq!(z[r].to_bits(), want.expectation_z(1).to_bits(), "row {r}");
        }
    }

    #[test]
    fn fused_inner_kernels_match_copy_apply_inner_bitwise() {
        // Re⟨λ|dU|ψ⟩ without the scratch state must reproduce the
        // copy + apply + `inner` sequence bit for bit, on every wire
        // combination.
        let n = 8;
        let mk = |seed: f64| {
            let mut s = StateVector::new(n);
            for w in 0..n {
                s.apply_single(&GateKind::RY.matrix(seed + 0.37 * w as f64), w);
                s.apply_single(&GateKind::RZ.matrix(seed * 1.3 - 0.21 * w as f64), w);
            }
            for w in 0..n - 1 {
                s.apply_controlled(&GateKind::X.matrix(0.0), w, w + 1);
            }
            s
        };
        let (psi, lambda) = (mk(0.4), mk(-1.1));
        let dm = GateKind::RX.dmatrix(0.83).unwrap();
        let mut got = [0.0];
        for t in 0..n {
            let mut mu = psi.clone();
            mu.apply_single(&dm, t);
            let want = lambda.inner(&mu).re;
            baseline::inner_single(lambda.lane(), psi.lane(), Mats::Shared(&dm), t, &mut got);
            assert_eq!(got[0].to_bits(), want.to_bits(), "t={t}");
            for c in (0..n).filter(|&c| c != t) {
                let mut mu = psi.clone();
                mu.apply_controlled_projected(&dm, c, t);
                let want = lambda.inner(&mu).re;
                baseline::inner_controlled_projected(
                    lambda.lane(),
                    psi.lane(),
                    Mats::Shared(&dm),
                    c,
                    t,
                    &mut got,
                );
                assert_eq!(got[0].to_bits(), want.to_bits(), "c={c} t={t}");
            }
        }
    }

    #[test]
    fn lane_folds_match_one_lane_folds_bitwise() {
        // Each lane of a chunk folds exactly as the same row alone: inner
        // products with shared and per-lane matrices, including a chunk
        // whose lanes disagree on the matrix shape (angle 0 is diagonal,
        // ±π and 1.1 are not, NaN is general).
        let n = 4;
        let mk = |seed: f64| {
            let mut s = StateVector::new(n);
            for w in 0..n {
                s.apply_single(&GateKind::RY.matrix(seed + 0.41 * w as f64), w);
                s.apply_single(&GateKind::RZ.matrix(seed - 0.17 * w as f64), w);
            }
            s.apply_controlled(&GateKind::X.matrix(0.0), 0, 3);
            s
        };
        let pi = std::f64::consts::PI;
        let angles = [0.0, pi, -pi, 1.1, f64::NAN, 0.0];
        let psis: Vec<StateVector> = (0..angles.len()).map(|r| mk(0.3 * r as f64)).collect();
        let lambdas: Vec<StateVector> = (0..angles.len()).map(|r| mk(-0.7 * r as f64)).collect();
        let (psi, lambda) = (
            BatchState::from_states(&psis),
            BatchState::from_states(&lambdas),
        );
        let bits = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        for kind in [GateKind::RX, GateKind::RY, GateKind::RZ] {
            let dms: Vec<Matrix2> = angles.iter().map(|&a| kind.dmatrix(a).unwrap()).collect();
            let mut got = vec![0.0; angles.len()];
            let mut one = [0.0];
            for t in 0..n {
                baseline::inner_single(&lambda, &psi, Mats::per_lane(&dms), t, &mut got);
                for (r, dm) in dms.iter().enumerate() {
                    let mut mu = psis[r].clone();
                    mu.apply_single(dm, t);
                    let want = lambdas[r].inner(&mu).re;
                    assert_eq!(bits(got[r]), bits(want), "{kind:?} t={t} lane {r}");
                }
                baseline::inner_single(&lambda, &psi, Mats::Shared(&dms[3]), t, &mut got);
                for r in 0..angles.len() {
                    baseline::inner_single(
                        lambdas[r].lane(),
                        psis[r].lane(),
                        Mats::Shared(&dms[3]),
                        t,
                        &mut one,
                    );
                    assert_eq!(
                        got[r].to_bits(),
                        one[0].to_bits(),
                        "{kind:?} t={t} lane {r}"
                    );
                }
                for c in (0..n).filter(|&c| c != t) {
                    baseline::inner_controlled_projected(
                        &lambda,
                        &psi,
                        Mats::per_lane(&dms),
                        c,
                        t,
                        &mut got,
                    );
                    for (r, dm) in dms.iter().enumerate() {
                        let mut mu = psis[r].clone();
                        mu.apply_controlled_projected(dm, c, t);
                        let want = lambdas[r].inner(&mu).re;
                        assert_eq!(bits(got[r]), bits(want), "{kind:?} c={c} t={t} lane {r}");
                    }
                }
            }
        }
    }

    /// The general interleaved `⟨λ|M_target|ψ⟩` loop, every product kept.
    fn reference_inner_single(lambda: &[C64], psi: &[C64], m: &Matrix2, target: usize) -> C64 {
        let stride = 1usize << target;
        let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
        let mut acc = C64::ZERO;
        for (lb, pb) in lambda
            .chunks_exact(stride << 1)
            .zip(psi.chunks_exact(stride << 1))
        {
            let (p0, p1) = pb.split_at(stride);
            let (l0, l1) = lb.split_at(stride);
            for ((l, x), y) in l0.iter().zip(p0).zip(p1) {
                acc += l.conj() * (m00 * *x + m01 * *y);
            }
            for ((l, x), y) in l1.iter().zip(p0).zip(p1) {
                acc += l.conj() * (m10 * *x + m11 * *y);
            }
        }
        acc
    }

    /// The general interleaved `⟨λ|(|1⟩⟨1| ⊗ M)|ψ⟩` fold, every product kept.
    fn reference_inner_controlled_projected(
        lambda: &[C64],
        psi: &[C64],
        m: &Matrix2,
        control: usize,
        target: usize,
    ) -> C64 {
        let (c_mask, t_stride) = (1usize << control, 1usize << target);
        let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
        let mut acc = C64::ZERO;
        for (k, l) in lambda.iter().enumerate() {
            let mu = if k & c_mask == 0 {
                C64::ZERO
            } else if k & t_stride == 0 {
                m00 * psi[k] + m01 * psi[k | t_stride]
            } else {
                m10 * psi[k ^ t_stride] + m11 * psi[k]
            };
            acc += l.conj() * mu;
        }
        acc
    }

    #[test]
    fn shape_is_read_from_the_matrix_values() {
        use Shape::*;
        let theta = 0.83;
        let expect = [
            (GateKind::I, Diagonal, None),
            (GateKind::H, Real, None),
            (GateKind::X, Real, None),
            (GateKind::Y, ImagOffDiagonal, None),
            (GateKind::Z, Diagonal, None),
            (GateKind::S, Diagonal, None),
            (GateKind::T, Diagonal, None),
            (GateKind::RX, ImagOffDiagonal, Some(ImagOffDiagonal)),
            (GateKind::RY, Real, Some(Real)),
            (GateKind::RZ, Diagonal, Some(Diagonal)),
            (GateKind::PhaseShift, Diagonal, Some(Diagonal)),
            (GateKind::Cnot, Real, None),
            (GateKind::Cz, Diagonal, None),
            (GateKind::Crx, ImagOffDiagonal, Some(ImagOffDiagonal)),
            (GateKind::Cry, Real, Some(Real)),
            (GateKind::Crz, Diagonal, Some(Diagonal)),
        ];
        for (kind, shape, dshape) in expect {
            let m = kind.matrix(theta);
            assert_eq!(Shape::of(&m), shape, "{kind:?}");
            assert_eq!(Shape::of(&crate::gates::dagger(&m)), shape, "{kind:?}†");
            assert_eq!(
                kind.dmatrix(theta).map(|d| Shape::of(&d)),
                dshape,
                "d{kind:?}"
            );
        }
        // A rotation at angle 0 is the identity, hence diagonal.
        assert_eq!(Shape::of(&GateKind::RX.matrix(0.0)), Diagonal);
        let dense = [
            [C64::new(0.6, 0.1), C64::new(-0.2, 0.7)],
            [C64::new(0.3, -0.4), C64::new(0.5, 0.2)],
        ];
        assert_eq!(Shape::of(&dense), General);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut m = GateKind::I.matrix(0.0);
            m[r][c].im = f64::NAN;
            assert_eq!(Shape::of(&m), General, "NaN at ({r}, {c})");
        }
    }

    #[test]
    fn structured_inner_kernels_match_the_general_fold_bitwise() {
        // The specialised `(M·ψ)_k` may differ from the general one only
        // in the sign of an exact zero, and the fold starts at +0, so the
        // real parts the adjoint reads must match to the bit — on dense states and on
        // encoded product states full of exact zeros.
        let n = 7;
        let dense = |seed: f64| {
            let mut s = StateVector::new(n);
            for w in 0..n {
                s.apply_single(&GateKind::RY.matrix(seed + 0.37 * w as f64), w);
                s.apply_single(&GateKind::RZ.matrix(seed * 1.3 - 0.21 * w as f64), w);
            }
            for w in 0..n - 1 {
                s.apply_controlled(&GateKind::X.matrix(0.0), w, w + 1);
            }
            s
        };
        let encoded = |kind: GateKind, seed: f64| {
            let mut s = StateVector::new(n);
            for w in 0..n {
                s.apply_single(&kind.matrix(seed - 0.53 * w as f64), w);
            }
            s
        };
        let states = [
            (dense(0.4), dense(-1.1)),
            (encoded(GateKind::RY, 0.9), encoded(GateKind::RX, -0.6)),
            (encoded(GateKind::RX, 1.7), dense(0.2)),
        ];
        let mut got = [0.0];
        for kind in [
            GateKind::H,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::T,
            GateKind::RX,
            GateKind::RY,
            GateKind::RZ,
            GateKind::PhaseShift,
        ] {
            let m = kind.matrix(1.234);
            let mut ms = vec![m, crate::gates::dagger(&m)];
            ms.extend(kind.dmatrix(1.234));
            for m in &ms {
                for (psi, lambda) in &states {
                    let (l, p) = (&lambda.amplitudes(), &psi.amplitudes());
                    let (ll, pl) = (lambda.lane(), psi.lane());
                    for t in 0..n {
                        let want = reference_inner_single(l, p, m, t).re;
                        baseline::inner_single(ll, pl, Mats::Shared(m), t, &mut got);
                        assert_eq!(got[0].to_bits(), want.to_bits(), "{kind:?} t={t}");
                        for c in (0..n).filter(|&c| c != t) {
                            let want = reference_inner_controlled_projected(l, p, m, c, t).re;
                            baseline::inner_controlled_projected(
                                ll,
                                pl,
                                Mats::Shared(m),
                                c,
                                t,
                                &mut got,
                            );
                            assert_eq!(got[0].to_bits(), want.to_bits(), "{kind:?} c={c} t={t}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_pass_z_seed_and_reads_match_per_observable_passes_bitwise() {
        // A 3-qubit chunk of 5 lanes holding arbitrary finite values and
        // signed zeros, and weights with `±0`, a NaN and repeated wires:
        // the one-pass seed must equal copy / apply-`Z` / `add_weighted`
        // per observable, and the one-pass reads each single-wire fold,
        // bit for bit. (Non-finite amplitudes give NaN either way; the
        // optimiser may fold `-1·x` to `-x`, so a NaN's sign is not pinned,
        // as DESIGN.md §9 sets out.)
        let (n, lanes) = (3, 5);
        let mut psi = BatchState::zeroed(n, lanes);
        let specials = [0.0, -0.0];
        let (re, im) = psi.parts_mut();
        for (i, (re, im)) in re.iter_mut().zip(im).enumerate() {
            *re = specials
                .get(i % 11)
                .copied()
                .unwrap_or(i as f64 * 0.37 - 3.0);
            *im = specials
                .get(i % 13)
                .copied()
                .unwrap_or(1.1 - i as f64 * 0.21);
        }
        let wires = [2, 0, 1, 0];
        let weights: Vec<f64> = (0..wires.len() * lanes)
            .map(|i| match i % 7 {
                0 => 0.0,
                3 => -0.0,
                5 if i == 12 => f64::NAN,
                _ => i as f64 * 0.3 - 2.0,
            })
            .collect();

        let mut want = BatchState::zeroed(n, lanes);
        let z = GateKind::Z.matrix(0.0);
        for (&wire, w) in wires.iter().zip(weights.chunks_exact(lanes)) {
            let mut term = psi.clone();
            baseline::apply_single(&mut term, Mats::Shared(&z), wire);
            add_weighted(&mut want, &term, w);
        }
        let mut got = BatchState::zeroed(n, lanes);
        got.parts_mut().0.fill(7.0);
        baseline::seed_z(&mut got, &psi, &wires, &weights);
        let bits = |b: &BatchState| {
            let (re, im) = b.parts();
            re.iter().chain(im).map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want));

        let mut all = vec![0.0; wires.len() * lanes];
        baseline::expectations_z(&psi, &wires, &mut all);
        for (&wire, got) in wires.iter().zip(all.chunks_exact(lanes)) {
            let mut one = vec![0.0; lanes];
            baseline::expectations_z(&psi, &[wire], &mut one);
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&one), "wire {wire}");
        }
    }
}
