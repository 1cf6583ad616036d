//! Property tests: batched execution is bitwise identical to the per-row
//! sequential loop across random circuits, batch sizes, and thread budgets.
//!
//! This is the determinism contract the whole refactor rests on — training
//! curves, search winners, and cached study JSON must not change when
//! `HQNN_THREADS` does.

use hqnn_qsim::{gradients_batch, vjp_batch, Circuit, Observable, ParamSource};
use hqnn_tensor::Matrix;
use proptest::prelude::*;

/// Thread budgets exercised per case: sequential, even, and an odd count
/// that never divides batch sizes cleanly.
const THREADS: [usize; 3] = [1, 2, 7];

/// A random scenario: an input-encoded variational circuit (every wire gets
/// an encoding rotation, then alternating trainable-rotation + entangling
/// rings), its parameter vector, and a random input batch.
fn scenario() -> impl Strategy<Value = (Circuit, Vec<f64>, Matrix)> {
    (2usize..=4, 1usize..=3, 0u8..3)
        .prop_map(|(n, depth, axis)| {
            let mut c = Circuit::new(n);
            for w in 0..n {
                c.rx(w, ParamSource::Input(w));
            }
            let mut slot = 0;
            for d in 0..depth {
                for w in 0..n {
                    let p = ParamSource::Trainable(slot);
                    slot += 1;
                    match (axis as usize + d + w) % 3 {
                        0 => c.rx(w, p),
                        1 => c.ry(w, p),
                        _ => c.rz(w, p),
                    }
                }
                for w in 0..n {
                    c.cnot(w, (w + 1) % n);
                }
            }
            c
        })
        .prop_flat_map(|c| {
            let n_params = c.trainable_count();
            let cols = c.input_count();
            let params = proptest::collection::vec(-3.0f64..3.0, n_params..=n_params.max(1));
            let batch = (1usize..=9).prop_flat_map(move |rows| {
                proptest::collection::vec(-2.0f64..2.0, rows * cols)
                    .prop_map(move |data| Matrix::from_vec(rows, cols, data))
            });
            (Just(c), params, batch)
        })
}

fn z_all(n: usize) -> Vec<Observable> {
    (0..n).map(Observable::z).collect()
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_batch_bitwise_matches_sequential((c, params, x) in scenario()) {
        let seq: Vec<Vec<(u64, u64)>> = (0..x.rows())
            .map(|r| {
                c.run(x.row(r), &params)
                    .amplitudes()
                    .iter()
                    .map(|a| (a.re.to_bits(), a.im.to_bits()))
                    .collect()
            })
            .collect();
        for threads in THREADS {
            let batch = hqnn_runtime::with_threads(threads, || c.run_batch(&x, &params));
            let got: Vec<Vec<(u64, u64)>> = batch
                .iter()
                .map(|s| s.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect())
                .collect();
            prop_assert_eq!(&got, &seq, "threads={}", threads);
        }
    }

    #[test]
    fn expectations_batch_bitwise_matches_sequential((c, params, x) in scenario()) {
        let obs = z_all(c.n_qubits());
        let mut seq = Vec::with_capacity(x.rows() * obs.len());
        for r in 0..x.rows() {
            seq.extend(c.expectations(x.row(r), &params, &obs));
        }
        let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
        for threads in THREADS {
            let got = hqnn_runtime::with_threads(threads, || {
                c.expectations_batch(&x, &params, &obs)
            });
            prop_assert_eq!((got.rows(), got.cols()), (x.rows(), obs.len()));
            prop_assert_eq!(&bits(&got), &seq_bits, "threads={}", threads);
        }
    }

    #[test]
    fn gradients_batch_bitwise_matches_sequential((c, params, x) in scenario()) {
        let obs = z_all(c.n_qubits());
        let seq: Vec<_> = (0..x.rows())
            .map(|r| hqnn_qsim::parameter_shift(&c, x.row(r), &params, &obs))
            .collect();
        for threads in THREADS {
            let got =
                hqnn_runtime::with_threads(threads, || gradients_batch(&c, &x, &params, &obs));
            prop_assert_eq!(got.len(), seq.len());
            for (r, (g, s)) in got.iter().zip(&seq).enumerate() {
                // Gradients derives PartialEq over exact f64s: equality
                // here *is* the bitwise claim (no NaNs in these circuits).
                prop_assert_eq!(g, s, "threads={} row={}", threads, r);
            }
        }
    }

    #[test]
    fn vjp_batch_bitwise_matches_sequential((c, params, x) in scenario()) {
        let obs = z_all(c.n_qubits());
        // Deterministic upstream gradients with an exact zero in the mix.
        let w = Matrix::from_vec(
            x.rows(),
            obs.len(),
            (0..x.rows() * obs.len())
                .map(|i| if i % 5 == 3 { 0.0 } else { (i as f64 * 0.37).sin() })
                .collect(),
        );
        let seq: Vec<_> = (0..x.rows())
            .map(|r| hqnn_qsim::adjoint_vjp(&c, x.row(r), &params, &obs, w.row(r)))
            .collect();
        for threads in THREADS {
            let got = hqnn_runtime::with_threads(threads, || vjp_batch(&c, &x, &params, &obs, &w));
            // `Vjp` derives PartialEq over exact f64s: equality is the
            // bitwise claim.
            prop_assert_eq!(&got, &seq, "threads={}", threads);
        }
    }
}
