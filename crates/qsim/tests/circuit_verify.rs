//! Malformed-IR rejection tests for `Circuit::verify`.
//!
//! `Circuit::push` panics on malformed ops, so the only way real malformed
//! IR reaches the simulator is **deserialization** — saved models, cached
//! study JSON, hand-edited fixtures. These tests craft exactly such JSON and
//! assert that `verify()` rejects each defect with an actionable message
//! (op index + what to fix), and that well-formed circuits — including
//! every BEL/SEL template the search space can emit — are accepted.

use hqnn_qsim::{Circuit, EntanglerKind, QnnTemplate, VerifyError};

/// Builds circuit JSON with the given ops array (raw JSON), wire and slot
/// declarations — the exact shape `serde_json::to_string(&Circuit)` emits.
fn circuit_json(n_qubits: usize, ops: &str, n_inputs: usize, n_trainable: usize) -> String {
    format!(
        r#"{{"n_qubits":{n_qubits},"ops":[{ops}],"n_inputs":{n_inputs},"n_trainable":{n_trainable}}}"#
    )
}

fn parse(json: &str) -> Circuit {
    serde_json::from_str(json).expect("fixture JSON must deserialize")
}

#[test]
fn roundtripped_valid_circuit_verifies() {
    let c = QnnTemplate::new(3, 2, EntanglerKind::Strong).build();
    let json = serde_json::to_string(&c).expect("serialize");
    let restored: Circuit = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(restored.verify(), Ok(()));
    assert_eq!(restored, c);
}

#[test]
fn rejects_out_of_range_wire() {
    // H on wire 5 of a 2-qubit circuit.
    let c = parse(&circuit_json(
        2,
        r#"{"kind":"H","wires":{"One":5},"param":"None"}"#,
        0,
        0,
    ));
    let err = c.verify().expect_err("must reject");
    assert!(matches!(
        err,
        VerifyError::WireOutOfRange {
            op: 0,
            wire: 5,
            n_qubits: 2,
            ..
        }
    ));
    let msg = err.to_string();
    assert!(msg.contains("op 0"), "names the op: {msg}");
    assert!(msg.contains("wire 5"), "names the wire: {msg}");
    assert!(msg.contains("0..2"), "states the valid range: {msg}");
}

#[test]
fn rejects_duplicate_control_and_target() {
    let c = parse(&circuit_json(
        2,
        r#"{"kind":"Cnot","wires":{"Two":[1,1]},"param":"None"}"#,
        0,
        0,
    ));
    let err = c.verify().expect_err("must reject");
    assert!(matches!(
        err,
        VerifyError::DuplicateWires { op: 0, wire: 1, .. }
    ));
    assert!(err.to_string().contains("distinct wires"), "{err}");
}

#[test]
fn rejects_arity_mismatch() {
    // CNOT with a single wire.
    let c = parse(&circuit_json(
        2,
        r#"{"kind":"Cnot","wires":{"One":0},"param":"None"}"#,
        0,
        0,
    ));
    let err = c.verify().expect_err("must reject");
    assert!(matches!(
        err,
        VerifyError::ArityMismatch {
            op: 0,
            expected: 2,
            got: 1,
            ..
        }
    ));
}

#[test]
fn rejects_bad_parameter_indices() {
    // RX reads trainable slot 7 but the circuit declares only 2 slots.
    let c = parse(&circuit_json(
        1,
        r#"{"kind":"RX","wires":{"One":0},"param":{"Trainable":7}}"#,
        0,
        2,
    ));
    let err = c.verify().expect_err("must reject");
    assert!(matches!(
        err,
        VerifyError::ParamIndexOutOfRange {
            op: 0,
            index: 7,
            declared: 2,
            source: "trainable",
            ..
        }
    ));
    let msg = err.to_string();
    assert!(
        msg.contains("slot 7") && msg.contains("2"),
        "actionable: {msg}"
    );

    // Same for an input slot.
    let c = parse(&circuit_json(
        1,
        r#"{"kind":"RY","wires":{"One":0},"param":{"Input":3}}"#,
        1,
        0,
    ));
    let err = c.verify().expect_err("must reject");
    assert!(matches!(
        err,
        VerifyError::ParamIndexOutOfRange {
            index: 3,
            declared: 1,
            source: "input",
            ..
        }
    ));
}

#[test]
fn rejects_missing_and_unexpected_parameters() {
    let c = parse(&circuit_json(
        1,
        r#"{"kind":"RZ","wires":{"One":0},"param":"None"}"#,
        0,
        0,
    ));
    assert!(matches!(
        c.verify().expect_err("rotation without parameter"),
        VerifyError::MissingParam { op: 0, .. }
    ));

    let c = parse(&circuit_json(
        1,
        r#"{"kind":"H","wires":{"One":0},"param":{"Fixed":0.5}}"#,
        0,
        0,
    ));
    assert!(matches!(
        c.verify().expect_err("fixed gate with parameter"),
        VerifyError::UnexpectedParam { op: 0, .. }
    ));
}

#[test]
fn rejects_non_unitary_fixed_matrix() {
    // The IR stores gate kind + angle rather than raw matrices, so the one
    // way serialized data can smuggle a non-unitary matrix past the type
    // system is a non-finite fixed angle (every finite angle yields a
    // unitary rotation; NaN/inf yield matrices of NaNs). `1e400` overflows
    // JSON number parsing to +inf and must be rejected before it poisons a
    // statevector.
    let c = parse(&circuit_json(
        1,
        r#"{"kind":"RX","wires":{"One":0},"param":{"Fixed":1e400}}"#,
        0,
        0,
    ));
    let err = c.verify().expect_err("must reject");
    assert!(
        matches!(err, VerifyError::NonFiniteAngle { op: 0, .. }),
        "got {err:?}"
    );
    assert!(err.to_string().contains("not finite"), "{err}");

    // The unitarity detector itself flags a genuinely skewed matrix (and
    // the NonUnitary rendering tells the user which op and by how much).
    let mut skewed = hqnn_qsim::GateKind::H.matrix(0.0);
    skewed[0][0] = skewed[0][0].scale(1.0 + 1e-6);
    assert!(hqnn_qsim::unitarity_deviation(&skewed) > hqnn_qsim::UNITARITY_TOL);
    let rendered = VerifyError::NonUnitary {
        op: 3,
        kind: hqnn_qsim::GateKind::H,
        theta: 0.0,
        deviation: 2e-6,
    }
    .to_string();
    assert!(
        rendered.contains("op 3") && rendered.contains("unitarity"),
        "{rendered}"
    );
}

#[test]
fn second_op_defect_is_reported_at_its_index() {
    let ops = concat!(
        r#"{"kind":"H","wires":{"One":0},"param":"None"},"#,
        r#"{"kind":"Cz","wires":{"Two":[0,3]},"param":"None"}"#
    );
    let c = parse(&circuit_json(2, ops, 0, 0));
    let err = c.verify().expect_err("must reject");
    assert!(matches!(
        err,
        VerifyError::WireOutOfRange { op: 1, wire: 3, .. }
    ));
    assert!(err.to_string().starts_with("op 1"), "{err}");
}

#[test]
fn verify_is_cheap_enough_for_debug_constructors() {
    // Not a benchmark — just a sanity check that a deep template verifies
    // without pathological cost (verification is linear in ops).
    let c = QnnTemplate::new(6, 8, EntanglerKind::Strong).build();
    for _ in 0..100 {
        assert_eq!(c.verify(), Ok(()));
    }
}
