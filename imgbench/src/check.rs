//! Output checks, run untimed after the measured calls. Each returns
//! `Err(reason)` on a mismatch, which the workload counts as a failed
//! operation.
//!
//! Three kinds of evidence, strongest first:
//!
//! * a **dense oracle** — state vectors pushed through every Kraus branch
//!   with `qits_circuit::sim` and joined with `qits_num::linalg`, compared
//!   with the image (or reachable space) subspace for equality;
//! * the **analytic image** where the family has one (BV, GHZ, Grover's
//!   invariant subspace, the repetition code's all-zeros codeword);
//! * **properties every image has**: an orthonormal basis and a dimension
//!   of at most branches × input dimension.

use qits::Subspace;
use qits_circuit::generators::QtsSpec;
use qits_circuit::sim;
use qits_num::{linalg, Cplx};
use qits_tdd::{Edge, TddManager};

/// Absolute tolerance of every numerical comparison below.
pub const TOL: f64 = 1e-6;

/// Largest register the dense checks expand (`2^n` amplitudes per vector).
pub const DENSE_MAX_QUBITS: u32 = 16;

/// Orthonormal basis of the dense image `T(S0)` of a spec.
pub fn dense_image(spec: &QtsSpec) -> Vec<Vec<Cplx>> {
    let inputs: Vec<Vec<Cplx>> = spec
        .initial_states
        .iter()
        .map(|amps| sim::product_state(amps))
        .collect();
    let input_basis = linalg::gram_schmidt(&inputs);
    let mut out = Vec::new();
    for op in &spec.operations {
        for branch in op.kraus_branches() {
            for v in &input_basis {
                out.push(sim::run(&branch, v));
            }
        }
    }
    linalg::gram_schmidt(&out)
}

/// Orthonormal basis of the dense reachable space of a spec: the least
/// fixpoint of `S <- S v T(S)`, computed by imaging only the vectors the
/// previous round added (sound by linearity).
pub fn dense_reachable(spec: &QtsSpec) -> Vec<Vec<Cplx>> {
    let inputs: Vec<Vec<Cplx>> = spec
        .initial_states
        .iter()
        .map(|amps| sim::product_state(amps))
        .collect();
    let mut basis = linalg::gram_schmidt(&inputs);
    let branches: Vec<_> = spec
        .operations
        .iter()
        .flat_map(|op| op.kraus_branches())
        .collect();
    let mut frontier = basis.clone();
    while !frontier.is_empty() {
        let mut added = Vec::new();
        for v in &frontier {
            for b in &branches {
                let w = sim::run(b, v);
                if let Some(u) = residual(&basis, &w) {
                    basis.push(u.clone());
                    added.push(u);
                }
            }
        }
        frontier = added;
    }
    basis
}

/// The normalised component of `v` orthogonal to the orthonormal `basis`,
/// or `None` when `v` lies in its span.
fn residual(basis: &[Vec<Cplx>], v: &[Cplx]) -> Option<Vec<Cplx>> {
    let scale = linalg::norm(v);
    if scale <= TOL {
        return None;
    }
    let mut u = v.to_vec();
    // Two passes of modified Gram–Schmidt keep the basis orthonormal to
    // working precision even after hundreds of vectors.
    for _ in 0..2 {
        for b in basis {
            let c = linalg::inner(b, &u);
            u = linalg::axpy_neg(&u, c, b);
        }
    }
    let n = linalg::norm(&u);
    if n <= TOL * scale {
        return None;
    }
    linalg::scale_in_place(&mut u, Cplx::real(1.0 / n));
    Some(u)
}

/// Amplitudes of every basis ket of `s`, qubit 0 most significant.
pub fn densify(m: &TddManager, s: &Subspace) -> Vec<Vec<Cplx>> {
    let vars = Subspace::ket_vars(s.n_qubits());
    s.basis()
        .iter()
        .map(|&e| m.to_tensor(e, &vars).as_slice().to_vec())
        .collect()
}

/// Equal subspaces: the same dimension, and every vector of `got` inside
/// the span of the orthonormal `oracle`.
pub fn same_span(oracle: &[Vec<Cplx>], got: &[Vec<Cplx>]) -> Result<(), String> {
    if oracle.len() != got.len() {
        return Err(format!(
            "dimension {} where the dense oracle has {}",
            got.len(),
            oracle.len()
        ));
    }
    for (i, v) in got.iter().enumerate() {
        if residual(oracle, v).is_some() {
            return Err(format!(
                "basis vector {i} lies outside the dense oracle's span"
            ));
        }
    }
    Ok(())
}

/// `‖BᴴB − I‖_max` of the kets `b` on `n` qubits, by TDD inner products.
pub fn orthonormality_error(m: &mut TddManager, n: u32, b: &[Edge]) -> f64 {
    let vars = Subspace::ket_vars(n);
    let mut worst = 0.0f64;
    for i in 0..b.len() {
        for j in i..b.len() {
            let g = m.inner_product(b[i], b[j], &vars);
            let want = if i == j { Cplx::ONE } else { Cplx::ZERO };
            worst = worst.max((g - want).abs());
        }
    }
    worst
}

/// Properties every image has: an orthonormal basis, and at most one new
/// dimension per (branch, input basis vector) pair.
pub fn image_properties(
    m: &mut TddManager,
    img: &Subspace,
    branches: usize,
    input_dim: usize,
) -> Result<(), String> {
    let err = orthonormality_error(m, img.n_qubits(), img.basis());
    if err > TOL {
        return Err(format!("basis is not orthonormal: ‖BᴴB − I‖ = {err:e}"));
    }
    if img.dim() > branches * input_dim {
        return Err(format!(
            "dimension {} exceeds branches × input dimension = {}",
            img.dim(),
            branches * input_dim
        ));
    }
    Ok(())
}

/// Whether `psi` lies in the span of the (orthonormal) basis of `s`:
/// `Σ |<b_i|psi>|^2 = <psi|psi>`.
pub fn tdd_contains(m: &mut TddManager, s: &Subspace, psi: Edge) -> bool {
    let vars = Subspace::ket_vars(s.n_qubits());
    let norm = m.norm_sqr(psi, &vars);
    let captured: f64 = s
        .basis()
        .iter()
        .map(|&b| m.inner_product(b, psi, &vars).norm_sqr())
        .sum();
    (norm - captured).abs() <= TOL * norm.max(1.0)
}

/// The image is exactly `span{states}`: same dimension, each state inside.
pub fn spanned_by(m: &mut TddManager, img: &Subspace, states: &[Edge]) -> Result<(), String> {
    if img.dim() != states.len() {
        return Err(format!(
            "dimension {} where the analytic image has {}",
            img.dim(),
            states.len()
        ));
    }
    for (i, &psi) in states.iter().enumerate() {
        if !tdd_contains(m, img, psi) {
            return Err(format!("analytic state {i} is missing from the image"));
        }
    }
    Ok(())
}

/// A verdict fixed by construction.
pub fn verdict(what: &str, got: bool, want: bool) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what} verdict {got}, expected {want} by construction"
        ))
    }
}

/// The distance-`d` repetition code reaches its `d` single-error states
/// plus the corrected codeword.
pub fn repcode_reach_dim(dim: usize, d: u32) -> Result<(), String> {
    if dim == d as usize + 1 {
        Ok(())
    } else {
        Err(format!(
            "repetition code reached dimension {dim}, not d + 1 = {}",
            d + 1
        ))
    }
}

/// BV's image: the secret on the data wires, `|->` on the ancilla.
pub fn bv_image(m: &mut TddManager, secret: &[bool]) -> Edge {
    use qits_circuit::tensorize::states;
    let mut amps: Vec<(Cplx, Cplx)> = secret
        .iter()
        .map(|&b| if b { states::ONE } else { states::ZERO })
        .collect();
    amps.push(states::MINUS);
    let vars = Subspace::ket_vars(amps.len() as u32);
    m.product_ket(&vars, &amps)
}

/// The `n`-qubit GHZ state `(|0...0> + |1...1>)/√2`.
pub fn ghz_state(m: &mut TddManager, n: u32) -> Edge {
    let vars = Subspace::ket_vars(n);
    let zeros = m.basis_ket(&vars, &vec![false; n as usize]);
    let ones = m.basis_ket(&vars, &vec![true; n as usize]);
    let sum = m.add(zeros, ones);
    m.scale(sum, Cplx::FRAC_1_SQRT_2)
}

/// The product states of a spec's initial subspace, on `m`.
pub fn initial_kets(m: &mut TddManager, spec: &QtsSpec) -> Vec<Edge> {
    let vars = Subspace::ket_vars(spec.n_qubits);
    spec.initial_states
        .iter()
        .map(|amps| m.product_ket(&vars, amps))
        .collect()
}

/// `|0...0>` on `n` qubits.
pub fn zero_ket(m: &mut TddManager, n: u32) -> Edge {
    let vars = Subspace::ket_vars(n);
    m.basis_ket(&vars, &vec![false; n as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qits::EngineBuilder;
    use qits_circuit::generators;

    fn image_of(spec: &QtsSpec) -> (Subspace, qits::Engine) {
        let mut e = EngineBuilder::new()
            .strategy(qits::Strategy::Basic)
            .build_from_spec(spec)
            .expect("test system");
        let (img, _) = e.image().expect("test image");
        (img, e)
    }

    #[test]
    fn dense_oracle_accepts_the_image_and_rejects_a_perturbed_one() {
        let spec = generators::qft_adder(4, 3);
        let (img, e) = image_of(&spec);
        let oracle = dense_image(&spec);
        let mut got = densify(e.manager(), &img);
        assert_eq!(same_span(&oracle, &got), Ok(()));
        got[0][5] += Cplx::real(1e-3);
        assert!(same_span(&oracle, &got).is_err());
        assert!(same_span(&oracle, &[]).is_err());
    }

    #[test]
    fn dense_reachable_matches_and_rejects_a_wrong_space() {
        let spec = generators::qrw(3, 0.125);
        let mut e = EngineBuilder::new()
            .build_from_spec(&spec)
            .expect("test system");
        let r = e.reachable_space(100).expect("test fixpoint");
        let oracle = dense_reachable(&spec);
        let got = densify(e.manager(), &r.space);
        assert_eq!(same_span(&oracle, &got), Ok(()));
        assert!(same_span(&oracle, &got[1..]).is_err());
    }

    #[test]
    fn verdict_and_dimension_checks_reject_wrong_answers() {
        assert_eq!(verdict("invariant", true, true), Ok(()));
        assert!(verdict("invariant", false, true).is_err());
        assert_eq!(repcode_reach_dim(10, 9), Ok(()));
        assert!(repcode_reach_dim(9, 9).is_err());
    }

    #[test]
    fn analytic_bv_and_ghz_images_hold_and_reject_wrong_answers() {
        let secret = [true, false, true, true];
        let (img, mut e) = image_of(&generators::bernstein_vazirani(5, &secret));
        let good = bv_image(e.manager_mut(), &secret);
        assert_eq!(spanned_by(e.manager_mut(), &img, &[good]), Ok(()));
        let bad = bv_image(e.manager_mut(), &[true, true, true, true]);
        assert!(spanned_by(e.manager_mut(), &img, &[bad]).is_err());

        let (img, mut e) = image_of(&generators::ghz(6));
        let ghz = ghz_state(e.manager_mut(), 6);
        assert_eq!(spanned_by(e.manager_mut(), &img, &[ghz]), Ok(()));
        let zero = zero_ket(e.manager_mut(), 6);
        assert!(spanned_by(e.manager_mut(), &img, &[zero]).is_err());
    }

    #[test]
    fn properties_reject_a_non_orthonormal_basis_and_an_oversized_image() {
        let (img, mut e) = image_of(&generators::qrw(4, 0.125));
        assert_eq!(image_properties(e.manager_mut(), &img, 3, 1), Ok(()));
        assert!(image_properties(e.manager_mut(), &img, 0, 1).is_err());
        let m = e.manager_mut();
        assert!(orthonormality_error(m, 4, img.basis()) <= TOL);
        let z = zero_ket(m, 4);
        let doubled = m.scale(z, Cplx::real(2.0));
        assert!(orthonormality_error(m, 4, &[doubled]) > 1.0);
        assert!(orthonormality_error(m, 4, &[z, z]) > 0.5);
    }
}
