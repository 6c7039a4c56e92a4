//! The benchmark systems: Table I families at fixed sizes, built from the
//! repository's circuit generators, with the parts that do not change the
//! amount of work drawn from the seed by the workloads.

use qits::Strategy;
use qits_circuit::decompose::{elementarize, ElementarizeOptions};
use qits_circuit::generators::{self, QtsSpec};
use qits_circuit::tensorize::states;
use qits_circuit::Operation;

/// Noise probability of the quantum-walk and Clifford+T families (the
/// value the repository's Table I harness uses).
pub const NOISE: f64 = 0.125;

/// One case of a deck: a family at a size, imaged with a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub family: &'static str,
    pub n: u32,
    pub method: &'static str,
}

impl Case {
    pub const fn new(family: &'static str, n: u32, method: &'static str) -> Case {
        Case { family, n, method }
    }

    pub fn label(&self) -> String {
        format!("{}{}/{}", self.family, self.n, self.method)
    }

    /// The paper's parameters: `k = 1` for addition, `k1 = k2 = 4` for
    /// contraction.
    pub fn strategy(&self) -> Strategy {
        match self.method {
            "basic" => Strategy::Basic,
            "addition" => Strategy::Addition { k: 1 },
            "contraction" => Strategy::Contraction { k1: 4, k2: 4 },
            other => unreachable!("deck methods are fixed, got '{other}'"),
        }
    }
}

/// The system of a case. `secret` is used by the `bv` family only.
pub fn spec(case: &Case, secret: &[bool]) -> QtsSpec {
    let n = case.n;
    match case.family {
        "qft" => generators::qft(n),
        "bv" => generators::bernstein_vazirani(n, secret),
        "ghz" => generators::ghz(n),
        "qrw" => generators::qrw(n, NOISE),
        "grover-elem" => elementarized_grover(n),
        "adder" => generators::qft_adder(n, 1),
        "repcode" => generators::repetition_code(n),
        "cliffordt" => generators::random_clifford_t(n, 3 * n, NOISE, u64::from(n)),
        other => unreachable!("deck families are fixed, got '{other}'"),
    }
}

/// Grover lowered to elementary gates; the ancilla wires the lowering adds
/// start in `|0>`.
fn elementarized_grover(n: u32) -> QtsSpec {
    let base = generators::grover(n);
    let circuit = base.operations[0].kraus_branches().remove(0);
    let elem = elementarize(&circuit, ElementarizeOptions::default());
    let pad = (elem.n_qubits() - n) as usize;
    let initial_states = base
        .initial_states
        .iter()
        .map(|amps| {
            let mut a = amps.clone();
            a.extend(std::iter::repeat_n(states::ZERO, pad));
            a
        })
        .collect();
    QtsSpec {
        name: format!("GroverElem{n}"),
        n_qubits: elem.n_qubits(),
        operations: vec![Operation::from_circuit("grover-elem", &elem)],
        initial_states,
    }
}
