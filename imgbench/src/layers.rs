//! Per-layer measurement helpers of the traced run: a strategy wrapper
//! that counts the states each image call receives, the operator-build
//! replay through `qits_tensornet`, and the TDD manager counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qits::{ImageStats, ImageStrategy, Operations, QitsError, Strategy, Subspace};
use qits_circuit::generators::QtsSpec;
use qits_tdd::{ManagerStats, TddManager};
use qits_tensornet::{
    contract_network, contraction_blocks, precontract_blocks, InteractionGraph, TensorNetwork,
};

/// A built-in strategy that also counts `input dimension × Kraus
/// branches` of every image call it serves. It reports the inner
/// strategy's name, so engine-spec fingerprints (and therefore snapshots
/// and memo keys) are the same as with the bare strategy.
#[derive(Debug, Clone)]
pub struct Probe {
    pub inner: Strategy,
    pub states_in: Arc<AtomicU64>,
}

impl Probe {
    pub fn new(inner: Strategy) -> Probe {
        Probe {
            inner,
            states_in: Arc::new(AtomicU64::new(0)),
        }
    }

    pub fn take_states_in(&self) -> u64 {
        self.states_in.swap(0, Ordering::Relaxed)
    }
}

impl ImageStrategy for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&self, ops: &Operations) -> Strategy {
        self.inner.select(ops)
    }

    fn compute(
        &self,
        m: &mut TddManager,
        ops: &Operations,
        input: &Subspace,
    ) -> Result<(Subspace, ImageStats), QitsError> {
        let branches: usize = ops.iter().map(|op| op.branch_count()).sum();
        self.states_in
            .fetch_add((input.dim() * branches) as u64, Ordering::Relaxed);
        self.inner.compute(m, ops, input)
    }
}

/// Operator-build cost of one system under one strategy, replayed on a
/// fresh manager: every branch's operator (the monolithic contraction,
/// the addition slices, or the pre-contracted blocks) built once cold and
/// once more warm on the same manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct OperatorBuild {
    pub cold_ms: f64,
    pub warm_ms: f64,
    pub max_nodes: usize,
}

impl OperatorBuild {
    /// Estimated build time over `calls` image calls on one session: the
    /// first build is cold, later ones hit the session's warm caches.
    pub fn over_calls(&self, calls: u64) -> f64 {
        if calls == 0 {
            0.0
        } else {
            self.cold_ms + (calls - 1) as f64 * self.warm_ms
        }
    }
}

pub fn replay_operator_build(spec: &QtsSpec, strategy: Strategy) -> OperatorBuild {
    let mut m = TddManager::new();
    let branches: Vec<_> = spec
        .operations
        .iter()
        .flat_map(|op| op.kraus_branches())
        .collect();
    let mut out = OperatorBuild::default();
    for pass in 0..2 {
        let t = Instant::now();
        for branch in &branches {
            let net = TensorNetwork::from_circuit(&mut m, branch);
            let nodes = match strategy {
                Strategy::Contraction { k1, k2 } => {
                    let blocks = contraction_blocks(branch, k1, k2);
                    precontract_blocks(&mut m, &net, &blocks).1
                }
                Strategy::Addition { k } | Strategy::AdditionParallel { k } => {
                    let cut = InteractionGraph::of(&net).highest_degree_vars(k);
                    let mut peak = 0;
                    for bits in 0..(1usize << cut.len()) {
                        let cuts: Vec<_> = cut
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| (v, (bits >> (cut.len() - 1 - i)) & 1 == 1))
                            .collect();
                        let sliced = net.slice_all(&mut m, &cuts);
                        let part = contract_network(&mut m, sliced.tensors(), &net.external_vars());
                        peak = peak.max(part.max_nodes);
                    }
                    peak
                }
                Strategy::Basic => {
                    contract_network(&mut m, net.tensors(), &net.external_vars()).max_nodes
                }
            };
            out.max_nodes = out.max_nodes.max(nodes);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if pass == 0 {
            out.cold_ms = ms;
        } else {
            out.warm_ms = ms;
        }
    }
    out
}

/// TDD-kernel counters summed over several managers (one per job, or one
/// per pool worker); peaks take the maximum.
#[derive(Debug, Clone, Copy, Default)]
pub struct TddTotals {
    pub nodes_created: u64,
    pub cont_calls: u64,
    pub add_calls: u64,
    pub probe_p99: u32,
    pub unique_rebuilds: u64,
    pub peak_arena: usize,
    pub gc_nanos: u64,
    pub gc_runs: u64,
    pub nodes_reclaimed: u64,
}

impl TddTotals {
    pub fn add(&mut self, s: &ManagerStats) {
        self.nodes_created += s.nodes_created;
        self.cont_calls += s.cont_calls;
        self.add_calls += s.add_calls;
        self.probe_p99 = self.probe_p99.max(s.probe_hist.p99());
        self.unique_rebuilds += s.unique_rebuilds;
        self.peak_arena = self.peak_arena.max(s.peak_arena);
        self.gc_nanos += s.gc_nanos;
        self.gc_runs += s.gc_runs;
        self.nodes_reclaimed += s.nodes_reclaimed;
    }
}

/// Image-layer totals, summed from the `ImageStats` of every image call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImageTotals {
    pub calls: u64,
    pub nanos: u64,
    pub gc_nanos: u64,
    pub cont_hits: u64,
    pub cont_lookups: u64,
    pub add_hits: u64,
    pub add_lookups: u64,
}

impl ImageTotals {
    pub fn add(&mut self, s: &ImageStats) {
        self.calls += 1;
        self.nanos += s.elapsed.as_nanos() as u64;
        self.gc_nanos += s.gc_nanos;
        self.cont_hits += s.cont_cache.hits;
        self.cont_lookups += s.cont_cache.hits + s.cont_cache.misses;
        self.add_hits += s.add_cache.hits;
        self.add_lookups += s.add_cache.hits + s.add_cache.misses;
    }

    pub fn merge(&mut self, o: &ImageTotals) {
        self.calls += o.calls;
        self.nanos += o.nanos;
        self.gc_nanos += o.gc_nanos;
        self.cont_hits += o.cont_hits;
        self.cont_lookups += o.cont_lookups;
        self.add_hits += o.add_hits;
        self.add_lookups += o.add_lookups;
    }

    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    pub fn cont_hit_rate(&self) -> f64 {
        ratio(self.cont_hits, self.cont_lookups)
    }

    pub fn add_hit_rate(&self) -> f64 {
        ratio(self.add_hits, self.add_lookups)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
