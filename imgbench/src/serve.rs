//! The `serve_pool` workload: a 2-worker `EnginePool` with
//! `GcPolicy::default()` and a result memo, warm-started from a snapshot,
//! driven by a closed loop of two clients through the JSON-lines codec.
//!
//! Each round builds a fresh pool from the snapshot (the `qits-serve
//! --warm-start` path), serves the same fixed deck of requests, and shuts
//! the pool down, so a round's memory and memo state never depend on how
//! many rounds ran before it.

use std::collections::HashMap;
use std::future::Future;
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

use qits::serve::proto::{self, Request};
use qits::serve::{
    run_job, EnginePool, EngineSpec, Job, JobOutput, JobTicket, PoolBuilder, PoolStats,
};
use qits::{QitsError, Strategy};
use qits_circuit::generators::{self, QtsSpec};
use qits_tdd::GcPolicy;

use crate::check;
use crate::layers::{self, ImageTotals, Probe, TddTotals};
use crate::trace::Tracer;
use crate::util::{geomean, median, metric, quantile, Rng};
use crate::{set_metric, Options, Outcome};

/// Pool workers (the benchmark box has two cores).
const WORKERS: usize = 2;
/// Requests kept in flight by the closed loop.
const CLIENTS: usize = 2;
/// Requests per round dealt from `MIX`; at least 1000, so the p99 has ten
/// samples beyond it.
const MIX_LEN: usize = 1200;
/// Fixed deck position of the dense invariant job, added to the `MIX_LEN`
/// requests dealt from `MIX`. One per round: the job takes about 160 MB,
/// and two on different workers would make the peak RSS depend on which
/// worker ran which.
const DENSE_AT: [usize; 1] = [600];
/// Requests per round.
const DECK_LEN: usize = MIX_LEN + DENSE_AT.len();
/// Distance of the repetition code the invariant jobs are checked on.
const REPCODE_D: u32 = 5;
/// Register and gate count of the equivalence circuits.
const EQ_QUBITS: u32 = 8;
const EQ_GATES: usize = 32;
/// Requests answered once before set-up and carried in the snapshot.
const WARM_JOBS: usize = 48;
/// Pool builds timed after each untraced round; `setup_s` is the median
/// over all of them.
const SETUP_REPS: usize = 25;
/// Memo capacity: above every distinct request of a round, so nothing is
/// evicted.
const MEMO_CAPACITY: usize = 4096;
const MAX_ITERATIONS: usize = 64;

/// The kinds of request in the deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    /// Clifford+T pair with inserted cancelling gate pairs: equivalent.
    Equivalent,
    /// Clifford+T pair where one T became an S: not equivalent.
    Inequivalent,
    /// Product states spanning a superset of the reachable space.
    InvariantHolds,
    /// Product states missing one reachable basis state.
    InvariantFails,
    /// The reachable basis plus two product states with every qubit in a
    /// seeded superposition. It takes about 1.1 s against 6 ms for the
    /// other invariant kinds, and lifts the pool's peak TDD arena from
    /// about 68,000 to 390,000 nodes.
    InvariantDense,
    /// An exact repeat of an earlier request (or of a snapshot one).
    Repeat,
}

/// The shares per 20 of the `MIX_LEN` requests. No recorded traffic
/// exists to take them from; they are a choice, see README.md.
const MIX: [(Kind, usize); 5] = [
    (Kind::Equivalent, 8),
    (Kind::Inequivalent, 3),
    (Kind::InvariantHolds, 3),
    (Kind::InvariantFails, 3),
    (Kind::Repeat, 3),
];

struct DeckRequest {
    kind: Kind,
    line: String,
    /// For fresh requests the verdict fixed by construction; repeats take
    /// the answer of the request they repeat.
    expect: Expect,
}

#[derive(Debug, Clone)]
enum Expect {
    Equivalent(bool),
    Invariant(bool),
    /// Same output as deck request `i`.
    SameAs(usize),
    /// Same output as warm request `i` answered before set-up.
    SameAsWarm(usize),
}

/// The pool's system: the distance-5 repetition code, whose reachable
/// space is the five single-error states plus the corrected codeword.
fn system() -> QtsSpec {
    generators::repetition_code(REPCODE_D)
}

/// The pool's image strategy (the paper's contraction parameters).
const STRATEGY: Strategy = Strategy::Contraction { k1: 4, k2: 4 };

fn engine_spec(probe: Option<&Probe>) -> EngineSpec {
    let spec = EngineSpec::new(system()).gc_policy(Some(GcPolicy::default()));
    match probe {
        Some(p) => spec.strategy(p.clone()),
        None => spec.strategy(STRATEGY),
    }
}

// ----------------------------------------------------------------------
// The deck.
// ----------------------------------------------------------------------

fn random_clifford_t(rng: &mut Rng) -> Vec<String> {
    let n = EQ_QUBITS as usize;
    let mut gates: Vec<String> = (0..EQ_GATES)
        .map(|_| match rng.below(5) {
            0 => format!("h {}", rng.below(n)),
            1 => format!("s {}", rng.below(n)),
            2 => format!("t {}", rng.below(n)),
            3 => format!("tdg {}", rng.below(n)),
            _ => {
                let a = rng.below(n);
                let b = (a + 1 + rng.below(n - 1)) % n;
                format!("cx {a} {b}")
            }
        })
        .collect();
    // Every circuit carries at least one T, so a T->S swap always exists.
    let at = rng.below(gates.len());
    gates[at] = format!("t {}", rng.below(n));
    gates
}

fn cancelling_pair(rng: &mut Rng) -> [String; 2] {
    let n = EQ_QUBITS as usize;
    let q = rng.below(n);
    match rng.below(4) {
        0 => [format!("h {q}"), format!("h {q}")],
        1 => [format!("s {q}"), format!("sdg {q}")],
        2 => [format!("t {q}"), format!("tdg {q}")],
        _ => {
            let b = (q + 1 + rng.below(n - 1)) % n;
            [format!("cx {q} {b}"), format!("cx {q} {b}")]
        }
    }
}

fn equivalence_line(id: &str, a: &[String], b: &[String]) -> String {
    format!(
        "{{\"op\":\"submit\",\"id\":\"{id}\",\"job\":{{\"type\":\"equivalence\",\"a\":\"{}\",\"b\":\"{}\",\"up_to_phase\":false}}}}",
        a.join("; "),
        b.join("; ")
    )
}

fn equivalence_request(rng: &mut Rng, id: &str, equivalent: bool) -> DeckRequest {
    let a = random_clifford_t(rng);
    let mut b = a.clone();
    if equivalent {
        for _ in 0..4 {
            let at = rng.below(b.len() + 1);
            let [x, y] = cancelling_pair(rng);
            b.insert(at, y);
            b.insert(at, x);
        }
    } else {
        let ts: Vec<usize> = (0..b.len()).filter(|&i| b[i].starts_with("t ")).collect();
        let i = ts[rng.below(ts.len())];
        b[i] = b[i].replacen("t ", "s ", 1);
    }
    DeckRequest {
        kind: if equivalent {
            Kind::Equivalent
        } else {
            Kind::Inequivalent
        },
        line: equivalence_line(id, &a, &b),
        expect: Expect::Equivalent(equivalent),
    }
}

/// One qubit as the protocol's `[a_re, a_im, b_re, b_im]`.
fn qubit_json(a: (f64, f64), b: (f64, f64)) -> String {
    format!("[{:?},{:?},{:?},{:?}]", a.0, a.1, b.0, b.1)
}

/// A seeded product state on the system's register: random basis values
/// with one qubit in `|+>`, and qubit `zero` (if any) exactly `|0>`.
/// Mostly-basis states keep the invariant's projector diagram small, so
/// an invariant job costs about what its fixpoint costs.
fn random_state(rng: &mut Rng, n: u32, zero: Option<u32>) -> String {
    let plus = loop {
        let q = rng.below(n as usize) as u32;
        if Some(q) != zero {
            break q;
        }
    };
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let qubits: Vec<String> = (0..n)
        .map(|q| {
            if q == plus {
                qubit_json((h, 0.0), (h, 0.0))
            } else if Some(q) != zero && rng.below(4) == 0 {
                qubit_json((0.0, 0.0), (1.0, 0.0))
            } else {
                qubit_json((1.0, 0.0), (0.0, 0.0))
            }
        })
        .collect();
    format!("[{}]", qubits.join(","))
}

/// A seeded product state with every qubit in superposition:
/// `cos θ |0> + e^{iφ} sin θ |1>`, θ in [π/8, 3π/8), φ in [0, 2π).
fn superposed_state(rng: &mut Rng, n: u32) -> String {
    use std::f64::consts::PI;
    let qubits: Vec<String> = (0..n)
        .map(|_| {
            let theta = PI / 8.0 + rng.unit() * PI / 4.0;
            let phi = rng.unit() * 2.0 * PI;
            qubit_json(
                (theta.cos(), 0.0),
                (theta.sin() * phi.cos(), theta.sin() * phi.sin()),
            )
        })
        .collect();
    format!("[{}]", qubits.join(","))
}

/// The computational basis state with data qubit `flip` (if any) set.
fn basis_state(n: u32, flip: Option<u32>) -> String {
    let qubits: Vec<String> = (0..n)
        .map(|q| {
            if Some(q) == flip {
                qubit_json((0.0, 0.0), (1.0, 0.0))
            } else {
                qubit_json((1.0, 0.0), (0.0, 0.0))
            }
        })
        .collect();
    format!("[{}]", qubits.join(","))
}

/// An invariant request. The reachable space is spanned by `|0...0>` and
/// the `d` single data-qubit flips. A holding invariant lists all of them
/// plus two random product states; a failing one drops flip `k` and keeps
/// qubit `k` at exactly `|0>` in its random states, so no vector of its
/// span has weight on the dropped state. A dense one lists the whole
/// reachable basis plus two `superposed_state`s, so it holds.
fn invariant_request(rng: &mut Rng, id: &str, kind: Kind) -> DeckRequest {
    let n = 2 * REPCODE_D - 1;
    let holds = kind != Kind::InvariantFails;
    let drop = (!holds).then(|| rng.below(REPCODE_D as usize) as u32);
    let mut states = vec![basis_state(n, None)];
    for q in 0..REPCODE_D {
        if Some(q) != drop {
            states.push(basis_state(n, Some(q)));
        }
    }
    for _ in 0..2 {
        states.push(if kind == Kind::InvariantDense {
            superposed_state(rng, n)
        } else {
            random_state(rng, n, drop)
        });
    }
    DeckRequest {
        kind,
        line: format!(
            "{{\"op\":\"submit\",\"id\":\"{id}\",\"job\":{{\"type\":\"invariant\",\"n_qubits\":{n},\"states\":[{}],\"max_iterations\":{MAX_ITERATIONS}}}}}",
            states.join(",")
        ),
        expect: Expect::Invariant(holds),
    }
}

fn fresh_request(rng: &mut Rng, id: &str, kind: Kind) -> DeckRequest {
    match kind {
        Kind::Equivalent => equivalence_request(rng, id, true),
        Kind::Inequivalent => equivalence_request(rng, id, false),
        Kind::InvariantHolds | Kind::InvariantFails | Kind::InvariantDense => {
            invariant_request(rng, id, kind)
        }
        Kind::Repeat => unreachable!("repeats copy an earlier request"),
    }
}

struct Deck {
    warm: Vec<DeckRequest>,
    requests: Vec<DeckRequest>,
}

fn build_deck(seed: u64) -> Deck {
    let mut rng = Rng::new(seed, 3);
    let warm_kinds = [
        Kind::Equivalent,
        Kind::Inequivalent,
        Kind::InvariantHolds,
        Kind::InvariantFails,
    ];
    let warm: Vec<DeckRequest> = (0..WARM_JOBS)
        .map(|i| fresh_request(&mut rng, &format!("w{i}"), warm_kinds[i % warm_kinds.len()]))
        .collect();
    let per: usize = MIX.iter().map(|&(_, k)| k).sum();
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, k)| std::iter::repeat_n(kind, k * MIX_LEN / per))
        .collect();
    rng.shuffle(&mut kinds);
    // Repeats need something to repeat: keep the first 100 requests fresh.
    for i in 0..100 {
        if kinds[i] == Kind::Repeat {
            let j = (100..kinds.len())
                .find(|&j| kinds[j] != Kind::Repeat)
                .expect("the deck is mostly fresh requests");
            kinds.swap(i, j);
        }
    }
    for at in DENSE_AT {
        kinds.insert(at, Kind::InvariantDense);
    }
    let mut requests: Vec<DeckRequest> = Vec::with_capacity(DECK_LEN);
    for (i, &kind) in kinds.iter().enumerate() {
        let id = format!("r{i}");
        if kind != Kind::Repeat {
            requests.push(fresh_request(&mut rng, &id, kind));
            continue;
        }
        // Half the repeats hit the snapshot's memo entries, half repeat a
        // request at least 50 positions back, long since answered. A dense
        // job may still be running 50 positions on, so none is repeated.
        let (line, expect) = if rng.below(2) == 0 {
            let w = rng.below(warm.len());
            (warm[w].line.clone(), Expect::SameAsWarm(w))
        } else {
            let mut t = rng.below(i - 50);
            while matches!(requests[t].kind, Kind::Repeat | Kind::InvariantDense) {
                t = rng.below(i - 50);
            }
            (requests[t].line.clone(), Expect::SameAs(t))
        };
        requests.push(DeckRequest { kind, line, expect });
    }
    Deck { warm, requests }
}

// ----------------------------------------------------------------------
// The snapshot the pool warm-starts from.
// ----------------------------------------------------------------------

/// Answers the warm requests on a pool, then writes a snapshot holding
/// their memo entries plus a session's TDD dump with the reachable space
/// checkpointed. Returns the warm answers, encoded.
fn write_snapshot(deck: &Deck, path: &Path) -> Result<Vec<String>, String> {
    let spec = engine_spec(None);
    let pool = EnginePool::builder(spec.clone())
        .workers(WORKERS)
        .memo_capacity(MEMO_CAPACITY)
        .build()
        .map_err(|e| format!("building the warm-up pool: {e}"))?;
    let handle = pool.handle();
    let mut answers = Vec::with_capacity(deck.warm.len());
    for r in &deck.warm {
        let job = decode(&r.line)?;
        let out = handle
            .try_submit(job)
            .map_err(|e| format!("warm-up submit: {e}"))?
            .join()
            .map_err(|e| format!("warm-up job: {e}"))?;
        answers.push(proto::output_json(&out));
    }
    let memo_path = path.with_extension("memo");
    handle
        .save_snapshot(&memo_path, "imgbench-warm-memo")
        .map_err(|e| format!("saving the memo: {e}"))?;
    pool.shutdown();
    let memo = qits::store::Snapshot::read_from(&memo_path)
        .map_err(|e| format!("reading the memo back: {e}"))?;
    let _ = std::fs::remove_file(&memo_path);
    let mut engine = spec.build().map_err(|e| format!("warm-up engine: {e}"))?;
    let reach = engine
        .reachable_space(MAX_ITERATIONS)
        .map_err(|e| format!("warm-up fixpoint: {e}"))?;
    let mut snap = engine.snapshot("imgbench-warm", Some(&reach));
    snap.memo = memo.memo;
    snap.write_to(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(answers)
}

/// The round's pool, configured and warm-started from the snapshot.
fn warm_builder(snapshot: &Path, probe: Option<&Probe>) -> Result<PoolBuilder, QitsError> {
    EnginePool::builder(engine_spec(probe))
        .workers(WORKERS)
        .memo_capacity(MEMO_CAPACITY)
        .warm_start(snapshot)
}

/// Times `SETUP_REPS` pool builds with snapshot warm start.
fn measure_setup(snapshot: &Path, samples: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let pool = warm_builder(snapshot, None).and_then(|b| b.build());
        samples.push(t.elapsed().as_secs_f64());
        drop(pool);
    }
}

fn decode(line: &str) -> Result<Job, String> {
    match proto::parse_request(line)? {
        Request::Submit { job, .. } => Ok(job),
        other => Err(format!("expected a submit request, decoded {other:?}")),
    }
}

// ----------------------------------------------------------------------
// One round.
// ----------------------------------------------------------------------

/// Wakes the client thread when a ticket resolves.
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

struct Served {
    output: Result<JobOutput, String>,
    latency_ms: f64,
    encoded: String,
}

struct Round {
    loop_s: f64,
    served: Vec<Served>,
    stats: PoolStats,
}

fn run_round(
    deck: &Deck,
    snapshot: &Path,
    tracer: &mut Tracer,
    probe: Option<&Probe>,
) -> Result<Round, String> {
    let builder = tracer
        .span("store.load", |_| warm_builder(snapshot, probe))
        .map_err(|e| format!("warm start: {e}"))?;
    let pool = tracer
        .span("pool.build", |_| builder.build())
        .map_err(|e| format!("building the pool: {e}"))?;

    let handle = pool.handle();
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut served: Vec<Option<Served>> = (0..deck.requests.len()).map(|_| None).collect();
    // Each client slot: (request index, decode time in ms, ticket).
    let mut inflight: Vec<Option<(usize, f64, JobTicket)>> = (0..CLIENTS).map(|_| None).collect();
    let mut next = 0usize;
    let mut done = 0usize;
    let loop_start = Instant::now();
    while done < deck.requests.len() {
        let mut progressed = false;
        for slot in inflight.iter_mut() {
            if slot.is_none() && next < deck.requests.len() {
                let i = next;
                next += 1;
                tracer.set_job(i as u64);
                let start = Instant::now();
                let job = tracer.span("proto.decode", |_| decode(&deck.requests[i].line))?;
                let decode_ms = start.elapsed().as_secs_f64() * 1e3;
                let ticket = tracer
                    .span("pool.submit", |_| handle.try_submit(job))
                    .map_err(|e| format!("submit r{i}: {e}"))?;
                *slot = Some((i, decode_ms, ticket));
            }
            let Some((i, decode_ms, ticket)) = slot else {
                continue;
            };
            if let Poll::Ready(result) = Pin::new(&mut *ticket).poll(&mut cx) {
                let i = *i;
                tracer.set_job(i as u64);
                let t_enc = Instant::now();
                let encoded = match &result {
                    Ok(out) => tracer.span("proto.encode", |_| proto::output_json(out)),
                    Err(e) => e.to_string(),
                };
                // Decode and encode are timed here; the wait between is the
                // ticket's submit-to-completion time, stamped when the result
                // lands, so it leaves out how long this thread takes to be
                // scheduled again on cores the workers keep busy.
                let wait_ms = ticket.latency().map_or(0.0, |d| d.as_secs_f64() * 1e3);
                let latency_ms = *decode_ms + wait_ms + t_enc.elapsed().as_secs_f64() * 1e3;
                served[i] = Some(Served {
                    output: result.map_err(|e| e.to_string()),
                    latency_ms,
                    encoded,
                });
                *slot = None;
                done += 1;
                progressed = true;
            }
        }
        if !progressed {
            std::thread::park();
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let stats = pool.shutdown();
    Ok(Round {
        loop_s,
        served: served
            .into_iter()
            .map(|s| s.expect("every request was served"))
            .collect(),
        stats,
    })
}

/// Checks one served request against its expected answer.
fn check(deck: &Deck, warm_answers: &[String], round: &Round, i: usize) -> Result<(), String> {
    let first = match deck.requests[i].expect {
        Expect::SameAs(t) => Some(round.served[t].encoded.as_str()),
        Expect::SameAsWarm(w) => Some(warm_answers[w].as_str()),
        _ => None,
    };
    let s = &round.served[i];
    check_answer(&deck.requests[i].expect, &s.output, &s.encoded, first)
}

/// Checks an answer: a verdict fixed by construction, or — for a repeat —
/// the encoded answer `first` it must reproduce.
fn check_answer(
    expect: &Expect,
    output: &Result<JobOutput, String>,
    encoded: &str,
    first: Option<&str>,
) -> Result<(), String> {
    let out = output.as_ref().map_err(|e| format!("job failed: {e}"))?;
    match *expect {
        Expect::Equivalent(want) => match out.equivalent() {
            Some(got) => check::verdict("equivalence", got, want),
            None => Err("not an equivalence answer".into()),
        },
        Expect::Invariant(want) => {
            let JobOutput::Invariant { holds, reach } = out else {
                return Err("not an invariant answer".into());
            };
            check::verdict("invariant", *holds, want)?;
            if !reach.converged {
                return Err("the invariant's fixpoint did not converge".into());
            }
            check::repcode_reach_dim(reach.dim, REPCODE_D)
        }
        Expect::SameAs(_) | Expect::SameAsWarm(_) => {
            if Some(encoded) == first {
                Ok(())
            } else {
                Err(format!("repeat answered {encoded}, first answer {first:?}"))
            }
        }
    }
}

// ----------------------------------------------------------------------
// The traced run's warm-serial replay.
// ----------------------------------------------------------------------

struct Replay {
    /// Per deck request: time through `run_job` on one warm serial
    /// engine, `None` for the memo-answered repeats (not replayed).
    serial_ms: Vec<Option<f64>>,
    equiv_ms: f64,
    /// Fixpoint time of the invariant jobs outside image calls and
    /// outside collections between iterations.
    join_ms: f64,
    /// Fixpoint iterations of the invariant jobs.
    iterations: usize,
}

fn replay_serial(deck: &Deck, snapshot: &Path, tracer: &mut Tracer) -> Result<Replay, String> {
    let spec = engine_spec(None);
    let mut engine = tracer
        .span("engine.build", |_| spec.build())
        .map_err(|e| format!("serial engine: {e}"))?;
    engine
        .warm_start_from(snapshot)
        .map_err(|e| format!("serial warm start: {e}"))?;
    let mut out = Replay {
        serial_ms: Vec::with_capacity(deck.requests.len()),
        equiv_ms: 0.0,
        join_ms: 0.0,
        iterations: 0,
    };
    for r in &deck.requests {
        if r.kind == Kind::Repeat {
            out.serial_ms.push(None);
            continue;
        }
        let job = decode(&r.line)?;
        let before = engine.manager().stats();
        let t = Instant::now();
        let result = run_job(&mut engine, &job).map_err(|e| format!("serial job: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.serial_ms.push(Some(ms));
        match &result {
            JobOutput::Equivalence { .. } => out.equiv_ms += ms,
            JobOutput::Invariant { reach, .. } => {
                out.iterations += reach.iterations;
                let gc_ms = engine.manager().stats().since(&before).gc_nanos as f64 / 1e6;
                let mut image = ImageTotals::default();
                reach.stats.iter().for_each(|st| image.add(st));
                out.join_ms += ms - image.ms() - (gc_ms - image.gc_nanos as f64 / 1e6);
            }
            _ => {}
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// The run.
// ----------------------------------------------------------------------

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let deck = build_deck(opts.seed);
    let snapshot: PathBuf =
        opts.scratch
            .join(format!("warm-{}-{}.qsnap", opts.seed, std::process::id()));
    let t = Instant::now();
    let warm_answers = write_snapshot(&deck, &snapshot)?;
    eprintln!(
        "imgbench: warm-start snapshot written in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let result = measure(opts, &deck, &warm_answers, &snapshot);
    let _ = std::fs::remove_file(&snapshot);
    result
}

fn measure(
    opts: &Options,
    deck: &Deck,
    warm_answers: &[String],
    snapshot: &Path,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut peak_rss = 0.0;
    let mut round_jobs_per_s = Vec::new();
    let mut latencies = Vec::new();
    let mut kind_latencies: HashMap<Kind, Vec<f64>> = HashMap::new();
    let mut max_nodes = Vec::new();
    let (mut jobs, mut loop_s) = (0u64, 0.0);
    let (mut traced_jobs, mut traced_loop_s) = (0u64, 0.0);
    let mut traced_rounds: Vec<TracedRound> = Vec::new();
    let mut setup_samples = Vec::new();
    let start = Instant::now();
    let mut round_no = 0u64;
    loop {
        let traced = opts.trace && round_no % 2 == 1;
        tracer.set_enabled(traced);
        let mark = tracer.mark();
        let probe = traced.then(|| Probe::new(STRATEGY));
        let round = run_round(deck, snapshot, &mut tracer, probe.as_ref())?;
        eprintln!(
            "imgbench: round {round_no}: {} requests in {:.2} s",
            round.served.len(),
            round.loop_s
        );
        for i in 0..deck.requests.len() {
            attempted += 1;
            if let Err(why) = check(deck, warm_answers, &round, i) {
                failed += 1;
                eprintln!("imgbench: FAILED r{i} ({:?}): {why}", deck.requests[i].kind);
            }
        }
        if traced {
            traced_jobs += deck.requests.len() as u64;
            traced_loop_s += round.loop_s;
            let replay = replay_serial(deck, snapshot, &mut tracer)?;
            traced_rounds.push(TracedRound {
                self_ms: tracer.self_ms(mark),
                states_in: probe.as_ref().map_or(0, Probe::take_states_in),
                replay,
                round,
            });
        } else {
            jobs += deck.requests.len() as u64;
            loop_s += round.loop_s;
            round_jobs_per_s.push(deck.requests.len() as f64 / round.loop_s);
            if round_no == 0 {
                // One deck's worth of memory, whatever the round count.
                peak_rss = crate::util::peak_rss_mb();
            }
            measure_setup(snapshot, &mut setup_samples);
            for (i, s) in round.served.iter().enumerate() {
                latencies.push(s.latency_ms);
                kind_latencies
                    .entry(deck.requests[i].kind)
                    .or_default()
                    .push(s.latency_ms);
                if let Ok(JobOutput::Invariant { reach, .. }) = &s.output {
                    let peak = reach.stats.iter().map(|st| st.max_nodes).max().unwrap_or(0);
                    max_nodes.push(peak.max(1) as f64);
                }
            }
        }
        round_no += 1;
        let min_rounds = if opts.trace { 2 } else { 1 };
        if round_no >= min_rounds && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let metrics = if opts.trace {
        crate::write_trace(opts, &tracer);
        let overhead =
            (jobs as f64 / loop_s - traced_jobs as f64 / traced_loop_s) / (jobs as f64 / loop_s);
        layer_metrics(&traced_rounds, snapshot, overhead * 100.0)
    } else {
        let kind_medians: Vec<f64> = kind_latencies.values().map(|v| median(v)).collect();
        vec![
            metric("setup_s", "s", median(&setup_samples)),
            metric("jobs_per_s", "1/s", median(&round_jobs_per_s)),
            metric("job_ms_geomean", "ms", geomean(&kind_medians)),
            metric("latency_ms_p50", "ms", median(&latencies)),
            metric("latency_ms_p90", "ms", quantile(&latencies, 0.9)),
            metric("peak_rss_mb", "MB", peak_rss),
            metric("max_nodes_geomean", "count", geomean(&max_nodes)),
        ]
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

struct TracedRound {
    self_ms: std::collections::BTreeMap<&'static str, f64>,
    states_in: u64,
    replay: Replay,
    round: Round,
}

fn layer_metrics(
    rounds: &[TracedRound],
    snapshot: &Path,
    overhead_pct: f64,
) -> Vec<crate::util::Metric> {
    let med = |f: &dyn Fn(&TracedRound) -> f64| -> f64 {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let span = |r: &TracedRound, name: &str| r.self_ms.get(name).copied().unwrap_or(0.0);
    let first = rounds.first().expect("a traced run has a traced round");
    let st = &first.round.stats;
    let worker_jobs: Vec<u64> = st.workers.iter().map(|w| w.jobs_completed).collect();
    let mut tdd = TddTotals::default();
    tdd.add(&st.manager);
    let mut image = ImageTotals::default();
    image.add(&st.image);
    image.calls = st.images;
    let build = layers::replay_operator_build(&system(), STRATEGY);
    let operator_ms: f64 = st.workers.iter().map(|w| build.over_calls(w.images)).sum();
    let image_ms = med(&|r| r.round.stats.image.elapsed.as_secs_f64() * 1e3);
    let handoff = med(&|r| {
        let gaps: Vec<f64> = r
            .replay
            .serial_ms
            .iter()
            .zip(&r.round.served)
            .filter_map(|(serial, s)| serial.map(|ms| s.latency_ms - ms))
            .collect();
        median(&gaps)
    });
    let serial_jobs_per_s = med(&|r| {
        let ms: Vec<f64> = r.replay.serial_ms.iter().flatten().copied().collect();
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
    });
    let mut out = crate::idle_layer_metrics();
    let set = set_metric;
    set(
        &mut out,
        "engine.build_ms",
        med(&|r| span(r, "engine.build")),
    );
    set(&mut out, "store.load_ms", med(&|r| span(r, "store.load")));
    set(
        &mut out,
        "store.snapshot_bytes",
        std::fs::metadata(snapshot).map_or(0.0, |m| m.len() as f64),
    );
    set(&mut out, "pool.build_ms", med(&|r| span(r, "pool.build")));
    set(&mut out, "pool.handoff_ms_p50", handoff);
    set(
        &mut out,
        "pool.latency_ms_p99",
        med(&|r| {
            let l: Vec<f64> = r.round.served.iter().map(|s| s.latency_ms).collect();
            quantile(&l, 0.99)
        }),
    );
    set(
        &mut out,
        "pool.worker_jobs_min",
        *worker_jobs.iter().min().unwrap_or(&0) as f64,
    );
    set(
        &mut out,
        "pool.worker_jobs_max",
        *worker_jobs.iter().max().unwrap_or(&0) as f64,
    );
    set(&mut out, "pool.warm_serial_jobs_per_s", serial_jobs_per_s);
    set(&mut out, "pool.memo_hits", st.memo.hits as f64);
    set(
        &mut out,
        "pool.memo_lookups",
        (st.memo.hits + st.memo.misses) as f64,
    );
    set(&mut out, "pool.memo_warm_hits", st.memo.warm_hits as f64);
    set(&mut out, "pool.memo_evictions", st.memo.evictions as f64);
    set(
        &mut out,
        "proto.decode_ms",
        med(&|r| span(r, "proto.decode")),
    );
    set(
        &mut out,
        "proto.encode_ms",
        med(&|r| span(r, "proto.encode")),
    );
    set(&mut out, "equiv.ms", med(&|r| r.replay.equiv_ms));
    set(&mut out, "tensornet.operator_build_ms", operator_ms);
    set(
        &mut out,
        "tensornet.operator_max_nodes",
        build.max_nodes as f64,
    );
    set(&mut out, "image.calls", image.calls as f64);
    set(&mut out, "image.ms", image_ms);
    set(&mut out, "image.apply_join_ms", image_ms - operator_ms);
    set(&mut out, "image.states_in", first.states_in as f64);
    set(&mut out, "image.cont_hit_rate", image.cont_hit_rate());
    set(&mut out, "image.add_hit_rate", image.add_hit_rate());
    set(&mut out, "mc.iterations", first.replay.iterations as f64);
    set(&mut out, "mc.join_ms", med(&|r| r.replay.join_ms));
    set(&mut out, "tdd.nodes_created", tdd.nodes_created as f64);
    set(&mut out, "tdd.cont_calls", tdd.cont_calls as f64);
    set(&mut out, "tdd.add_calls", tdd.add_calls as f64);
    set(&mut out, "tdd.probe_p99", f64::from(tdd.probe_p99));
    set(&mut out, "tdd.unique_rebuilds", tdd.unique_rebuilds as f64);
    set(&mut out, "tdd.peak_arena", tdd.peak_arena as f64);
    set(
        &mut out,
        "tdd.gc_ms",
        med(&|r| r.round.stats.manager.gc_nanos as f64 / 1e6),
    );
    set(&mut out, "tdd.gc_runs", tdd.gc_runs as f64);
    set(&mut out, "tdd.nodes_reclaimed", tdd.nodes_reclaimed as f64);
    set(&mut out, "trace.overhead_pct", overhead_pct);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (expectation, answer, encoded answer) of one request.
    type Row = (Expect, Result<JobOutput, String>, String);

    /// Runs the first requests of a deck on a serial engine.
    fn answers(n: usize) -> Vec<Row> {
        let deck = build_deck(7);
        let mut engine = engine_spec(None).build().expect("serial engine");
        deck.requests[..n]
            .iter()
            .map(|r| {
                let out = run_job(&mut engine, &decode(&r.line).expect("deck lines decode"))
                    .map_err(|e| e.to_string());
                let enc = out.as_ref().map(proto::output_json).unwrap_or_default();
                (r.expect.clone(), out, enc)
            })
            .collect()
    }

    #[test]
    fn deck_has_the_fixed_mix_and_repeats_point_back() {
        let deck = build_deck(3);
        assert_eq!(deck.requests.len(), DECK_LEN);
        let repeats = deck
            .requests
            .iter()
            .filter(|r| r.kind == Kind::Repeat)
            .count();
        assert_eq!(repeats, MIX_LEN * 3 / 20);
        for at in DENSE_AT {
            assert_eq!(deck.requests[at].kind, Kind::InvariantDense);
        }
        for (i, r) in deck.requests.iter().enumerate() {
            match r.expect {
                Expect::SameAs(t) => {
                    assert!(t + 50 <= i && deck.requests[t].line == r.line);
                }
                Expect::SameAsWarm(w) => assert_eq!(deck.warm[w].line, r.line),
                _ => assert_ne!(r.kind, Kind::Repeat),
            }
        }
        assert_eq!(build_deck(3).requests[500].line, deck.requests[500].line);
        assert_ne!(build_deck(4).requests[500].line, deck.requests[500].line);
    }

    #[test]
    fn checks_accept_true_answers_and_reject_perturbed_ones() {
        let rows = answers(40);
        for (expect, out, enc) in &rows {
            assert_eq!(
                check_answer(expect, out, enc, Some(enc)),
                Ok(()),
                "{expect:?}"
            );
            let flipped = match out.as_ref().expect("deck jobs succeed") {
                JobOutput::Equivalence { equivalent } => JobOutput::Equivalence {
                    equivalent: !equivalent,
                },
                JobOutput::Invariant { holds, reach } => JobOutput::Invariant {
                    holds: !holds,
                    reach: reach.clone(),
                },
                other => panic!("unexpected answer {other:?}"),
            };
            assert!(check_answer(expect, &Ok(flipped), enc, None).is_err());
            assert!(check_answer(expect, &Err("boom".into()), enc, None).is_err());
        }
        // An invariant answer with the wrong reachable dimension.
        let (expect, out, enc) = rows
            .iter()
            .find(|(e, _, _)| matches!(e, Expect::Invariant(_)))
            .expect("the deck opens with invariant jobs among its first 40");
        let Ok(JobOutput::Invariant { holds, reach }) = out else {
            unreachable!()
        };
        let mut wrong = reach.clone();
        wrong.dim += 1;
        let bad = JobOutput::Invariant {
            holds: *holds,
            reach: wrong,
        };
        assert!(check_answer(expect, &Ok(bad), enc, None).is_err());
        // The dense invariant job holds, and its check rejects a flip.
        let r = &build_deck(7).requests[DENSE_AT[0]];
        let mut engine = engine_spec(None).build().expect("serial engine");
        let out = run_job(&mut engine, &decode(&r.line).expect("deck lines decode"))
            .map_err(|e| e.to_string());
        assert!(check_answer(&r.expect, &out, "", None).is_ok());
        let Ok(JobOutput::Invariant { holds, reach }) = out else {
            panic!("the dense job is an invariant job")
        };
        let flipped = JobOutput::Invariant {
            holds: !holds,
            reach,
        };
        assert!(check_answer(&r.expect, &Ok(flipped), "", None).is_err());
        // A repeat must reproduce its first answer.
        let ok = &rows[0].1;
        assert!(check_answer(&Expect::SameAs(0), ok, &rows[0].2, Some(&rows[0].2)).is_ok());
        assert!(check_answer(&Expect::SameAs(0), ok, &rows[0].2, Some("{}")).is_err());
    }
}
