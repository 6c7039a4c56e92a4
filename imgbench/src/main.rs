//! Image-computation benchmark.
//!
//! ```text
//! imgbench --workload <image_table1|reach_fixpoint|serve_pool> --seed <n>
//!          --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! Runs whole rounds of the workload's fixed deck until `--seconds` have
//! passed, checks every output, and prints one JSON line last:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (the spans themselves go to `<scratch>/trace-*.json`).
//! See README.md for the decks, metrics and reference figures.

mod cases;
mod check;
mod layers;
mod serve;
mod solo;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::{metric, Metric};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the files a run writes: the warm-start snapshot and
    /// the span dump.
    pub scratch: PathBuf,
}

pub struct Outcome {
    /// False when any check failed other than those of a known fault that
    /// fails on every run (see README.md, "Known fault").
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Every per-layer metric, at zero: a workload that does not exercise a
/// layer reports it as zero work.
pub fn idle_layer_metrics() -> Vec<Metric> {
    vec![
        metric("engine.build_ms", "ms", 0.0),
        metric("store.load_ms", "ms", 0.0),
        metric("store.snapshot_bytes", "bytes", 0.0),
        metric("pool.build_ms", "ms", 0.0),
        metric("pool.handoff_ms_p50", "ms", 0.0),
        metric("pool.latency_ms_p99", "ms", 0.0),
        metric("pool.worker_jobs_min", "count", 0.0),
        metric("pool.worker_jobs_max", "count", 0.0),
        metric("pool.warm_serial_jobs_per_s", "1/s", 0.0),
        metric("pool.memo_hits", "count", 0.0),
        metric("pool.memo_lookups", "count", 0.0),
        metric("pool.memo_warm_hits", "count", 0.0),
        metric("pool.memo_evictions", "count", 0.0),
        metric("proto.decode_ms", "ms", 0.0),
        metric("proto.encode_ms", "ms", 0.0),
        metric("equiv.ms", "ms", 0.0),
        metric("tensornet.operator_build_ms", "ms", 0.0),
        metric("tensornet.operator_max_nodes", "count", 0.0),
        metric("image.calls", "count", 0.0),
        metric("image.ms", "ms", 0.0),
        metric("image.apply_join_ms", "ms", 0.0),
        metric("image.states_in", "count", 0.0),
        metric("image.cont_hit_rate", "ratio", 0.0),
        metric("image.add_hit_rate", "ratio", 0.0),
        metric("mc.iterations", "count", 0.0),
        metric("mc.join_ms", "ms", 0.0),
        metric("tdd.nodes_created", "count", 0.0),
        metric("tdd.cont_calls", "count", 0.0),
        metric("tdd.add_calls", "count", 0.0),
        metric("tdd.probe_p99", "count", 0.0),
        metric("tdd.unique_rebuilds", "count", 0.0),
        metric("tdd.peak_arena", "count", 0.0),
        metric("tdd.gc_ms", "ms", 0.0),
        metric("tdd.gc_runs", "count", 0.0),
        metric("tdd.nodes_reclaimed", "count", 0.0),
        metric("trace.overhead_pct", "%", 0.0),
    ]
}

/// Sets one metric of a per-layer list by name.
pub fn set_metric(out: &mut [Metric], name: &str, value: f64) {
    out.iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
        .value = value;
}

/// Writes the traced run's spans to `<scratch>/trace-<workload>-<seed>.json`.
pub fn write_trace(opts: &Options, tracer: &trace::Tracer) {
    let path = opts
        .scratch
        .join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    match std::fs::write(&path, tracer.to_json()) {
        Ok(()) => eprintln!(
            "imgbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("imgbench: could not write {}: {e}", path.display()),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from(".bench_build/imgbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["image_table1", "reach_fixpoint", "serve_pool"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scratch,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("imgbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("imgbench: cannot create {}: {e}", opts.scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = match opts.workload.as_str() {
        "image_table1" => solo::run(solo::Workload::Image, &opts),
        "reach_fixpoint" => solo::run(solo::Workload::Reach, &opts),
        _ => match serve::run(&opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("imgbench: serve_pool could not run: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!(
        "{}",
        util::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
