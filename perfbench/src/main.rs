//! `perfbench`: the end-to-end and per-layer benchmark of the
//! speedup-stacks reproduction.
//!
//! ```text
//! perfbench --workload fig4_grid|fleet_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs one workload for `S` seconds and prints the
//! end-to-end metrics; with `--trace 1` it times each layer from outside
//! and prints the per-layer metrics instead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit). Diagnostics go to standard error.
//! See `README.md` beside this crate for what each metric means.

mod fleet;
mod grid;
mod sims;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

use experiments::Parallelism;

use crate::stats::{median, Outcome};

/// The end-to-end metrics every workload prints with `--trace 0`.
const END_TO_END: [&str; 4] = [
    "setup_s",
    "sim_minst_per_s",
    "cold_submit_s",
    "peak_rss_mib",
];

/// The per-layer metrics every workload prints with `--trace 1`.
const PER_LAYER: [&str; 23] = [
    "workloads.ops",
    "workloads.ns_per_op",
    "engine.events",
    "engine.ns_per_event",
    "engine.sim_cycles",
    "memsim.accesses",
    "memsim.ns_per_access",
    "memsim.llc_accesses",
    "memsim.llc_misses",
    "memsim.coherency_misses",
    "memsim.invalidations",
    "memsim.interthread_hits",
    "core.stack_us",
    "experiments.par_efficiency",
    "experiments.assemble_ms",
    "service.direct_warm_ms_p50",
    "federation.hop_ms",
    "federation.warm_recomputed",
    "scheduler.first_point_ms",
    "cache.hits",
    "cache.misses",
    "cache.computed",
    "federation.imbalance",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Compute threads a workload runs at once: grid workers, or backend
/// workers (the coordinator, the client and the accept loops only wait).
fn compute_threads(workload: &str, trace: bool) -> Option<usize> {
    let two_worker_sweep = Parallelism::Auto.workers(usize::MAX);
    let service = fleet::BACKENDS * fleet::BACKEND_WORKERS;
    match workload {
        "fig4_grid" => Some(two_worker_sweep.max(if trace { service } else { 0 })),
        "fleet_mix" => Some(service.max(two_worker_sweep)),
        _ => None,
    }
}

fn json_result(out: &Outcome, expected: &[&str]) -> String {
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    let complete = names == expected;
    if !complete {
        eprintln!("perfbench: metrics {names:?} are not {expected:?}");
    }
    let finite = out.metrics.iter().all(|m| m.1.is_finite());
    let correct = out.violations.is_empty() && complete && finite && out.attempted > 0;
    let mut metrics = String::new();
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .ok();
    }
    // A run that attempted nothing (its set-up failed) reports one
    // failed operation, so that `attempted` is never 0.
    let (attempted, failed) = match out.attempted {
        0 => (1, 1),
        n => (n, out.failed),
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(threads) = compute_threads(&args.workload, args.trace) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads > cpus {
        eprintln!(
            "perfbench: {} would run {threads} compute threads on {cpus} CPUs; refusing to \
             measure an oversubscribed host",
            args.workload
        );
        return ExitCode::from(3);
    }

    let mut out = Outcome::default();
    let (seed, secs) = (args.seed, args.seconds);
    let expected: &[&str] = if args.trace {
        match args.workload.as_str() {
            "fig4_grid" => {
                grid::trace(seed, secs * 0.7, &mut out);
                fleet::probe_service(seed, secs * 0.3, &mut out);
            }
            _ => fleet::trace(seed, secs, &mut out),
        }
        out.metrics
            .sort_by_key(|m| PER_LAYER.iter().position(|n| *n == m.0));
        &PER_LAYER
    } else {
        match args.workload.as_str() {
            "fig4_grid" => grid::run(seed, secs, &mut out),
            _ => fleet::run(seed, secs, &mut out),
        }
        out.metric(
            "peak_rss_mib",
            stats::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        );
        out.metrics
            .sort_by_key(|m| END_TO_END.iter().position(|n| *n == m.0));
        &END_TO_END
    };
    if !out.host_ref_ms.is_empty() {
        let h = &out.host_ref_ms;
        eprintln!(
            "perfbench: host reference {:.2} ms median over {} samples (min {:.2}, max {:.2})",
            median(h),
            h.len(),
            h.iter().copied().fold(f64::INFINITY, f64::min),
            h.iter().copied().fold(0.0, f64::max),
        );
    }
    println!("{}", json_result(&out, expected));
    ExitCode::SUCCESS
}
