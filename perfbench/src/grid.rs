//! `fig4_grid`: the paper's validation grid through the `experiments`
//! sweep, as `repro fig4` runs it, on catalog profiles re-seeded
//! from the benchmark seed.

use std::sync::Arc;
use std::time::Instant;

use experiments::decompose::{self, GridStudy};
use experiments::fig45::THREAD_COUNTS;
use experiments::{journal, runner, Parallelism, PointSummary, StudyParams};
use speedup_stacks::report::{Block, Degraded, Report, Value};
use workloads::WorkloadProfile;

use crate::sims::{self, Counted, SimSpec};
use crate::stats::{median, par_efficiency, secs, timed, Mix, Outcome};

/// Workload scale: the catalog sizes, as `tests/figure_shapes.rs` runs
/// Figure 4 (the LLC is an absolute 2 MiB, so smaller inputs lose the
/// reuse that creates LLC interference).
const SCALE: f64 = 1.0;
/// The average |error| bound `tests/figure_shapes.rs` applies to the
/// catalog at each thread count.
const ERROR_BOUND: f64 = 0.10;

/// The seed's inputs.
struct Inputs {
    params: StudyParams,
    profiles: Vec<WorkloadProfile>,
}

fn inputs(seed: u64) -> Inputs {
    let mut mix = Mix::new(seed, 0xF164);
    let profiles = workloads::paper_suite()
        .iter()
        .map(|p| {
            let mut p = runner::scaled_profile(p, SCALE);
            p.seed = mix.next();
            p
        })
        .collect();
    Inputs {
        params: StudyParams::with_scale(SCALE),
        profiles,
    }
}

/// Every simulation of one pass: the 28 single-thread references, then
/// the grid points row-major — the order `run_grid_ft` reports them in.
fn specs(inp: &Inputs) -> Vec<SimSpec> {
    let mut specs = Vec::new();
    let mut push = |p: &WorkloadProfile, n: usize| {
        let p = p.clone();
        specs.push(SimSpec {
            cfg: decompose::options(&inp.params, n).machine(n),
            streams: Arc::new(move || workloads::streams_for(&p, n)),
        });
    };
    for p in &inp.profiles {
        push(p, 1);
    }
    for p in &inp.profiles {
        for &n in &THREAD_COUNTS {
            push(p, n);
        }
    }
    specs
}

/// Set-ups timed after each pass, besides the first set-up. Spreading
/// them over the run gives `setup_s` the run's mix of host speeds rather
/// than that of its first second, as the median over passes does for
/// the other timings.
const SETUPS_PER_PASS: usize = 4;

/// One set-up: the seed's inputs, validated, and the grid they fill.
fn setup(seed: u64, out: &mut Outcome) -> (Inputs, GridStudy) {
    let inp = inputs(seed);
    for p in &inp.profiles {
        out.check(p.validate().is_ok(), || {
            format!("profile {} invalid", p.name)
        });
    }
    let grid = decompose::decompose("fig4", &inp.params).expect("fig4 is a grid");
    (inp, grid)
}

/// The counting pass: every simulation of a pass once, untimed, to fix
/// the pass's simulated instructions and each point's cycles.
fn count(inp: &Inputs, out: &mut Outcome) -> Vec<Counted> {
    sims::count(&specs(inp)).unwrap_or_else(|e| {
        out.check(false, || format!("counting pass failed: {e}"));
        Vec::new()
    })
}

/// One timed pass through the sweep.
fn pass(inp: &Inputs) -> Result<runner::GridReport, String> {
    let fp = journal::fingerprint("fig4", &inp.params);
    runner::run_grid_ft(
        &inp.profiles,
        &THREAD_COUNTS,
        &|_, n| decompose::options(&inp.params, n),
        &inp.params.sweep("fig4", &fp),
    )
    .map_err(|e| e.to_string())
}

/// Checks a pass's figure against arithmetic done here: Eq. 6 per row,
/// stacks summing to N, and the average |error| per N within bound.
fn check_figure(report: &Report, points: &[PointSummary], out: &mut Outcome) {
    for p in points {
        let s = &p.stack;
        let sum = s.base_speedup() + s.overheads().iter().map(|(_, v)| v).sum::<f64>();
        out.check((sum - s.num_threads() as f64).abs() < 1e-6, || {
            format!("{} x{}: stack sums to {sum}, not N", p.name, p.threads)
        });
    }
    let Some(table) = report.blocks.iter().find_map(|b| match b {
        Block::Table(t) if t.name == "validation_points" => Some(t),
        _ => None,
    }) else {
        out.check(false, || "fig4 report has no validation table".to_string());
        return;
    };
    let col = |name: &str| table.columns.iter().position(|c| c.name == name);
    let (Some(cn), Some(ca), Some(ce), Some(cerr)) = (
        col("N"),
        col("actual"),
        col("estimated"),
        col("error_percent"),
    ) else {
        out.check(false, || "fig4 validation table lacks a column".to_string());
        return;
    };
    let num = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
    let mut abs_err = vec![Vec::new(); THREAD_COUNTS.len()];
    for row in &table.rows {
        let n = num(&row[cn]);
        let eq6 = (num(&row[ce]) - num(&row[ca])) / n * 100.0;
        let reported = num(&row[cerr]);
        out.check((eq6 - reported).abs() <= 1e-9 * eq6.abs().max(1.0), || {
            format!("row {row:?}: Eq. 6 gives {eq6}%, report says {reported}%")
        });
        if let Some(k) = THREAD_COUNTS.iter().position(|&c| c as f64 == n) {
            abs_err[k].push(eq6.abs() / 100.0);
        }
    }
    for (k, errs) in abs_err.iter().enumerate() {
        let avg = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        out.check(errs.len() == 28 && avg < ERROR_BOUND, || {
            format!(
                "{} threads: {} rows, average |error| {:.2}% (bound {:.0}%)",
                THREAD_COUNTS[k],
                errs.len(),
                avg * 100.0,
                ERROR_BOUND * 100.0
            )
        });
    }
}

/// Runs the workload for `seconds` and records the end-to-end metrics.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let ((inp, grid), first) = timed(|| setup(seed, out));
    let mut setups = vec![first];
    // Two counting passes, untimed: the sweep's points carry cycles but
    // not events or instructions, so those are checked pass to pass here.
    let counted = count(&inp, out);
    let again = count(&inp, out);
    out.check(again == counted, || {
        "counting passes disagree on cycles, instructions or events".to_string()
    });
    if counted.is_empty() {
        return;
    }
    let instr = sims::instructions(&counted) as f64;

    let t0 = Instant::now();
    let mut pass_s = Vec::new();
    while pass_s.len() < 3 || secs(t0) < seconds {
        out.sample_host();
        let (res, s) = timed(|| pass(&inp));
        out.attempted += counted.len() as u64;
        let rep = match res {
            Ok(r) => r,
            Err(e) => {
                out.failed += counted.len() as u64;
                out.check(false, || format!("fig4 pass failed: {e}"));
                return;
            }
        };
        out.failed += rep.degraded.failed.len() as u64;
        pass_s.push(s);
        let points: Vec<Option<PointSummary>> = rep.rows.into_iter().flatten().collect();
        for (k, p) in points.iter().enumerate() {
            let (pi, ci) = (k / THREAD_COUNTS.len(), k % THREAD_COUNTS.len());
            let same = p.as_ref().is_some_and(|p| {
                p.st_cycles == counted[pi].cycles
                    && p.mt_cycles == counted[inp.profiles.len() + k].cycles
                    && p.threads == THREAD_COUNTS[ci]
            });
            out.check(same, || format!("point {k} differs from the counting pass"));
        }
        let flat: Vec<PointSummary> = points.iter().flatten().cloned().collect();
        let report = grid.assemble(&inp.params, points, Degraded::default(), None);
        check_figure(&report, &flat, out);
        for _ in 0..SETUPS_PER_PASS {
            let ((again, _), s) = timed(|| setup(seed, out));
            setups.push(s);
            out.check(again.profiles == inp.profiles, || {
                "a set-up drew different inputs from the same seed".to_string()
            });
        }
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric(
        "sim_minst_per_s",
        median(&pass_s.iter().map(|s| instr / s / 1e6).collect::<Vec<_>>()),
        "Minst/s",
    );
    out.metric("cold_submit_s", median(&pass_s), "s");
    eprintln!(
        "perfbench: fig4_grid {} passes, {:.0} M simulated instructions per pass",
        pass_s.len(),
        instr / 1e6
    );
}

/// Traced mode: the per-layer probes on this workload's inputs, plus the
/// two-worker sweep's efficiency and the report assembly time.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) {
    let (inp, grid) = setup(seed, out);
    let counted = count(&inp, out);
    out.attempted += counted.len() as u64;
    let specs = specs(&inp);
    sims::probe_layers(&specs, &counted, seconds * 0.5, out);
    let serial = Inputs {
        params: StudyParams {
            parallelism: Parallelism::Serial,
            ..inp.params.clone()
        },
        profiles: inp.profiles.clone(),
    };
    let (efficiency, ok) = par_efficiency(|| pass(&serial).is_ok(), || pass(&inp).is_ok());
    out.check(ok, || "fig4 pass failed".to_string());
    out.metric("experiments.par_efficiency", efficiency, "ratio");
    let points: Vec<Option<PointSummary>> = pass(&inp)
        .map(|r| r.rows.into_iter().flatten().collect())
        .unwrap_or_default();
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let points = points.clone();
            timed(|| grid.assemble(&inp.params, points, Degraded::default(), None)).1 * 1e3
        })
        .collect();
    out.metric("experiments.assemble_ms", median(&samples), "ms");
}
