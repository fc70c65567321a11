//! The simulations a study pass runs, described from outside the
//! program, and the per-layer probes that time each layer on them.
//!
//! A [`SimSpec`] is one simulation of a pass: the machine and a factory
//! for its op streams. The counting pass runs every spec once through
//! `cmpsim::simulate` to fix the pass's simulated instruction and event
//! totals; the traced probes run the same specs one layer at a time.

use std::sync::Arc;
use std::time::Instant;

use cmpsim::{MachineConfig, Op, OpStream, SimResult, VecStream};
use memsim::MemoryHierarchy;
use speedup_stacks::AccountingConfig;

use crate::stats::{median, secs, Outcome};

/// Builds one simulation's op streams.
pub type StreamFactory = Arc<dyn Fn() -> Vec<Box<dyn OpStream>> + Send + Sync>;

/// One simulation of a study pass.
#[derive(Clone)]
pub struct SimSpec {
    /// The simulated machine.
    pub cfg: MachineConfig,
    /// Its op streams.
    pub streams: StreamFactory,
}

/// What one simulation produced, as the counting pass records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    /// Simulated cycles (`Tp`).
    pub cycles: u64,
    /// Simulated instructions.
    pub instructions: u64,
    /// Engine events.
    pub events: u64,
}

/// Runs every spec once with the default (two-worker) sweep and records
/// its counts.
///
/// # Errors
///
/// The first engine error, rendered.
pub fn count(specs: &[SimSpec]) -> Result<Vec<Counted>, String> {
    experiments::par_map(specs.to_vec(), |s| {
        cmpsim::simulate(s.cfg, (s.streams)())
            .map(|r| Counted {
                cycles: r.tp_cycles,
                instructions: r.total_instructions(),
                events: r.events,
            })
            .map_err(|e| e.to_string())
    })
    .into_iter()
    .collect()
}

/// Sum of simulated instructions over a pass.
pub fn instructions(counted: &[Counted]) -> u64 {
    counted.iter().map(|c| c.instructions).sum()
}

/// Per-layer totals of one probe round over a pass's specs.
#[derive(Debug, Default, Clone)]
struct Round {
    ops: u64,
    gen_s: f64,
    events: u64,
    sim_cycles: u64,
    engine_s: f64,
    accesses: u64,
    memsim_s: f64,
    llc_accesses: u64,
    llc_misses: u64,
    coherency_misses: u64,
    invalidations: u64,
    interthread_hits: u64,
    stack_us: Vec<f64>,
}

/// Times generation, the engine (with memsim inside it), memsim alone
/// and stack accounting on every spec of a pass, one layer at a time.
fn probe_round(specs: &[SimSpec], counted: &[Counted], out: &mut Outcome) -> Round {
    let mut r = Round::default();
    for (i, spec) in specs.iter().enumerate() {
        // Generation alone: drain every stream.
        let streams = (spec.streams)();
        let t0 = Instant::now();
        let mut n = 0u64;
        for mut s in streams {
            while s.next_op().is_some() {
                n += 1;
            }
        }
        r.gen_s += secs(t0);
        r.ops += n;

        // Engine + memsim on pre-materialised streams.
        let ops: Vec<Vec<Op>> = (spec.streams)()
            .into_iter()
            .map(|mut s| std::iter::from_fn(|| s.next_op()).collect())
            .collect();
        let vec_streams: Vec<Box<dyn OpStream>> = ops
            .iter()
            .map(|v| Box::new(VecStream::new(v.clone())) as Box<dyn OpStream>)
            .collect();
        let t0 = Instant::now();
        let result = cmpsim::simulate(spec.cfg, vec_streams);
        r.engine_s += secs(t0);
        let result: SimResult = match result {
            Ok(res) => res,
            Err(e) => {
                out.check(false, || format!("engine probe failed on spec {i}: {e}"));
                continue;
            }
        };
        out.check(
            result.tp_cycles == counted[i].cycles && result.events == counted[i].events,
            || format!("spec {i}: materialised streams simulate differently from generated ones"),
        );
        r.events += result.events;
        r.sim_cycles += result.tp_cycles;
        for t in &result.truth {
            r.llc_accesses += t.llc_accesses;
            r.llc_misses += t.llc_misses;
            r.coherency_misses += t.coherency_misses;
            r.invalidations += t.invalidations_sent;
            r.interthread_hits += t.interthread_hits_truth;
        }

        // Memsim alone: the same loads and stores, one per thread in
        // turn, through a fresh hierarchy of the same machine.
        let mut mem = MemoryHierarchy::new(&spec.cfg.mem, spec.cfg.n_cores);
        let mut cursors: Vec<std::slice::Iter<'_, Op>> = ops.iter().map(|v| v.iter()).collect();
        let cores = spec.cfg.n_cores;
        let t0 = Instant::now();
        let mut now = 0u64;
        let mut live = cursors.len();
        while live > 0 {
            live = 0;
            for (t, cur) in cursors.iter_mut().enumerate() {
                for op in cur.by_ref() {
                    let (line, write) = match *op {
                        Op::Load(l) => (l, false),
                        Op::Store(l) => (l, true),
                        _ => continue,
                    };
                    now += 1;
                    std::hint::black_box(mem.access(t % cores, line, write, now));
                    live += 1;
                    break;
                }
            }
        }
        r.memsim_s += secs(t0);
        r.accesses += now;

        // Accounting: the speedup stack from the stored counters.
        let reps = 20;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(result.stack(&AccountingConfig::default()).ok());
        }
        r.stack_us.push(secs(t0) * 1e6 / f64::from(reps));
    }
    r
}

/// Runs probe rounds over `specs` until `seconds` have passed (at least
/// one), then records the simulation-layer metrics as medians over the
/// rounds. Counts must repeat exactly from round to round.
pub fn probe_layers(specs: &[SimSpec], counted: &[Counted], seconds: f64, out: &mut Outcome) {
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || secs(t0) < seconds {
        let r = probe_round(specs, counted, out);
        if let Some(first) = rounds.first() {
            out.check(
                (r.ops, r.events, r.accesses, r.llc_misses)
                    == (first.ops, first.events, first.accesses, first.llc_misses),
                || "layer counts differ between probe rounds".to_string(),
            );
        }
        rounds.push(r);
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let first = rounds[0].clone();
    out.metric("workloads.ops", first.ops as f64, "count");
    out.metric(
        "workloads.ns_per_op",
        med(&|r| r.gen_s * 1e9 / r.ops as f64),
        "ns",
    );
    out.metric("engine.events", first.events as f64, "count");
    out.metric(
        "engine.ns_per_event",
        med(&|r| r.engine_s * 1e9 / r.events as f64),
        "ns",
    );
    out.metric("engine.sim_cycles", first.sim_cycles as f64, "cycles");
    out.metric("memsim.accesses", first.accesses as f64, "count");
    out.metric(
        "memsim.ns_per_access",
        med(&|r| r.memsim_s * 1e9 / r.accesses as f64),
        "ns",
    );
    out.metric("memsim.llc_accesses", first.llc_accesses as f64, "count");
    out.metric("memsim.llc_misses", first.llc_misses as f64, "count");
    out.metric(
        "memsim.coherency_misses",
        first.coherency_misses as f64,
        "count",
    );
    out.metric("memsim.invalidations", first.invalidations as f64, "count");
    out.metric(
        "memsim.interthread_hits",
        first.interthread_hits as f64,
        "count",
    );
    out.metric("core.stack_us", med(&|r| median(&r.stack_us)), "us");
    let gen = med(&|r| r.gen_s);
    let engine = med(&|r| r.engine_s);
    let memsim = med(&|r| r.memsim_s);
    eprintln!(
        "perfbench: layer seconds per pass (median of {} rounds): generation {gen:.3}, \
         engine+memsim {engine:.3}, memsim alone {memsim:.3}; shares of generation+engine: \
         generation {:.1}%, engine+memsim {:.1}%, memsim alone {:.1}%",
        rounds.len(),
        100.0 * gen / (gen + engine),
        100.0 * engine / (gen + engine),
        100.0 * memsim / (gen + engine),
    );
}
