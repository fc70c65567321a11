//! `fleet_mix`: one closed-loop client submitting fig6-shaped grids to
//! an in-process coordinator (`serve_coordinator`) that fronts two
//! in-process backends with one worker each. Every params set is
//! submitted once cold, then resubmitted warm.
//!
//! The service probe behind the traced `service.*`, `scheduler.*`,
//! `cache.*` and `federation.*` metrics lives here too; every workload's
//! traced run uses it.

use std::sync::Arc;
use std::time::Instant;

use experiments::decompose::{self, GridStudy};
use experiments::{find_study, Parallelism, PointSummary, StudyParams};
use service::client::{Client, StreamEvent};
use service::server::{serve, serve_coordinator, ServeConfig, ServerHandle};
use service::FleetConfig;
use speedup_stacks::report::Degraded;

use crate::sims::{self, SimSpec};
use crate::stats::{median, par_efficiency, secs, timed, warm_tail, Mix, Outcome};

/// Worker threads per backend.
pub const BACKEND_WORKERS: usize = 1;
/// Backends in the fleet.
pub const BACKENDS: usize = 2;
/// Result-cache budget per backend. It holds several params sets, and
/// it bounds the cache, so that peak memory does not grow with the
/// number of rounds a run fits in its seconds.
const BACKEND_CACHE_BYTES: usize = 2 << 20;
/// Base workload scale of the submitted grids.
const BASE_SCALE: f64 = 0.25;
/// The (thread count, LLC MiB) shapes every cycle of rounds submits
/// once each, in a seed-drawn order, so that every run has the same mix.
const SHAPES: [(usize, usize); 4] = [(16, 2), (16, 4), (8, 2), (8, 4)];
/// Warm resubmits per params set.
const WARM_PER_SET: usize = 48;

/// Two backends behind a coordinator, and a client of each.
struct Fleet {
    coord: ServerHandle,
    backends: Vec<ServerHandle>,
    client: Client,
    direct: Vec<Client>,
}

impl Fleet {
    /// Starts the fleet and completes one `list` round trip through the
    /// coordinator.
    fn start() -> Result<Fleet, String> {
        let cfg = ServeConfig {
            workers: BACKEND_WORKERS,
            cache_bytes: BACKEND_CACHE_BYTES,
            ..ServeConfig::default()
        };
        let backends = (0..BACKENDS)
            .map(|_| serve(&cfg).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let fleet = FleetConfig {
            backends: backends
                .iter()
                .map(|b| b.local_addr().to_string())
                .collect(),
            // Hedging races a second backend on a unit that runs long;
            // off, so a slow host cannot turn exactly-once compute into
            // twice.
            hedge_after_ms: None,
            ..FleetConfig::default()
        };
        let coord = serve_coordinator(&ServeConfig::default(), fleet).map_err(|e| e.to_string())?;
        let mut client =
            Client::connect(&coord.local_addr().to_string()).map_err(|e| e.to_string())?;
        let studies = client.list().map_err(|e| e.to_string())?;
        if studies.len() != 12 {
            return Err(format!("coordinator lists {} studies", studies.len()));
        }
        let direct = backends
            .iter()
            .map(|b| Client::connect(&b.local_addr().to_string()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet {
            coord,
            backends,
            client,
            direct,
        })
    }

    fn stop(self) {
        drop(self.client);
        drop(self.direct);
        self.coord.stop();
        for b in &self.backends {
            b.stop();
        }
    }

    /// Points computed so far on each backend.
    fn computed(&mut self) -> Result<Vec<u64>, String> {
        self.direct
            .iter_mut()
            .map(|c| {
                c.status()
                    .map(|s| s.points_computed)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Units served so far by each backend, as the coordinator counts.
    fn served(&self) -> Vec<u64> {
        self.coord
            .federation()
            .status()
            .backends
            .iter()
            .map(|b| b.served)
            .collect()
    }
}

/// The seed's sequence of distinct params sets: cycles over
/// [`SHAPES`] in seed-drawn orders, each set with its own scale in
/// `[1, 1.05) × BASE_SCALE` (`offset` selects a disjoint scale band).
struct ParamsSeq {
    mix: Mix,
    scales: Vec<usize>,
    order: Vec<usize>,
    next: usize,
    offset: usize,
}

impl ParamsSeq {
    fn new(seed: u64, stream: u64, offset: usize) -> ParamsSeq {
        let mut mix = Mix::new(seed, stream);
        let scales = mix.permutation(500);
        ParamsSeq {
            mix,
            scales,
            order: Vec::new(),
            next: 0,
            offset,
        }
    }

    fn next(&mut self) -> StudyParams {
        if self.order.is_empty() {
            self.order = self.mix.permutation(SHAPES.len());
        }
        let (threads, llc) = SHAPES[self.order.pop().expect("refilled")];
        let j = self.offset + self.scales[self.next % self.scales.len()];
        self.next += 1;
        StudyParams {
            threads: Some(vec![threads]),
            llc_mib: Some(llc),
            ..StudyParams::with_scale(BASE_SCALE * (1.0 + j as f64 / 10_000.0))
        }
    }
}

/// Every simulation one fig6 submit computes: the references, then the
/// points.
fn specs(grid: &GridStudy, params: &StudyParams) -> Vec<SimSpec> {
    let mut specs = Vec::new();
    for p in grid.profiles() {
        let p = p.clone();
        specs.push(SimSpec {
            cfg: decompose::options(params, 1).machine(1),
            streams: Arc::new(move || workloads::streams_for(&p, 1)),
        });
    }
    for i in 0..grid.n_points() {
        let (pi, n) = grid.point(i);
        let p = grid.profiles()[pi].clone();
        specs.push(SimSpec {
            cfg: decompose::options(params, n).machine(n),
            streams: Arc::new(move || workloads::streams_for(&p, n)),
        });
    }
    specs
}

/// Per-round samples.
#[derive(Default)]
struct Samples {
    cold_s: Vec<f64>,
    minst_per_s: Vec<f64>,
    warm_ms: Vec<f64>,
    direct_warm_ms: Vec<f64>,
    first_point_ms: Vec<f64>,
    cold_served: Vec<u64>,
    /// Units the warm resubmits through the coordinator recomputed.
    warm_recomputed: u64,
}

/// One round: a cold submit checked against a local `Study::run` and
/// against exactly-once compute, then warm resubmits checked to account
/// for every unit and return the same bytes.
fn round(
    fleet: &mut Fleet,
    params: &StudyParams,
    traced: bool,
    s: &mut Samples,
    out: &mut Outcome,
) -> Result<(), String> {
    let grid = decompose::decompose("fig6", params).ok_or("fig6 is a grid")?;
    let n = grid.n_points();
    let before = fleet.computed()?;
    let served_before = fleet.served();
    out.attempted += 1;
    let (cold, cold_s) = timed(|| fleet.client.submit("fig6", params));
    let cold = cold.map_err(|e| {
        out.failed += 1;
        format!("cold submit: {e}")
    })?;
    let after = fleet.computed()?;
    let fleet_computed: u64 = after.iter().zip(&before).map(|(a, b)| a - b).sum();
    out.check(
        cold.computed == n && cold.cached == 0 && cold.failed == 0 && fleet_computed == n as u64,
        || {
            format!(
            "cold submit computed {} (fleet {fleet_computed}), cached {}, failed {} of {n} units",
            cold.computed, cold.cached, cold.failed
        )
        },
    );
    if traced {
        s.cold_served.resize(BACKENDS, 0);
        for (i, (a, b)) in fleet.served().iter().zip(&served_before).enumerate() {
            s.cold_served[i] += a - b;
        }
    }
    let local = find_study("fig6")
        .ok_or("fig6 registered")?
        .run(params)
        .map_err(|e| e.to_string())?;
    let cold_json = cold.report.to_json();
    out.check(
        cold_json == local.to_json() && cold.report.to_text() == local.to_text(),
        || format!("fleet report for {params:?} differs from the local Study::run"),
    );
    let instr = sims::instructions(&sims::count(&specs(&grid, params))?) as f64;
    s.cold_s.push(cold_s);
    s.minst_per_s.push(instr / cold_s / 1e6);

    // Warm resubmits go through the coordinator only, as a user sends
    // them. It hands each unit to whichever backend claims it first, and
    // after the cold submit each backend caches only its own share, so a
    // warm resubmit may recompute units cached on the other backend; how
    // many depends on thread timing. Such units are counted, not failed.
    for _ in 0..WARM_PER_SET {
        out.attempted += 1;
        let (warm, ms) = timed(|| fleet.client.submit("fig6", params));
        let warm = warm.map_err(|e| {
            out.failed += 1;
            format!("warm submit: {e}")
        })?;
        s.warm_ms.push(ms * 1e3);
        s.warm_recomputed += warm.computed as u64;
        out.check(
            warm.computed + warm.cached + warm.coalesced == n
                && warm.failed == 0
                && warm.report.to_json() == cold_json,
            || {
                format!(
                    "warm submit computed {}, cached {}, coalesced {}, failed {} of {n} units, \
                     or changed the report",
                    warm.computed, warm.cached, warm.coalesced, warm.failed
                )
            },
        );
    }
    if traced {
        for _ in 0..WARM_PER_SET {
            let (warm, ms) = timed(|| fleet.direct[0].submit("fig6", params));
            let warm = warm.map_err(|e| format!("direct warm submit: {e}"))?;
            out.check(warm.computed + warm.cached == n && warm.failed == 0, || {
                format!(
                    "direct warm submit computed {}, cached {} of {n}",
                    warm.computed, warm.cached
                )
            });
            // A direct submit computes any unit that only the other
            // backend caches; only cache-only submits time the direct path.
            if warm.computed == 0 {
                s.direct_warm_ms.push(ms * 1e3);
            }
        }
    }
    Ok(())
}

/// Time from a cold submit straight to one backend until its first point
/// frame arrives; the stream is then drained.
fn first_point_ms(client: &mut Client, params: &StudyParams) -> Result<f64, String> {
    let n = decompose::decompose("fig6", params)
        .ok_or("fig6 is a grid")?
        .n_points();
    let t0 = Instant::now();
    client
        .start_submit("fig6", params, None)
        .map_err(|e| e.to_string())?;
    let mut first = None;
    loop {
        match client.next_event(n).map_err(|e| e.to_string())? {
            StreamEvent::Point { .. } => {
                first.get_or_insert(secs(t0) * 1e3);
            }
            StreamEvent::Failed { reason, .. } => return Err(format!("point failed: {reason}")),
            StreamEvent::Done { .. } => break,
        }
    }
    first.ok_or_else(|| "no point frame".to_string())
}

/// Fleet start-ups timed after each cycle of rounds, besides the first
/// start. Spreading the start-ups over the run gives `setup_s` the run's
/// mix of host speeds rather than that of its first second, as the
/// median over passes does for the other timings.
const STARTS_PER_CYCLE: usize = 8;

/// Starts a fleet, or records why it could not be started.
fn start(out: &mut Outcome) -> Option<(Fleet, f64)> {
    match timed(Fleet::start) {
        (Ok(f), s) => Some((f, s)),
        (Err(e), _) => {
            out.attempted += 1;
            out.failed += 1;
            out.check(false, || format!("fleet set-up failed: {e}"));
            None
        }
    }
}

/// Runs the workload for `seconds` and records the end-to-end metrics.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let Some((mut fleet, first)) = start(out) else {
        return;
    };
    let mut starts = vec![first];
    let mut seq = ParamsSeq::new(seed, 0xF1EE7, 0);
    let mut s = Samples::default();
    let t0 = Instant::now();
    // Whole cycles over the shapes, so every run submits the same mix.
    while secs(t0) < seconds {
        out.sample_host();
        for _ in 0..SHAPES.len() {
            if let Err(e) = round(&mut fleet, &seq.next(), false, &mut s, out) {
                out.check(false, || e);
            }
        }
        for _ in 0..STARTS_PER_CYCLE {
            match start(out) {
                Some((f, t)) => {
                    starts.push(t);
                    f.stop();
                }
                None => break,
            }
        }
    }
    fleet.stop();
    if s.cold_s.is_empty() {
        return;
    }
    out.metric("setup_s", median(&starts), "s");
    out.metric("sim_minst_per_s", median(&s.minst_per_s), "Minst/s");
    out.metric("cold_submit_s", median(&s.cold_s), "s");
    eprintln!(
        "perfbench: fleet_mix {} cold submits, {} warm resubmits recomputed {} units, \
         {} fleet start-ups",
        s.cold_s.len(),
        s.warm_ms.len(),
        s.warm_recomputed,
        starts.len()
    );
    warm_tail(&s.warm_ms);
}

/// The traced service probe: cold, warm and direct-warm submits plus the
/// first-point latency, on params drawn from `seed`, for `seconds` (at
/// least one cycle of shapes).
pub fn probe_service(seed: u64, seconds: f64, out: &mut Outcome) {
    let Some((mut fleet, _)) = start(out) else {
        return;
    };
    let mut seq = ParamsSeq::new(seed, 0xF1EE7, 0);
    let mut cold_seq = ParamsSeq::new(seed, 0xF125, 500);
    let mut s = Samples::default();
    let t0 = Instant::now();
    loop {
        for _ in 0..SHAPES.len() {
            let r = round(&mut fleet, &seq.next(), true, &mut s, out)
                .and_then(|()| first_point_ms(&mut fleet.direct[0], &cold_seq.next()));
            match r {
                Ok(ms) => s.first_point_ms.push(ms),
                Err(e) => out.check(false, || e),
            }
        }
        if secs(t0) >= seconds {
            break;
        }
    }
    let (mut hits, mut misses, mut computed) = (0, 0, 0);
    for c in &mut fleet.direct {
        match c.status() {
            Ok(st) => {
                hits += st.cache_hits;
                misses += st.cache_misses;
                computed += st.points_computed;
            }
            Err(e) => out.check(false, || format!("status: {e}")),
        }
    }
    fleet.stop();
    if s.first_point_ms.is_empty() || s.direct_warm_ms.is_empty() {
        out.check(false, || "no service probe round completed".to_string());
        return;
    }
    let direct = median(&s.direct_warm_ms);
    out.metric("service.direct_warm_ms_p50", direct, "ms");
    out.metric("federation.hop_ms", median(&s.warm_ms) - direct, "ms");
    out.metric(
        "federation.warm_recomputed",
        s.warm_recomputed as f64,
        "count",
    );
    out.metric("scheduler.first_point_ms", median(&s.first_point_ms), "ms");
    out.metric("cache.hits", hits as f64, "count");
    out.metric("cache.misses", misses as f64, "count");
    out.metric("cache.computed", computed as f64, "count");
    let served = &s.cold_served;
    let mean = served.iter().sum::<u64>() as f64 / served.len().max(1) as f64;
    out.metric(
        "federation.imbalance",
        served.iter().copied().max().unwrap_or(0) as f64 / mean,
        "ratio",
    );
    eprintln!(
        "perfbench: service probe warm p50 via coordinator {:.3} ms, direct {direct:.3} ms, \
         {} cold submits",
        median(&s.warm_ms),
        s.cold_s.len()
    );
}

/// Traced mode for `fleet_mix`: the simulation-layer probes on the first
/// params set's grid, the two-worker sweep's efficiency and the assembly time on
/// it, then the service probe.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) {
    let params = ParamsSeq::new(seed, 0xF1EE7, 0).next();
    let grid = decompose::decompose("fig6", &params).expect("fig6 is a grid");
    let specs = specs(&grid, &params);
    let counted = match sims::count(&specs) {
        Ok(c) => c,
        Err(e) => {
            out.check(false, || format!("counting pass failed: {e}"));
            return;
        }
    };
    sims::probe_layers(&specs, &counted, seconds * 0.3, out);
    let study = find_study("fig6").expect("fig6 registered");
    let serial = StudyParams {
        parallelism: Parallelism::Serial,
        ..params.clone()
    };
    let (efficiency, ok) =
        par_efficiency(|| study.run(&serial).is_ok(), || study.run(&params).is_ok());
    out.check(ok, || "fig6 run failed".to_string());
    out.metric("experiments.par_efficiency", efficiency, "ratio");
    let points: Vec<Option<PointSummary>> = (0..grid.n_points())
        .map(|i| {
            let (pi, _) = grid.point(i);
            grid.compute_reference(&params, pi)
                .and_then(|st| grid.compute_point(&params, i, st))
                .ok()
        })
        .collect();
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let points = points.clone();
            timed(|| grid.assemble(&params, points, Degraded::default(), None)).1 * 1e3
        })
        .collect();
    out.metric("experiments.assemble_ms", median(&samples), "ms");
    probe_service(seed, seconds * 0.4, out);
}
