//! The two fleet workloads, `fleet-exact` and `fleet-coarse`.
//!
//! - `fleet-exact` is the smoke-shaped fleet at the exact per-ms demand
//!   model, run through the pipelined `Fleet::run`. Demand changes
//!   every simulated ms, so host time is almost all per-event cost.
//! - `fleet-coarse` is a larger fleet at a 20 ms demand quantum over
//!   256 shards, run as a resumable job: `step`, `checkpoint`, drop,
//!   `restore`, per epoch. It puts the epoch barrier, the fleet frame
//!   codec and event density on the measured path.

use crate::replay::{replay_shard_epoch, same_stats};
use crate::stats::{fnv1a, median, percentile};
use crate::trace::{elapsed_ns, since_ns, Layers, Span};
use crate::{paper, RunOutput, THREADS};
use asgov_fleet::shard::run_epoch_into;
use asgov_fleet::{
    EpochStats, Fleet, FleetConfig, FleetError, FleetReport, PolicyStore, ShardState,
};
use asgov_soc::DeviceConfig;
use asgov_util::par::WorkerPool;
use asgov_util::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Smoke-shaped, exact demand model, pipelined `Fleet::run`.
    Exact,
    /// Larger, 20 ms quantum, barriered `step` + checkpoint/restore.
    Coarse,
}

/// Measured jobs per run, at least (more while time remains).
const MIN_JOBS: usize = 3;

/// The workload's fleet, seeded by `seed`.
pub fn config(shape: Shape, seed: u64) -> FleetConfig {
    let smoke = FleetConfig {
        seed,
        threads: THREADS,
        ..FleetConfig::smoke()
    };
    match shape {
        Shape::Exact => smoke,
        Shape::Coarse => FleetConfig {
            devices: 2_048,
            shards: 256,
            demand_quantum_ms: 20,
            ..smoke
        },
    }
}

/// Codec work of one resumable job.
#[derive(Debug, Default)]
struct Codec {
    checkpoint_ns: u64,
    restore_ns: u64,
    bytes: u64,
    frames: u64,
}

/// One complete job: `Fleet::run` for the exact workload; per epoch
/// `step`, `checkpoint`, drop and `restore` for the coarse one.
fn run_job(
    shape: Shape,
    cfg: FleetConfig,
    store: &PolicyStore,
    codec: &mut Codec,
    origin: Instant,
    spans: &mut Vec<Span>,
) -> Result<FleetReport, FleetError> {
    let mut fleet = Fleet::new(cfg)?;
    if shape == Shape::Exact {
        return fleet.run(store).cloned();
    }
    while !fleet.done() {
        fleet.step(store)?;
        let t = Instant::now();
        let frame = fleet.checkpoint()?;
        let ns = elapsed_ns(t);
        codec.checkpoint_ns += ns;
        spans.push(main_span("Fleet::checkpoint", t, ns, origin));
        codec.bytes += frame.len() as u64;
        codec.frames += 1;
        drop(fleet);
        let t = Instant::now();
        fleet = Fleet::restore(cfg, &frame)?;
        let ns = elapsed_ns(t);
        codec.restore_ns += ns;
        spans.push(main_span("Fleet::restore", t, ns, origin));
    }
    Ok(fleet.report().clone())
}

/// A slice on the main thread's track (one past the pool workers).
fn main_span(name: &'static str, at: Instant, dur_ns: u64, origin: Instant) -> Span {
    Span {
        name,
        cat: "fleet",
        tid: THREADS,
        start_ns: since_ns(origin, at),
        dur_ns,
        args: Vec::new(),
    }
}

/// The report's JSON and its digest.
fn digest(report: &FleetReport) -> (Json, u64) {
    let json = report.to_json();
    let digest = fnv1a(json.to_string().as_bytes());
    (json, digest)
}

/// Device-epochs of a report that count as failed operations: all of
/// them when the energy total is not finite, otherwise those excluded
/// for a degenerate baseline.
fn failed_device_epochs(report: &FleetReport, json: &Json) -> u64 {
    if !report.totals.energy_j.is_finite() {
        return report.totals.online + report.totals.offline;
    }
    match json.get("savings_per_app") {
        Some(Json::Obj(apps)) => apps
            .values()
            .filter_map(|a| a.get("degenerate").and_then(Json::as_f64))
            .sum::<f64>() as u64,
        _ => report.totals.online,
    }
}

/// Resolve the policy store; returns it and the seconds it took.
fn resolve(cfg: &FleetConfig) -> (PolicyStore, f64) {
    let t = Instant::now();
    let store = PolicyStore::resolve(cfg, &DeviceConfig::nexus6());
    (store, t.elapsed().as_secs_f64())
}

/// Fidelity figures of a fleet report; records a problem if the report
/// cannot supply them.
fn fidelity(json: &Json, out: &mut RunOutput) -> paper::Fidelity {
    match paper::fleet_app_savings(json) {
        Ok(savings) => paper::fidelity(&savings, None),
        Err(e) => {
            out.problems.push(e);
            paper::fidelity(&[0.0; 6], None)
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(shape: Shape, seed: u64, seconds: f64) -> RunOutput {
    let mut out = RunOutput::default();
    let cfg = config(shape, seed);
    let origin = Instant::now();
    let mut spans = Vec::new();
    let (mut store, secs) = resolve(&cfg);
    let mut setup = vec![secs];

    // Warm-up and reference: the pipelined engine, whose report every
    // measured job must reproduce bit for bit.
    let reference = match Fleet::new(cfg).and_then(|mut f| f.run(&store).cloned()) {
        Ok(r) => r,
        Err(e) => {
            out.fatal(
                format!("reference fleet run failed: {e}"),
                cfg.devices * cfg.epochs,
            );
            return out;
        }
    };
    let (ref_json, ref_digest) = digest(&reference);
    let fid = fidelity(&ref_json, &mut out);

    let mut rates = Vec::new();
    let mut sim_rates = Vec::new();
    let mut codec = Codec::default();
    let measure = Instant::now();
    while rates.len() < MIN_JOBS || measure.elapsed().as_secs_f64() < seconds {
        // Set-up is repeated before every job, so that its samples span
        // the run like the job samples do and a slow moment of the host
        // cannot land on all of them.
        let (fresh, secs) = resolve(&cfg);
        store = fresh;
        setup.push(secs);
        let t = Instant::now();
        let result = run_job(shape, cfg, &store, &mut codec, origin, &mut spans);
        let secs = t.elapsed().as_secs_f64();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.fatal(format!("fleet job failed: {e}"), cfg.devices * cfg.epochs);
                return out;
            }
        };
        let (json, d) = digest(&report);
        let ops = report.totals.online + report.totals.offline;
        out.attempted += ops;
        if d == ref_digest {
            out.failed += failed_device_epochs(&report, &json);
        } else {
            out.failed += ops;
            out.problems.push(format!(
                "job report digest {d:016x} differs from the reference {ref_digest:016x}"
            ));
        }
        rates.push(ops as f64 / secs);
        sim_rates.push(report.totals.online as f64 * cfg.epoch_ms as f64 / 1e3 / secs);
    }

    out.counter("report_digest", format!("{ref_digest:016x}"));
    if let Some(per_frame) = codec.bytes.checked_div(codec.frames) {
        out.counter("fleet.checkpoint_bytes", per_frame.to_string());
    }
    out.metric("setup_s", median(&setup));
    out.metric("device_epochs_per_s", median(&rates));
    out.metric("sim_s_per_host_s", median(&sim_rates));
    out.metric("savings_gap_pp", fid.savings_gap_pp);
    out.note(format!(
        "{} jobs of {} device-epochs, dev-ep/s min {:.0} median {:.0} max {:.0}; {} setup resolutions",
        rates.len(),
        cfg.devices * cfg.epochs,
        percentile(&rates, 0.0),
        median(&rates),
        percentile(&rates, 1.0),
        setup.len()
    ));
    out
}

/// Timings of one interleaved pair: the plain shard-epoch
/// (`run_epoch_into`) and its traced replay.
#[derive(Debug, Clone, Copy)]
struct Pair {
    plain_ns: u64,
    traced_ns: u64,
}

/// What one pool worker recorded.
#[derive(Debug, Default)]
struct WorkerOut {
    results: Vec<((u64, u64), EpochStats)>,
    pairs: Vec<Pair>,
    layers: Layers,
    spans: Vec<Span>,
    busy_ns: u64,
    problems: Vec<String>,
}

/// Run one shard-epoch twice from the same state, plain and traced, in
/// an order that alternates across shard-epochs, and check that both
/// produce the same statistics and successor state.
fn run_pair(
    cfg: &FleetConfig,
    store: &PolicyStore,
    state: &mut ShardState,
    origin: Instant,
    tid: usize,
    out: &mut WorkerOut,
) -> Result<(), String> {
    let (epoch, shard) = (state.next_epoch, state.shard);
    let mut twin = state.clone();
    let traced_first = (epoch + shard) % 2 == 1;
    let mut plain = None;
    let mut traced = None;
    for first in [true, false] {
        let t = Instant::now();
        let args = vec![("epoch", epoch as f64), ("shard", shard as f64)];
        if first == traced_first {
            let r = replay_shard_epoch(cfg, store, state, origin, tid, &mut out.spans);
            let ns = elapsed_ns(t);
            let (stats, layers) = r.map_err(|e| format!("traced shard-epoch failed: {e}"))?;
            out.layers.add(&layers);
            out.spans.push(Span {
                name: "shard-epoch (traced replay)",
                cat: "trace",
                tid,
                start_ns: since_ns(origin, t),
                dur_ns: ns,
                args,
            });
            traced = Some((stats, ns));
        } else {
            let r = run_epoch_into(cfg, store, &mut twin);
            let ns = elapsed_ns(t);
            let stats = r.map_err(|e| format!("shard-epoch failed: {e}"))?;
            out.spans.push(Span {
                name: "shard-epoch",
                cat: "fleet",
                tid,
                start_ns: since_ns(origin, t),
                dur_ns: ns,
                args,
            });
            plain = Some((stats, ns));
        }
    }
    let (Some((plain, plain_ns)), Some((traced, traced_ns))) = (plain, traced) else {
        return Err("shard-epoch pair incomplete".into());
    };
    if !same_stats(&plain, &traced) || twin != *state {
        return Err(format!(
            "traced replay of epoch {epoch} shard {shard} differs from run_epoch_into"
        ));
    }
    out.results.push(((epoch, shard), plain));
    out.pairs.push(Pair {
        plain_ns,
        traced_ns,
    });
    Ok(())
}

/// What [`pool_pass`] measured.
struct PoolPass {
    report: FleetReport,
    pairs: Vec<Pair>,
    layers: Layers,
    spans: Vec<Span>,
    busy_ns: u64,
    wall_ns: u64,
    threads: usize,
    fold_ns: u64,
    problems: Vec<String>,
}

/// The traced pool pass: every shard-epoch as an interleaved
/// plain/traced pair on a private `WorkerPool`. Pipelined (a job is a
/// shard's every epoch) for the exact workload, barriered (a round per
/// epoch) for the coarse one. Folds the plain statistics epoch-major,
/// shard-minor, as the fleet does.
fn pool_pass(
    shape: Shape,
    cfg: FleetConfig,
    store: &PolicyStore,
    origin: Instant,
) -> Result<PoolPass, String> {
    let mut pool = WorkerPool::new(THREADS);
    let threads = pool.threads();
    let slots: Vec<Mutex<Option<ShardState>>> = (0..cfg.shards)
        .map(|s| Mutex::new(Some(ShardState::new(&cfg, s))))
        .collect();
    // Epochs a job runs per round: all of them (pipelined) or one per
    // round (barriered).
    let rounds: Vec<u64> = match shape {
        Shape::Exact => vec![cfg.epochs],
        Shape::Coarse => vec![1; cfg.epochs as usize],
    };
    let outs: Mutex<Vec<WorkerOut>> = Mutex::new(Vec::new());
    let mut wall_ns = 0;
    for &epochs in &rounds {
        let next = AtomicUsize::new(0);
        let t = Instant::now();
        pool.broadcast(&|worker| {
            let mut out = WorkerOut::default();
            'jobs: loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(s) else { break };
                let t_job = Instant::now();
                let taken = slot.lock().expect("a shard slot is never poisoned").take();
                let Some(mut state) = taken else {
                    out.problems.push(format!("shard {s} state missing"));
                    break;
                };
                for _ in 0..epochs {
                    if let Err(e) = run_pair(&cfg, store, &mut state, origin, worker, &mut out) {
                        out.problems.push(e);
                        *slot.lock().expect("a shard slot is never poisoned") = Some(state);
                        break 'jobs;
                    }
                }
                *slot.lock().expect("a shard slot is never poisoned") = Some(state);
                out.busy_ns += elapsed_ns(t_job);
            }
            outs.lock()
                .expect("no worker panics holding the output list")
                .push(out);
        });
        wall_ns += elapsed_ns(t);
    }

    let mut pass = PoolPass {
        report: FleetReport::new(cfg),
        pairs: Vec::new(),
        layers: Layers::default(),
        spans: Vec::new(),
        busy_ns: 0,
        wall_ns,
        threads,
        fold_ns: 0,
        problems: Vec::new(),
    };
    let mut results = BTreeMap::new();
    for out in outs
        .into_inner()
        .map_err(|_| "worker output list poisoned")?
    {
        results.extend(out.results);
        pass.pairs.extend(out.pairs);
        pass.layers.add(&out.layers);
        pass.spans.extend(out.spans);
        pass.busy_ns += out.busy_ns;
        pass.problems.extend(out.problems);
    }
    if !pass.problems.is_empty() {
        return Ok(pass);
    }

    let t = Instant::now();
    for epoch in 0..cfg.epochs {
        let mut merged = EpochStats::default();
        for shard in 0..cfg.shards {
            let stats = results
                .get(&(epoch, shard))
                .ok_or(format!("no result for epoch {epoch} shard {shard}"))?;
            merged.merge(stats).map_err(|_| "stats layout mismatch")?;
        }
        pass.report
            .totals
            .merge(&merged)
            .map_err(|_| "stats layout mismatch")?;
        pass.report.epochs_run += 1;
    }
    pass.fold_ns = elapsed_ns(t);
    pass.spans.push(main_span(
        "fold (EpochStats::merge)",
        t,
        pass.fold_ns,
        origin,
    ));
    Ok(pass)
}

/// The traced run: per-layer metrics, and the Chrome trace written by
/// the caller from the returned spans.
pub fn run_traced(shape: Shape, seed: u64) -> (RunOutput, Vec<Span>) {
    let mut out = RunOutput::default();
    let cfg = config(shape, seed);
    let origin = Instant::now();
    let mut spans = Vec::new();
    let (store, first) = resolve(&cfg);
    let setup = [first, resolve(&cfg).1, resolve(&cfg).1];

    // The end-to-end path once, for the reference digest and (coarse)
    // the checkpoint/restore costs.
    let mut codec = Codec::default();
    let reference = match run_job(shape, cfg, &store, &mut codec, origin, &mut spans) {
        Ok(r) => r,
        Err(e) => {
            out.fatal(
                format!("reference fleet job failed: {e}"),
                cfg.devices * cfg.epochs,
            );
            return (out, spans);
        }
    };
    let (ref_json, ref_digest) = digest(&reference);

    let pass = match pool_pass(shape, cfg, &store, origin) {
        Ok(p) => p,
        Err(e) => {
            out.fatal(e, cfg.devices * cfg.epochs);
            return (out, spans);
        }
    };
    spans.extend(pass.spans.iter().cloned());
    let ops = cfg.devices * cfg.epochs;
    out.attempted = ops;
    if !pass.problems.is_empty() {
        out.failed = ops;
        out.problems.extend(pass.problems.iter().cloned());
    } else {
        let (json, d) = digest(&pass.report);
        if d == ref_digest {
            out.failed = failed_device_epochs(&pass.report, &json);
        } else {
            out.failed = ops;
            out.problems.push(format!(
                "traced report digest {d:016x} differs from the untraced {ref_digest:016x}"
            ));
        }
    }

    let l = &pass.layers;
    let fid = fidelity(&ref_json, &mut out);
    let plain: Vec<f64> = pass.pairs.iter().map(|p| p.plain_ns as f64 / 1e6).collect();
    let plain_ns: u64 = pass.pairs.iter().map(|p| p.plain_ns).sum();
    let traced_ns: u64 = pass.pairs.iter().map(|p| p.traced_ns).sum();
    let capacity_ns = pass.threads as f64 * pass.wall_ns as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let s = |ns: u64| ns as f64 / 1e9;

    out.counter("report_digest", format!("{ref_digest:016x}"));
    out.counter("soc.events", l.events.to_string());
    out.counter("core.controller_cycles", l.cycles.to_string());
    if let Some(per_frame) = codec.bytes.checked_div(codec.frames) {
        out.counter("fleet.checkpoint_bytes", per_frame.to_string());
    }

    out.metric("fleet.store_resolve_s", median(&setup));
    out.metric("fleet.shard_epochs", plain.len() as f64);
    out.metric("fleet.shard_epoch_ms.p50", percentile(&plain, 0.5));
    out.metric("fleet.shard_epoch_ms.p99", percentile(&plain, 0.99));
    out.metric("fleet.fold_s", s(pass.fold_ns));
    out.metric("fleet.checkpoint_s", s(codec.checkpoint_ns));
    out.metric("fleet.restore_s", s(codec.restore_ns));
    out.metric(
        "fleet.checkpoint_bytes",
        ratio(codec.bytes as f64, codec.frames as f64),
    );
    out.metric("par.busy_s", s(pass.busy_ns));
    out.metric("par.idle_s", (capacity_ns - pass.busy_ns as f64) / 1e9);
    out.metric("par.utilization", ratio(pass.busy_ns as f64, capacity_ns));
    out.metric("soc.device_new_s", s(l.device_new_ns));
    out.metric("soc.event_loop_self_s", s(l.event_loop_self_ns()));
    out.metric("soc.events", l.events as f64);
    out.metric(
        "soc.events_per_device_epoch",
        ratio(l.events as f64, l.device_epochs as f64),
    );
    out.metric(
        "soc.mean_span_ms",
        ratio(l.simulated_ms as f64, l.events as f64),
    );
    out.metric("soc.ns_per_event", ratio(plain_ns as f64, l.events as f64));
    out.metric("workloads.build_app_s", s(l.build_app_ns));
    out.metric("workloads.demand_s", s(l.demand_ns));
    out.metric("workloads.demand_calls", l.demand_calls as f64);
    out.metric("workloads.deliver_s", s(l.deliver_ns));
    out.metric(
        "workloads.horizon_1ms_frac",
        ratio(l.horizon_1ms as f64, l.horizon_answers as f64),
    );
    out.metric("governors.tick_s", s(l.gov_tick_ns));
    out.metric("governors.ticks", l.gov_ticks as f64);
    out.metric("core.supervisor_new_s", s(l.supervisor_new_ns));
    out.metric("core.policy_tick_s", s(l.core_tick_ns));
    out.metric("core.policy_ticks", l.core_ticks as f64);
    out.metric("core.controller_cycles", l.cycles as f64);
    out.metric(
        "core.cycles_per_device_epoch",
        ratio(l.cycles as f64, l.device_epochs as f64),
    );
    out.metric("core.migrate_in_s", s(l.migrate_in_ns));
    out.metric("core.migrate_out_s", s(l.migrate_out_ns));
    out.metric(
        "core.snapshot_bytes_per_device",
        ratio(l.snapshot_bytes as f64, l.snapshots as f64),
    );
    out.metric("core.restarts", reference.totals.restarts as f64);
    out.metric("core.warm_restarts", reference.totals.warm_restarts as f64);
    out.metric(
        "core.snapshot_errors",
        reference.totals.snapshot_errors as f64,
    );
    out.metric("obs.stats_record_s", s(l.stats_record_ns));
    out.metric(
        "obs.quantile_out_of_range",
        paper::quantile_out_of_range(&ref_json) as f64,
    );
    out.metric(
        "trace.overhead_pct",
        ratio(traced_ns as f64 - plain_ns as f64, plain_ns as f64) * 100.0,
    );
    out.metric("trace.unattributed_s", l.unattributed_ns() / 1e9);
    out.metric("savings_wrong_sign", fid.savings_wrong_sign as f64);
    out.metric("perf_shortfall_pct", fid.perf_shortfall_pct);
    for name in [
        "profiler.profile_s",
        "profiler.points",
        "profiler.measure_default_s",
        "profiler.measure_controller_s",
    ] {
        out.metric(name, 0.0);
    }
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> FleetConfig {
        FleetConfig {
            devices: 40,
            shards: 4,
            epochs: 2,
            epoch_ms: 2_000,
            threads,
            ..FleetConfig::smoke()
        }
    }

    #[test]
    fn fleet_digest_is_equal_at_one_and_two_threads() {
        let store = PolicyStore::resolve(&tiny(1), &DeviceConfig::nexus6());
        let mut digests = Vec::new();
        for threads in [1, 2] {
            for shape in [Shape::Exact, Shape::Coarse] {
                let report = run_job(
                    shape,
                    tiny(threads),
                    &store,
                    &mut Codec::default(),
                    Instant::now(),
                    &mut Vec::new(),
                )
                .expect("tiny fleet runs");
                digests.push(digest(&report).1);
            }
        }
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:x?}");
    }

    #[test]
    fn traced_pool_pass_reproduces_the_fleet_report() {
        let cfg = tiny(2);
        let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
        let reference = Fleet::new(cfg)
            .and_then(|mut f| f.run(&store).cloned())
            .expect("tiny fleet runs");
        for shape in [Shape::Exact, Shape::Coarse] {
            let pass = pool_pass(shape, cfg, &store, Instant::now()).expect("pool pass");
            assert!(pass.problems.is_empty(), "{:?}", pass.problems);
            assert_eq!(digest(&pass.report).1, digest(&reference).1);
            assert_eq!(pass.pairs.len() as u64, cfg.shards * cfg.epochs);
        }
    }
}
