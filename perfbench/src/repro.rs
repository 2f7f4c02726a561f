//! The `repro` workload: `harness::compare` at the paper-grade
//! `ExperimentOptions::default()` for the six paper apps under the
//! baseline, no and heavy background loads (18 rows, one thread, no
//! fleet, pool, codec or supervisor).
//!
//! Set-up is the paper's Stage 1, offline profiling. The traced run
//! replays the default-governor and controller legs of every row over
//! forwarding wrappers, each beside its plain twin.

use crate::stats::{fnv1a, median};
use crate::trace::{
    elapsed_ns, since_ns, CycleCounter, Layers, Span, TracedPolicy, TracedWorkload,
};
use crate::{paper, RunOutput};
use asgov_core::{ControlMode, ControllerBuilder, EnergyController};
use asgov_experiments::harness::{compare, profile_app_for_mode, Comparison, ExperimentOptions};
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_profiler::{measure_default, measure_fixed, DefaultMeasurement, ProfileTable};
use asgov_soc::sim::{self, RunReport};
use asgov_soc::{Device, DeviceConfig, Policy, Workload as _};
use asgov_workloads::{paper_apps, AppKind, BackgroundLoad, LoadLevel, PhasedApp};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Measured passes over all rows per run, at least.
const MIN_PASSES: usize = 2;

/// The 18 comparison rows (an app under one background load),
/// baseline-load rows first, apps in Table III order.
fn rows(seed: u64) -> Vec<PhasedApp> {
    [LoadLevel::Baseline, LoadLevel::None, LoadLevel::Heavy]
        .into_iter()
        .flat_map(|load| paper_apps(BackgroundLoad::with_level(load, seed)))
        .collect()
}

fn device_config(seed: u64) -> DeviceConfig {
    DeviceConfig::nexus6().with_seed(seed)
}

/// A digest of the comparison rows: every field, floats exactly (the
/// `Debug` form of an `f64` round-trips).
fn digest(rows: &[Comparison]) -> u64 {
    let text: String = rows.iter().map(|c| format!("{c:?}\n")).collect();
    fnv1a(text.as_bytes())
}

/// Why a row counts as a failed operation, if it does.
fn row_problem(c: &Comparison) -> Option<String> {
    if c.baseline_degenerate() {
        return Some(format!("{}: degenerate baseline", c.app));
    }
    if !(c.default.energy_j.is_finite() && c.controller.energy_j.is_finite()) {
        return Some(format!("{}: non-finite energy", c.app));
    }
    c.failure_summary()
}

/// Fidelity from the baseline-load rows (the first six).
fn fidelity(rows: &[Comparison]) -> paper::Fidelity {
    let mut savings = [0.0; 6];
    let mut perf = [0.0; 6];
    for (i, c) in rows.iter().take(6).enumerate() {
        savings[i] = c.energy_savings_pct();
        perf[i] = c.performance_delta_pct();
    }
    paper::fidelity(&savings, Some(&perf))
}

/// Device runs and simulated ms of the measurement legs of `rows`.
fn simulated(rows: &[Comparison]) -> (u64, u64) {
    let reports = rows
        .iter()
        .flat_map(|c| c.default.reports.iter().chain(&c.controller.reports));
    reports.fold((0, 0), |(n, ms), r| (n + 1, ms + r.duration_ms))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> RunOutput {
    let mut out = RunOutput::default();
    let dev_cfg = device_config(seed);
    let opts = ExperimentOptions::default();
    let mut rows = rows(seed);

    let mut setup = Vec::new();
    let mut profiles: Vec<ProfileTable> = Vec::new();
    let mut run_rates = Vec::new();
    let mut sim_rates = Vec::new();
    let mut first: Option<(u64, Vec<Comparison>)> = None;
    let measure = Instant::now();
    while run_rates.len() < MIN_PASSES || measure.elapsed().as_secs_f64() < seconds {
        // Stage 1 is repeated before every pass, so that the set-up
        // samples span the run like the pass samples do.
        let t = Instant::now();
        profiles = rows
            .iter_mut()
            .map(|app| profile_app_for_mode(&dev_cfg, app, &opts))
            .collect();
        setup.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let pass: Vec<Comparison> = rows
            .iter_mut()
            .map(|app| compare(&dev_cfg, app, &opts))
            .collect();
        let secs = t.elapsed().as_secs_f64();
        let d = digest(&pass);
        for (c, profile) in pass.iter().zip(&profiles) {
            out.attempted += 1;
            let mut problem = row_problem(c);
            if c.profile != *profile {
                problem = Some(format!("{}: Stage-1 profile differs from set-up", c.app));
            }
            if let Some(&(ref_digest, _)) = first.as_ref() {
                if d != ref_digest {
                    problem = Some(format!(
                        "pass digest {d:016x} differs from {ref_digest:016x}"
                    ));
                }
            }
            if let Some(p) = problem {
                out.failed += 1;
                out.problems.push(p);
            }
        }
        let (runs, sim_ms) = simulated(&pass);
        run_rates.push(runs as f64 / secs);
        sim_rates.push(sim_ms as f64 / 1e3 / secs);
        if first.is_none() {
            first = Some((d, pass));
        }
    }
    let Some((ref_digest, reference)) = first else {
        out.fatal("no measured pass".into(), 1);
        return out;
    };
    let fid = fidelity(&reference);
    out.counter("report_digest", format!("{ref_digest:016x}"));
    out.counter(
        "profiler.points",
        profiles
            .iter()
            .map(ProfileTable::len)
            .sum::<usize>()
            .to_string(),
    );
    out.metric("setup_s", median(&setup));
    out.metric("device_epochs_per_s", median(&run_rates));
    out.metric("sim_s_per_host_s", median(&sim_rates));
    out.metric("savings_gap_pp", fid.savings_gap_pp);
    out.note(format!(
        "{} passes of {} rows; {} Stage-1 passes",
        run_rates.len(),
        reference.len(),
        setup.len()
    ));
    out
}

/// The controller the harness runs for a row (its `controller_stack`):
/// zero target margin for deadline-based apps, seeded by run index.
fn controller(
    profile: &ProfileTable,
    target: f64,
    deadline_based: bool,
    run: usize,
) -> EnergyController {
    ControllerBuilder::new(profile.clone())
        .target_gips(target)
        .target_margin(if deadline_based { 0.0 } else { 0.01 })
        .mode(ControlMode::Coordinated)
        .seed(0xc0de + run as u64)
        .build()
}

/// `DefaultMeasurement` over `reports`, averaged as the profiler does.
fn measurement(reports: Vec<RunReport>) -> DefaultMeasurement {
    let n = reports.len() as f64;
    DefaultMeasurement {
        gips: reports.iter().map(|r| r.avg_gips).sum::<f64>() / n,
        power_w: reports.iter().map(|r| r.avg_power_w).sum::<f64>() / n,
        duration_ms: reports.iter().map(|r| r.duration_ms as f64).sum::<f64>() / n,
        energy_j: reports.iter().map(|r| r.energy_j).sum::<f64>() / n,
        reports,
    }
}

/// Which leg of a row is replayed.
#[derive(Clone, Copy, PartialEq)]
enum Leg {
    /// Stock governors (`measure_default`).
    Default,
    /// The controller stack (`measure_fixed`), with its target.
    Controller { target: f64, deadline_based: bool },
}

/// Host-time records of the traced run.
struct Recorder {
    layers: Layers,
    spans: Vec<Span>,
    origin: Instant,
}

impl Recorder {
    /// Record a slice that started at `at` and ends now.
    fn span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        at: Instant,
        args: Vec<(&'static str, f64)>,
    ) {
        self.spans.push(Span {
            name,
            cat,
            tid: 0,
            start_ns: since_ns(self.origin, at),
            dur_ns: elapsed_ns(at),
            args,
        });
    }
}

/// Run one leg the plain way, through the profiler's public
/// measurement functions.
fn plain_leg(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    profile: &ProfileTable,
    leg: Leg,
    runs: usize,
    max_ms: u64,
) -> DefaultMeasurement {
    match leg {
        Leg::Default => measure_default(dev_cfg, app, runs, max_ms),
        Leg::Controller {
            target,
            deadline_based,
        } => {
            let mut run = 0;
            measure_fixed(dev_cfg, app, runs, max_ms, || {
                run += 1;
                vec![
                    Box::new(AdrenoTz::default()) as Box<dyn Policy>,
                    Box::new(controller(profile, target, deadline_based, run)),
                ]
            })
        }
    }
}

/// Replay one leg's runs with every layer call timed, seeded exactly as
/// `measure_default` / `measure_fixed` seed them.
fn replay_leg(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    profile: &ProfileTable,
    leg: Leg,
    runs: usize,
    max_ms: u64,
    rec: &mut Recorder,
) -> DefaultMeasurement {
    let mut reports = Vec::with_capacity(runs);
    for run in 0..runs {
        let salt = if leg == Leg::Default { 0xd0 } else { 0xf0 };
        let t = Instant::now();
        let mut device = Device::new(
            dev_cfg
                .clone()
                .with_seed(dev_cfg.seed ^ (salt + run as u64)),
        );
        if leg == Leg::Default {
            device.set_tool_overhead(0.04, 0.015);
        }
        rec.layers.device_new_ns += elapsed_ns(t);
        let counter = Rc::new(RefCell::new(CycleCounter::default()));
        device.install_obs_sink(counter.clone());
        app.reset();

        let t = Instant::now();
        let layers = &mut rec.layers;
        let report = match leg {
            Leg::Default => {
                let (mut cpu, mut bw, mut gpu) = (
                    Interactive::default(),
                    CpubwHwmon::default(),
                    AdrenoTz::default(),
                );
                let mut w = TracedWorkload::new(app);
                let mut c = TracedPolicy::new(&mut cpu);
                let mut b = TracedPolicy::new(&mut bw);
                let mut g = TracedPolicy::new(&mut gpu);
                let report = sim::run(&mut device, &mut w, &mut [&mut c, &mut b, &mut g], max_ms);
                layers.add_loop(&w, &[&c, &b, &g], &[]);
                report
            }
            Leg::Controller {
                target,
                deadline_based,
            } => {
                let mut gpu = AdrenoTz::default();
                let mut ctrl = controller(profile, target, deadline_based, run + 1);
                let mut w = TracedWorkload::new(app);
                let mut g = TracedPolicy::new(&mut gpu);
                let mut c = TracedPolicy::new(&mut ctrl);
                let report = sim::run(&mut device, &mut w, &mut [&mut g, &mut c], max_ms);
                layers.add_loop(&w, &[&g], &[&c]);
                layers.cycles += counter.borrow().cycles;
                layers.controlled_runs += 1;
                report
            }
        };
        layers.event_loop_ns += elapsed_ns(t);
        // The tick core runs one loop iteration per simulated ms.
        layers.events += report.duration_ms;
        layers.simulated_ms += report.duration_ms;
        let name = if leg == Leg::Default {
            "sim::run (default)"
        } else {
            "sim::run (controller)"
        };
        let args = vec![("run", run as f64), ("sim_ms", report.duration_ms as f64)];
        rec.span(name, "soc", t, args);
        reports.push(report);
    }
    measurement(reports)
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64) -> (RunOutput, Vec<Span>) {
    let mut out = RunOutput::default();
    let dev_cfg = device_config(seed);
    let opts = ExperimentOptions::default();
    let mut rec = Recorder {
        layers: Layers::default(),
        spans: Vec::new(),
        origin: Instant::now(),
    };
    let t = Instant::now();
    let mut rows = rows(seed);
    rec.layers.build_app_ns = elapsed_ns(t);

    let reference: Vec<Comparison> = rows
        .iter_mut()
        .map(|app| compare(&dev_cfg, app, &opts))
        .collect();
    let ref_digest = digest(&reference);

    let (mut profile_ns, mut default_ns, mut ctrl_ns) = (0, 0, 0);
    let mut traced = Vec::with_capacity(rows.len());
    for (i, app) in rows.iter_mut().enumerate() {
        let duration = opts.duration_ms.unwrap_or(app.spec().test_duration_ms);
        let deadline_based = matches!(app.spec().kind, AppKind::Batch { .. });
        let row_start = Instant::now();

        let t = Instant::now();
        let profile = profile_app_for_mode(&dev_cfg, app, &opts);
        profile_ns += elapsed_ns(t);
        rec.span(
            "profile_app_for_mode",
            "profiler",
            t,
            vec![("points", profile.len() as f64)],
        );

        // Each leg runs plain and traced, in an order that alternates
        // across rows and legs; the two must agree exactly.
        let mut run_pair = |leg: Leg, replay_first: bool| {
            let mut plain = None;
            let mut replayed = None;
            for replay in [replay_first, !replay_first] {
                let t = Instant::now();
                if replay {
                    let r = replay_leg(&dev_cfg, app, &profile, leg, opts.runs, duration, &mut rec);
                    rec.layers.replay_ns += elapsed_ns(t);
                    replayed = Some(r);
                } else {
                    let m = plain_leg(&dev_cfg, app, &profile, leg, opts.runs, duration);
                    plain = Some((m, elapsed_ns(t)));
                }
            }
            let (Some((plain, ns)), Some(replayed)) = (plain, replayed) else {
                unreachable!("each half of a pair runs once");
            };
            (plain == replayed, plain, ns)
        };
        let (same_default, default, ns) = run_pair(Leg::Default, i % 2 == 0);
        default_ns += ns;
        let leg = Leg::Controller {
            target: default.gips,
            deadline_based,
        };
        let (same_ctrl, controller, ns) = run_pair(leg, i % 2 == 1);
        ctrl_ns += ns;
        if !(same_default && same_ctrl) {
            out.problems.push(format!(
                "{}: traced replay differs from the plain leg",
                app.spec().name
            ));
        }
        rec.span("compare row", "repro", row_start, vec![("row", i as f64)]);
        traced.push(Comparison {
            app: app.spec().name.to_string(),
            profile,
            default,
            controller,
            deadline_based,
        });
    }

    let traced_digest = digest(&traced);
    out.attempted = reference.len() as u64;
    for c in &reference {
        if let Some(p) = row_problem(c) {
            out.failed += 1;
            out.problems.push(p);
        }
    }
    if traced_digest != ref_digest {
        out.failed = out.attempted;
        out.problems.push(format!(
            "traced rows digest {traced_digest:016x} differs from compare's {ref_digest:016x}"
        ));
    }

    let fid = fidelity(&reference);
    let points: usize = traced.iter().map(|c| c.profile.len()).sum();
    let l = &rec.layers;
    let plain_ns = default_ns + ctrl_ns;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let s = |ns: u64| ns as f64 / 1e9;
    out.counter("report_digest", format!("{ref_digest:016x}"));
    out.counter("soc.events", l.events.to_string());
    out.counter("core.controller_cycles", l.cycles.to_string());
    out.counter("profiler.points", points.to_string());

    out.metric("profiler.profile_s", s(profile_ns));
    out.metric("profiler.points", points as f64);
    out.metric("profiler.measure_default_s", s(default_ns));
    out.metric("profiler.measure_controller_s", s(ctrl_ns));
    out.metric("soc.device_new_s", s(l.device_new_ns));
    out.metric("soc.event_loop_self_s", s(l.event_loop_self_ns()));
    out.metric("soc.events", l.events as f64);
    out.metric(
        "soc.events_per_device_epoch",
        ratio(l.events as f64, (reference.len() * 2 * opts.runs) as f64),
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
    out.metric("core.policy_tick_s", s(l.core_tick_ns));
    out.metric("core.policy_ticks", l.core_ticks as f64);
    out.metric("core.controller_cycles", l.cycles as f64);
    out.metric(
        "core.cycles_per_device_epoch",
        ratio(l.cycles as f64, l.controlled_runs as f64),
    );
    out.metric(
        "trace.overhead_pct",
        ratio(l.replay_ns as f64 - plain_ns as f64, plain_ns as f64) * 100.0,
    );
    out.metric("trace.unattributed_s", l.unattributed_ns() / 1e9);
    out.metric("savings_wrong_sign", fid.savings_wrong_sign as f64);
    out.metric("perf_shortfall_pct", fid.perf_shortfall_pct);
    for name in [
        "fleet.store_resolve_s",
        "fleet.shard_epochs",
        "fleet.shard_epoch_ms.p50",
        "fleet.shard_epoch_ms.p99",
        "fleet.fold_s",
        "fleet.checkpoint_s",
        "fleet.restore_s",
        "fleet.checkpoint_bytes",
        "par.busy_s",
        "par.idle_s",
        "par.utilization",
        "core.supervisor_new_s",
        "core.migrate_in_s",
        "core.migrate_out_s",
        "core.snapshot_bytes_per_device",
        "core.restarts",
        "core.warm_restarts",
        "core.snapshot_errors",
        "obs.stats_record_s",
        "obs.quantile_out_of_range",
    ] {
        out.metric(name, 0.0);
    }
    (out, rec.spans)
}
