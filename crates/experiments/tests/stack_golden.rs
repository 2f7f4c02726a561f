//! Golden pins of every Stage-2 controller deployment (paper §IV–V):
//! the harness controller leg (Table III / V), the chaos binary's
//! traced sysfs-busy run and supervised kill runs, and one fleet
//! shard-epoch at the exact and the coarse demand quantum.
//!
//! Each outcome is rendered one line per quantity — `f64::to_bits` for
//! floats, FNV-1a hashes for traces (host-timing fields zeroed) and
//! snapshot frames — and compared
//! against `stack_golden.txt`. The pins were captured while each call
//! site still assembled its own governor list, margin and seed; the
//! single controller recipe must reproduce every bit. The energy, power
//! and savings pins were re-captured once when the power monitor moved
//! its measurement noise from one draw per millisecond to one draw per
//! energy read.
//!
//! Options are small (stride 4, 3 s profile windows, runs of seconds)
//! so the whole file runs in well under a minute in debug builds.

use asgov_core::{ControllerBuilder, PolicySpec, SupervisorConfig};
use asgov_experiments::harness::{compare, ExperimentOptions};
use asgov_fleet::shard::run_epoch_into;
use asgov_fleet::{EpochStats, FleetConfig, PolicyStore, ShardState};
use asgov_obs::RingSink;
use asgov_profiler::{measure_default, profile_app, DefaultMeasurement, ProfileOptions};
use asgov_soc::sim::RunReport;
use asgov_soc::{Device, DeviceConfig, FaultInjector, FaultKind, FaultPlan, Workload as _};
use asgov_workloads::{apps, BackgroundLoad, PhasedApp};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

const GOLDEN: &str = include_str!("stack_golden.txt");

/// Chaos scenarios: run length and the middle-third fault window.
const CHAOS_MS: u64 = 12_000;
const FAULT_START_MS: u64 = 4_000;
const FAULT_END_MS: u64 = 8_000;

fn profile_opts() -> ProfileOptions {
    ProfileOptions {
        runs_per_config: 1,
        run_ms: 3_000,
        freq_stride: 4,
        interpolate: true,
    }
}

/// Two runs per leg, so the per-run controller seeds are exercised.
fn small_opts(mode: asgov_core::ControlMode) -> ExperimentOptions {
    ExperimentOptions {
        profile: profile_opts(),
        runs: 2,
        duration_ms: Some(8_000),
        mode,
    }
}

/// FNV-1a, 64 bit: a stable digest for traces and snapshot frames.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The JSONL trace with the host-timing fields (`solve_ns`,
/// `actuation_ns`) zeroed: everything else in a record is simulated and
/// therefore reproducible.
fn deterministic_jsonl(records: &[asgov_obs::CycleRecord]) -> String {
    records
        .iter()
        .map(|r| {
            let mut r = *r;
            r.solve_ns = 0;
            r.actuation_ns = 0;
            r.to_jsonl_line()
        })
        .collect()
}

fn render_measurement(out: &mut String, section: &str, key: &str, m: &DefaultMeasurement) {
    let _ = writeln!(
        out,
        "{section} {key} runs {} gips {:#018x} power_w {:#018x} duration_ms {:#018x} energy_j {:#018x}",
        m.reports.len(),
        m.gips.to_bits(),
        m.power_w.to_bits(),
        m.duration_ms.to_bits(),
        m.energy_j.to_bits()
    );
}

fn render_report(out: &mut String, section: &str, key: &str, r: &RunReport) {
    let _ = writeln!(
        out,
        "{section} {key} gips {:#018x} power_w {:#018x} energy_j {:#018x} duration_ms {}",
        r.avg_gips.to_bits(),
        r.avg_power_w.to_bits(),
        r.energy_j.to_bits(),
        r.duration_ms
    );
    if let Some(h) = r.health {
        let _ = writeln!(
            out,
            "{section} {key} health restarts {} warm {} snapshot_errors {} downtime_ms {} writes {} retries {} rejected {} level {}",
            h.restarts,
            h.warm_restarts,
            h.snapshot_errors,
            h.downtime_ms,
            h.write_failures(),
            h.retries,
            h.perf_rejected,
            h.level
        );
    }
}

fn render_epoch(out: &mut String, section: &str, key: &str, s: &EpochStats) {
    let words: Vec<u8> = s
        .savings
        .serialize_words()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let _ = writeln!(
        out,
        "{section} {key} online {} offline {} energy_j {:#018x} restarts {} warm {} migrations {} snapshot_errors {} downtime_ms {} savings {:#018x}",
        s.online,
        s.offline,
        s.energy_j.to_bits(),
        s.restarts,
        s.warm_restarts,
        s.warm_migrations,
        s.snapshot_errors,
        s.downtime_ms,
        fnv1a(&words)
    );
}

/// Compare `rendered` line by line against the golden lines of `section`.
fn assert_golden(section: &str, rendered: &str) {
    let prefix = format!("{section} ");
    let want: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with(&prefix)).collect();
    let got: Vec<&str> = rendered.lines().collect();
    assert!(!want.is_empty(), "no golden lines for {section}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g,
            w,
            "{section}: line {} differs from the golden pin",
            i + 1
        );
    }
    assert_eq!(got.len(), want.len(), "{section}: line count");
}

fn pinned_apps() -> [(&'static str, PhasedApp); 2] {
    [
        ("spotify", apps::spotify(BackgroundLoad::baseline(1))),
        ("vidcon", apps::vidcon(BackgroundLoad::baseline(1))),
    ]
}

fn check_compare(section: &str, mode: asgov_core::ControlMode) {
    let dev_cfg = DeviceConfig::nexus6();
    let mut out = String::new();
    for (name, mut app) in pinned_apps() {
        let c = compare(&dev_cfg, &mut app, &small_opts(mode));
        render_measurement(&mut out, section, &format!("{name} default"), &c.default);
        render_measurement(
            &mut out,
            section,
            &format!("{name} controller"),
            &c.controller,
        );
    }
    assert_golden(section, &out);
}

#[test]
fn coordinated_controller_leg_matches_golden() {
    check_compare("compare-coordinated", asgov_core::ControlMode::Coordinated);
}

#[test]
fn cpu_only_controller_leg_matches_golden() {
    check_compare("compare-cpu-only", asgov_core::ControlMode::CpuOnly);
}

/// The chaos binary's WeChat set-up: profile and default-governor target.
fn chaos_setup(dev_cfg: &DeviceConfig) -> (PhasedApp, asgov_profiler::ProfileTable, f64) {
    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(dev_cfg, &mut app, &profile_opts());
    let target = measure_default(dev_cfg, &mut app, 1, CHAOS_MS).gips;
    (app, profile, target)
}

#[test]
fn traced_sysfs_busy_run_matches_golden() {
    let dev_cfg = DeviceConfig::nexus6();
    let (mut app, profile, target) = chaos_setup(&dev_cfg);
    let plan = FaultPlan::new()
        .window_p(FAULT_START_MS, FAULT_END_MS, 0.8, FaultKind::SysfsBusy)
        .expect("valid window");
    let mut device = Device::new(dev_cfg);
    device.install_faults(FaultInjector::new(plan, 0x5eed));
    let sink = Rc::new(RefCell::new(RingSink::new(4096)));
    device.install_obs_sink(sink.clone());
    app.reset();
    let report = PolicySpec::new(profile, target)
        .stack(ControllerBuilder::DEFAULT_SEED)
        .run(&mut device, &mut app, CHAOS_MS);
    let sink = sink.borrow();
    let mut out = String::new();
    render_report(&mut out, "traced", "sysfs-busy", &report);
    let _ = writeln!(
        out,
        "traced sysfs-busy records {} faulted {} jsonl {:#018x}",
        sink.ring().len(),
        sink.metrics().total_faults(),
        fnv1a(deterministic_jsonl(&sink.records()).as_bytes())
    );
    assert_golden("traced", &out);
}

#[test]
fn supervised_kill_runs_match_golden() {
    let dev_cfg = DeviceConfig::nexus6();
    let (mut app, profile, target) = chaos_setup(&dev_cfg);
    let mut out = String::new();
    for (mode, warm) in [("cold", false), ("warm", true)] {
        let plan = FaultPlan::new()
            .window(
                FAULT_START_MS,
                FAULT_START_MS + 500,
                FaultKind::ControllerKill,
            )
            .and_then(|p| p.window(6_000, 6_500, FaultKind::ControllerKill))
            .expect("valid kill windows");
        let mut device = Device::new(dev_cfg.clone());
        device.install_faults(FaultInjector::new(plan, 0x5eed));
        app.reset();
        let sup_cfg = SupervisorConfig {
            warm,
            ..SupervisorConfig::default()
        };
        let report = PolicySpec::new(profile.clone(), target)
            .supervised(ControllerBuilder::DEFAULT_SEED, sup_cfg)
            .run(&mut device, &mut app, CHAOS_MS);
        render_report(&mut out, "supervised", mode, &report);
    }
    assert_golden("supervised", &out);
}

fn check_shard_epochs(section: &str, quantum_ms: u64) {
    let cfg = FleetConfig {
        devices: 24,
        shards: 2,
        epochs: 2,
        epoch_ms: 2_000,
        threads: 1,
        demand_quantum_ms: quantum_ms,
        ..FleetConfig::smoke()
    };
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let mut state = ShardState::new(&cfg, 0);
    let mut out = String::new();
    for epoch in 0..cfg.epochs {
        let stats = run_epoch_into(&cfg, &store, &mut state).expect("roster signatures");
        render_epoch(&mut out, section, &format!("epoch {epoch}"), &stats);
        let bytes = state.snapshot_bytes().expect("small frame");
        let _ = writeln!(
            out,
            "{section} epoch {epoch} successor bytes {} fnv {:#018x}",
            bytes.len(),
            fnv1a(&bytes)
        );
    }
    assert_golden(section, &out);
}

#[test]
fn exact_quantum_shard_epochs_match_golden() {
    check_shard_epochs("shard-q1", 1);
}

#[test]
fn coarse_quantum_shard_epochs_match_golden() {
    check_shard_epochs("shard-q20", 20);
}
