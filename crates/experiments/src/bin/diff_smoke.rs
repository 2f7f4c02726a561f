//! Differential smoke test: run a sample of app x quantum x policy x
//! fault configurations through both simulator cores — the retained
//! 1 ms tick loop (`asgov_soc::sim`) and the event-driven engine
//! (`asgov_soc::event`) — and verify the reports are bit-identical.
//!
//! `tests/event_core.rs` and `crates/fleet/tests/coarse_event_core.rs`
//! prove the full matrices under `cargo test`; this binary puts the same
//! guarantee into the experiment pipeline so
//! `scripts/run_all_experiments.sh` (including `--quick`) fails loudly
//! if the two cores ever diverge on the machine producing the results.
//! The `events` column is the event core's engine iterations per run:
//! at quantum 20 it shows how far spans coalesce across fault windows.

use asgov_core::{ControllerBuilder, Supervisor, SupervisorConfig};
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive, Ondemand};
use asgov_profiler::{profile_app, ProfileOptions};
use asgov_soc::{event, sim, Device, DeviceConfig, FaultInjector, FaultKind, FaultPlan, Policy};
use asgov_workloads::{apps, BackgroundLoad, PhasedApp};

/// Constructor signature shared by every packaged application.
type AppCtor = fn(BackgroundLoad) -> PhasedApp;

/// The fault plans of the smoke matrix, scaled to a run of `run_ms`.
fn fault_plans(run_ms: u64) -> Vec<(&'static str, Option<FaultPlan>)> {
    let kill = |plan: FaultPlan, at: u64| plan.window(at, at + 200, FaultKind::ControllerKill);
    let plans = [
        (
            "thermal+hotplug",
            FaultPlan::new()
                .window(run_ms / 8, run_ms / 3, FaultKind::ThermalClamp(4))
                .and_then(|p| p.window(run_ms / 2, run_ms * 3 / 4, FaultKind::Hotplug(2.0))),
        ),
        (
            "sysfs-busy",
            FaultPlan::new().window_p(1, run_ms, 0.2, FaultKind::SysfsBusy),
        ),
        (
            "ckpt-corrupt",
            FaultPlan::new()
                .window_p(1, run_ms, 0.5, FaultKind::CheckpointCorrupt)
                .and_then(|p| kill(p, run_ms * 5 / 8)),
        ),
        (
            "controller-kill",
            kill(FaultPlan::new(), run_ms / 4).and_then(|p| kill(p, run_ms * 5 / 8)),
        ),
    ];
    let mut out = vec![("none", None)];
    out.extend(
        plans
            .into_iter()
            .map(|(name, plan)| (name, Some(plan.expect("valid windows")))),
    );
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let run_ms: u64 = if quick { 2_000 } else { 10_000 };

    let apps: Vec<(&str, AppCtor)> = vec![
        ("spotify", apps::spotify as AppCtor),
        ("wechat", apps::wechat),
        ("angrybirds", apps::angrybirds),
    ];
    let plans = fault_plans(run_ms);
    let profile_opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 2_000,
        freq_stride: 4,
        interpolate: true,
    };
    let dev_cfg = DeviceConfig::nexus6();

    println!("=== Differential smoke: tick core vs event core ({run_ms} ms runs) ===\n");
    println!(
        "{:<12} {:>3} {:<12} {:<16} {:>12} {:>10} {:>8} {:>10}",
        "app", "q", "policy", "faults", "energy (J)", "GIPS", "events", "identical"
    );

    let mut checked = 0usize;
    for (app_name, app_fn) in &apps {
        let profile = profile_app(
            &dev_cfg,
            &mut app_fn(BackgroundLoad::baseline(1)),
            &profile_opts,
        );
        for quantum_ms in [1u64, 20] {
            for policy in ["none", "ondemand", "interactive", "supervised"] {
                for (plan_name, plan) in &plans {
                    let run = |use_event: bool| {
                        let mut device = Device::new(dev_cfg.clone());
                        if let Some(plan) = plan {
                            device.install_faults(FaultInjector::new(plan.clone(), 0x5eed));
                        }
                        let mut app = app_fn(BackgroundLoad::baseline(1)).with_quantum(quantum_ms);
                        let mut cpu_ondemand = Ondemand::default();
                        let mut cpu_interactive = Interactive::default();
                        let mut bw = CpubwHwmon::default();
                        let mut gpu = AdrenoTz::default();
                        let p = profile.clone();
                        let mut supervisor = Supervisor::new(
                            move || ControllerBuilder::new(p.clone()).target_gips(0.5).build(),
                            SupervisorConfig::default(),
                        );
                        let mut policies: Vec<&mut dyn Policy> = match policy {
                            "none" => vec![],
                            "ondemand" => vec![&mut cpu_ondemand, &mut bw, &mut gpu],
                            "interactive" => vec![&mut cpu_interactive, &mut bw, &mut gpu],
                            _ => vec![&mut gpu, &mut supervisor],
                        };
                        if use_event {
                            let (report, engine) =
                                event::run_counted(&mut device, &mut app, &mut policies, run_ms);
                            (report, engine.events)
                        } else {
                            let report = sim::run(&mut device, &mut app, &mut policies, run_ms);
                            (report, 0)
                        }
                    };
                    let (tick, _) = run(false);
                    let (event, events) = run(true);
                    let identical = tick == event
                        && tick.energy_j.to_bits() == event.energy_j.to_bits()
                        && tick.instructions.to_bits() == event.instructions.to_bits();
                    println!(
                        "{:<12} {:>3} {:<12} {:<16} {:>12.3} {:>10.4} {:>8} {:>10}",
                        app_name,
                        quantum_ms,
                        policy,
                        plan_name,
                        tick.energy_j,
                        tick.avg_gips,
                        events,
                        identical
                    );
                    assert!(
                        identical,
                        "cores diverged on {app_name}/q{quantum_ms}/{policy}/{plan_name}: \
                         tick energy {:.17e} vs event {:.17e}",
                        tick.energy_j, event.energy_j
                    );
                    checked += 1;
                }
            }
        }
    }
    println!("\nall {checked} configurations bit-identical across both cores");
}
