//! The event core on fleet device-epochs: for every roster app, every
//! fault class's plan (`DeviceSpec::fault_injector`) and both demand
//! quanta the fleet uses, the next-event engine (`event::run`) must give
//! a `RunReport` equal to the 1 ms tick core's (`sim::run`), under the
//! Android default stack and under the fleet's supervised controller.
//! A second test gates event density: a fault window may only cost the
//! events its edges and one-shot firings need, never 1 ms steps.

use asgov_core::{ControllerBuilder, EnergyController, Supervisor, SupervisorConfig};
use asgov_fleet::spec::{build_app, roster_names};
use asgov_fleet::{DeviceSpec, FaultClass, FleetConfig, PolicyStore};
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_soc::sim::RunReport;
use asgov_soc::{event, sim, Device, DeviceConfig, FaultKind, Policy};
use asgov_workloads::{BackgroundLoad, LoadLevel};

/// A fleet device-epoch, ms.
const EPOCH_MS: u64 = 4_000;

/// The policy stacks a device-epoch runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stack {
    /// `Interactive`, `CpubwHwmon` and `AdrenoTz`.
    Defaults,
    /// `AdrenoTz` and a supervised `EnergyController`, as in the fleet.
    Supervised,
}

/// The store every supervised run draws its profile and target from.
fn store() -> PolicyStore {
    let cfg = FleetConfig {
        epoch_ms: EPOCH_MS,
        ..FleetConfig::smoke()
    };
    PolicyStore::resolve(&cfg, &DeviceConfig::nexus6())
}

fn supervisor(store: &PolicyStore, app: &str, seed: u64) -> Supervisor<EnergyController> {
    let sig = asgov_fleet::spec::signature(app, LoadLevel::Baseline);
    let policy = store
        .get(&sig)
        .expect("store resolves every roster signature");
    let (profile, target) = (policy.profile.clone(), policy.target_gips);
    Supervisor::new(
        move || {
            ControllerBuilder::new(profile.clone())
                .target_gips(target)
                .seed(seed)
                .build()
        },
        SupervisorConfig {
            max_restarts: 8,
            backoff_base_ms: 50,
            backoff_max_ms: 400,
            checkpoint_period_ms: 2_000,
            warm: true,
        },
    )
}

/// One device-epoch of roster app `app_idx` in fault class `class`,
/// through the event core (`use_event`) or the tick core. Returns the
/// report and the event core's event count (the simulated ms for the
/// tick core).
fn device_epoch(
    store: &PolicyStore,
    app_idx: usize,
    class: FaultClass,
    quantum_ms: u64,
    stack: Stack,
    use_event: bool,
) -> (RunReport, u64) {
    let app = roster_names()[app_idx];
    let seed = 0xc0a5e ^ ((app_idx as u64) << 8) ^ class.index() as u64;
    let spec = DeviceSpec {
        device_id: 0,
        app,
        app_idx,
        load: LoadLevel::Baseline,
        fault_class: class,
    };
    let mut device = Device::new(DeviceConfig::nexus6().with_seed(seed));
    if let Some(injector) = spec.fault_injector(EPOCH_MS, seed ^ 0xfa) {
        device.install_faults(injector);
    }
    let mut workload = build_app(
        app,
        BackgroundLoad::with_level(LoadLevel::Baseline, seed),
        quantum_ms,
    )
    .expect("roster app");

    let mut cpu = Interactive::default();
    let mut bw = CpubwHwmon::default();
    let mut gpu = AdrenoTz::default();
    let mut sup = supervisor(store, app, seed);
    let mut policies: Vec<&mut dyn Policy> = match stack {
        Stack::Defaults => vec![&mut cpu, &mut bw, &mut gpu],
        Stack::Supervised => vec![&mut gpu, &mut sup],
    };
    if use_event {
        let (report, engine) =
            event::run_counted(&mut device, &mut workload, &mut policies, EPOCH_MS);
        (report, engine.events)
    } else {
        let report = sim::run(&mut device, &mut workload, &mut policies, EPOCH_MS);
        let ms = report.duration_ms;
        (report, ms)
    }
}

/// 6 roster apps x 7 fault classes x quantum {1, 20} x 2 stacks:
/// whole-report equality between the two cores. At quantum 20 the
/// coarse app model and the fault windows both shape the spans, so
/// this pins that neither changes what a device-epoch computes.
#[test]
fn event_core_matches_tick_core_on_fleet_device_epochs() {
    let store = store();
    let mut mismatches = Vec::new();
    let mut rows = 0;
    for app_idx in 0..roster_names().len() {
        for class in FaultClass::all() {
            for quantum_ms in [1, 20] {
                for stack in [Stack::Defaults, Stack::Supervised] {
                    let (tick, _) = device_epoch(&store, app_idx, class, quantum_ms, stack, false);
                    let (event, _) = device_epoch(&store, app_idx, class, quantum_ms, stack, true);
                    rows += 1;
                    if tick != event || tick.energy_j.to_bits() != event.energy_j.to_bits() {
                        mismatches.push(format!(
                            "{}/{}/q{quantum_ms}/{stack:?}: tick {:.17e} J vs event {:.17e} J",
                            roster_names()[app_idx],
                            class.label(),
                            tick.energy_j,
                            event.energy_j
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(rows, 168);
    assert!(
        mismatches.is_empty(),
        "{} of {rows} device-epochs differ between the cores:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// At quantum 20, a fault window may add at most 2 events per window
/// edge, plus 1 per one-shot window (its forced 1 ms firing span), to
/// the healthy device's count. Deterministic, so it holds on any host.
#[test]
fn fault_windows_cost_only_their_edges_at_coarse_quantum() {
    let store = store();
    for (app_idx, app) in roster_names().into_iter().enumerate() {
        let spec_app = build_app(app, BackgroundLoad::none(1), 20).expect("roster app");
        if spec_app.spec().kind != asgov_workloads::AppKind::Interactive {
            continue; // batch apps keep the exact 1 ms model
        }
        let (_, healthy) = device_epoch(
            &store,
            app_idx,
            FaultClass::Healthy,
            20,
            Stack::Supervised,
            true,
        );
        for class in FaultClass::all() {
            let spec = DeviceSpec {
                device_id: 0,
                app,
                app_idx,
                load: LoadLevel::Baseline,
                fault_class: class,
            };
            let windows = spec
                .fault_injector(EPOCH_MS, 0)
                .map_or_else(Vec::new, |inj| inj.windows().to_vec());
            let one_shots = windows
                .iter()
                .filter(|w| {
                    matches!(
                        w.kind,
                        FaultKind::GovernorReset(_) | FaultKind::ControllerKill
                    )
                })
                .count() as u64;
            let bound = healthy + 2 * (2 * windows.len() as u64) + one_shots;
            let (_, events) = device_epoch(&store, app_idx, class, 20, Stack::Supervised, true);
            assert!(
                events <= bound,
                "{app}/{}: {events} events per device-epoch, bound {bound} (healthy {healthy})",
                class.label()
            );
        }
    }
}
