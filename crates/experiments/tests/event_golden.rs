//! Golden pin of the device-event channel: every DVFS transition and
//! governor selection of a short faulted AngryBirds run reaches the
//! installed [`TraceSink`](asgov_obs::TraceSink) exactly once, with its
//! payload, in order.
//!
//! The CSVs under `event_golden/` were written by the device's former
//! dedicated event trace on the same runs, plus the kgsl governor
//! selection row that trace never carried; the sink's rows must match
//! them byte for byte. The fault plan covers both actuations the
//! controller does not make itself: a one-shot external governor reset
//! and a thermal clamp of the CPU frequency.

use asgov_core::{ControllerBuilder, PolicySpec};
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_obs::{EventLog, RingSink, TraceSink};
use asgov_profiler::{measure_default, profile_app, ProfileOptions};
use asgov_soc::{event, Device, DeviceConfig, FaultInjector, FaultKind, FaultPlan, Workload as _};
use asgov_workloads::{apps, BackgroundLoad, PhasedApp};
use std::cell::RefCell;
use std::rc::Rc;

const RUN_MS: u64 = 12_000;

fn plan() -> FaultPlan {
    FaultPlan::new()
        .window(2_000, 2_500, FaultKind::GovernorReset("interactive".into()))
        .and_then(|p| p.window(4_000, 6_000, FaultKind::ThermalClamp(4)))
        .expect("valid windows")
}

/// A fresh device under the fault plan with `sink` installed.
fn faulted_device(dev_cfg: &DeviceConfig, sink: Rc<RefCell<dyn TraceSink>>) -> Device {
    let mut device = Device::new(dev_cfg.clone());
    device.install_faults(FaultInjector::new(plan(), 0x5eed));
    device.install_obs_sink(sink);
    device
}

fn app() -> PhasedApp {
    apps::angrybirds(BackgroundLoad::baseline(1))
}

#[test]
fn stock_governor_events_match_golden() {
    let dev_cfg = DeviceConfig::nexus6();
    let log = Rc::new(RefCell::new(EventLog::default()));
    let mut device = faulted_device(&dev_cfg, log.clone());
    let mut app = app();
    let mut cpu = Interactive::default();
    let mut bw = CpubwHwmon::default();
    let mut gpu = AdrenoTz::default();
    event::run(
        &mut device,
        &mut app,
        &mut [&mut cpu, &mut bw, &mut gpu],
        RUN_MS,
    );
    assert_eq!(
        log.borrow().to_csv(),
        include_str!("event_golden/default.csv")
    );
}

#[test]
fn controller_events_match_golden() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = app();
    let opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 3_000,
        freq_stride: 4,
        interpolate: true,
    };
    let profile = profile_app(&dev_cfg, &mut app, &opts);
    let target = measure_default(&dev_cfg, &mut app, 1, RUN_MS).gips;
    let spec = PolicySpec::new(profile, target);

    let log = Rc::new(RefCell::new(EventLog::default()));
    let mut device = faulted_device(&dev_cfg, log.clone());
    app.reset();
    spec.stack(ControllerBuilder::DEFAULT_SEED)
        .run(&mut device, &mut app, RUN_MS);
    let csv = log.borrow().to_csv();
    assert_eq!(csv, include_str!("event_golden/controller.csv"));

    // The counting sink sees the same events, one each, on the same run.
    let ring = Rc::new(RefCell::new(RingSink::new(16)));
    let mut device = faulted_device(&dev_cfg, ring.clone());
    app.reset();
    spec.stack(ControllerBuilder::DEFAULT_SEED)
        .run(&mut device, &mut app, RUN_MS);
    assert_eq!(
        ring.borrow().metrics().device_events,
        csv.lines().count() as u64 - 1
    );
}
