//! Ablations over the controller's design parameters (not in the paper,
//! but motivated by its §IV-B/§V-A1 discussion of implementation
//! choices): control-cycle duration, minimum dwell, integrator gain,
//! profiling stride and bandwidth interpolation.
//!
//! Run: `cargo run --release -p asgov-experiments --bin ablations`

use asgov_core::{ControllerBuilder, PolicySpec};
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive, MpDecision};
use asgov_profiler::{
    measure_default, measure_fixed, profile_app, DefaultMeasurement, ProfileOptions,
};
use asgov_soc::{event, Device};
use asgov_soc::{DeviceConfig, Policy};
use asgov_workloads::{apps, BackgroundLoad, PhasedApp};

const DURATION_MS: u64 = 90_000;

fn app() -> PhasedApp {
    apps::angrybirds(BackgroundLoad::baseline(1))
}

fn run_controller<F>(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    spec: &PolicySpec,
    tweak: F,
) -> DefaultMeasurement
where
    F: Fn(ControllerBuilder) -> ControllerBuilder,
{
    measure_fixed(dev_cfg, app, 1, DURATION_MS, || {
        let controller = tweak(spec.builder(ControllerBuilder::DEFAULT_SEED)).build();
        spec.stack_with(controller).into_policies()
    })
}

fn row(label: &str, default: &DefaultMeasurement, m: &DefaultMeasurement) {
    println!(
        "{:<26} {:>8.1}% {:>9.2}%",
        label,
        (default.energy_j - m.energy_j) / default.energy_j * 100.0,
        (m.gips - default.gips) / default.gips * 100.0,
    );
}

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut a = app();
    let opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 20_000,
        freq_stride: 2,
        interpolate: true,
    };
    let profile = profile_app(&dev_cfg, &mut a, &opts);
    let default = measure_default(&dev_cfg, &mut a, 1, DURATION_MS);
    let spec = PolicySpec::new(profile, default.gips);
    println!(
        "AngryBirds, default: {:.1} J at {:.3} GIPS\n",
        default.energy_j, default.gips
    );
    println!("{:<26} {:>9} {:>10}", "variant", "energy", "perf");

    println!("-- control cycle duration (paper: 2000 ms) --");
    for period in [500u64, 1_000, 2_000, 4_000] {
        let m = run_controller(&dev_cfg, &mut a, &spec, |b| b.period_ms(period));
        row(&format!("T = {period} ms"), &default, &m);
    }

    println!("-- minimum dwell (paper: 200 ms) --");
    for dwell in [50u64, 200, 500, 1_000] {
        let m = run_controller(&dev_cfg, &mut a, &spec, |b| b.min_dwell_ms(dwell));
        row(&format!("dwell = {dwell} ms"), &default, &m);
    }

    println!("-- integrator gain (deadbeat = 1.0) --");
    for gain in [0.3, 0.6, 1.0] {
        let m = run_controller(&dev_cfg, &mut a, &spec, move |b| b.gain(gain));
        row(&format!("gain = {gain}"), &default, &m);
    }

    println!("-- phase detection (paper §V-B) --");
    for detect in [false, true] {
        let m = run_controller(&dev_cfg, &mut a, &spec, move |b| b.phase_detection(detect));
        row(&format!("phase detection = {detect}"), &default, &m);
    }

    println!("-- profiling stride (paper: every alternate frequency) --");
    for stride in [1usize, 2, 4] {
        let mut o = opts.clone();
        o.freq_stride = stride;
        let spec = PolicySpec::new(profile_app(&dev_cfg, &mut a, &o), default.gips);
        let m = run_controller(&dev_cfg, &mut a, &spec, |b| b);
        row(
            &format!("stride = {stride} ({} cfgs)", spec.profile.len()),
            &default,
            &m,
        );
    }

    println!("-- mpdecision hotplugging (paper: disabled, §IV-A) --");
    {
        let hot = measure_fixed(&dev_cfg, &mut a, 1, DURATION_MS, || {
            vec![
                Box::new(Interactive::default()) as Box<dyn Policy>,
                Box::new(CpubwHwmon::default()),
                Box::new(AdrenoTz::default()),
                Box::new(MpDecision::default()),
            ]
        });
        // Relative to the (hotplug-disabled) default baseline.
        row("default + mpdecision", &default, &hot);
    }

    println!("-- cpuidle deep sleep (not modeled in the Table III calibration) --");
    {
        let mut cfg = dev_cfg.clone();
        cfg.cpuidle_leak_reduction = 0.8;
        let mut idle_dev = Device::new(cfg);
        let mut cpu = Interactive::default();
        let mut bw = CpubwHwmon::default();
        let mut gpu = AdrenoTz::default();
        use asgov_soc::Workload as _;
        a.reset();
        let report = event::run(
            &mut idle_dev,
            &mut a,
            &mut [&mut cpu, &mut bw, &mut gpu],
            DURATION_MS,
        );
        println!(
            "{:<26} {:>8.1}% {:>9.2}%",
            "default + cpuidle",
            (default.energy_j - report.energy_j) / default.energy_j * 100.0,
            (report.avg_gips - default.gips) / default.gips * 100.0,
        );
    }

    println!("-- bandwidth interpolation (paper: on) --");
    for interp in [true, false] {
        let mut o = opts.clone();
        o.interpolate = interp;
        let spec = PolicySpec::new(profile_app(&dev_cfg, &mut a, &o), default.gips);
        let m = run_controller(&dev_cfg, &mut a, &spec, |b| b);
        row(
            &format!("interpolate = {interp} ({} cfgs)", spec.profile.len()),
            &default,
            &m,
        );
    }
}
