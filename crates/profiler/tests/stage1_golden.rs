//! Golden pins of every Stage-1 measurement path (paper §III-A, §V-D,
//! §VI, §VII): the two-axis, CPU-only and GPU-axis profile sweeps, the
//! MAR-CSE fit, and the default and fixed-policy measurements.
//!
//! Each table is rendered one entry per line — the configuration plus
//! the `f64::to_bits` of its speedup and power — and compared against
//! `stage1_golden.txt`. The pins were captured when each path still had
//! its own hand-copied device set-up and sweep loop; the shared
//! pinned-run primitive and ladder sweep must reproduce every bit. The
//! power and energy pins were re-captured once when the power monitor
//! moved its measurement noise from one draw per millisecond to one
//! draw per energy read.
//!
//! Options are small (stride 4, 2 runs of 3 s) so the whole file runs in
//! a few seconds.

use asgov_governors::{AdrenoTz, MarCseModel, Ondemand, PowersaveBw};
use asgov_profiler::{
    fit_mar_cse, measure_default, measure_fixed, profile_app, profile_app_cpu_only,
    profile_app_with_gpu, DefaultMeasurement, ProfileOptions, ProfileTable,
};
use asgov_soc::{DeviceConfig, Policy};
use asgov_workloads::{apps, BackgroundLoad, PhasedApp};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("stage1_golden.txt");

fn opts() -> ProfileOptions {
    ProfileOptions {
        runs_per_config: 2,
        run_ms: 3_000,
        freq_stride: 4,
        interpolate: true,
    }
}

/// The two pinned applications: Spotify's ladder starts at f1 (so the
/// base point is also a sweep corner), WeChat's at f3.
fn pinned_apps() -> [(&'static str, PhasedApp); 2] {
    [
        ("spotify", apps::spotify(BackgroundLoad::baseline(1))),
        ("wechat", apps::wechat(BackgroundLoad::baseline(1))),
    ]
}

fn render_table(out: &mut String, section: &str, app: &str, t: &ProfileTable) {
    let _ = writeln!(
        out,
        "{section} {app} base_gips {:#018x}",
        t.base_gips.to_bits()
    );
    for e in &t.entries {
        let _ = writeln!(
            out,
            "{section} {app} {} speedup {:#018x} power_w {:#018x} measured {}",
            e.config,
            e.speedup.to_bits(),
            e.power_w.to_bits(),
            e.measured
        );
    }
}

fn render_measurement(out: &mut String, section: &str, app: &str, m: &DefaultMeasurement) {
    let _ = writeln!(
        out,
        "{section} {app} runs {} gips {:#018x} power_w {:#018x} duration_ms {:#018x} energy_j {:#018x}",
        m.reports.len(),
        m.gips.to_bits(),
        m.power_w.to_bits(),
        m.duration_ms.to_bits(),
        m.energy_j.to_bits()
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

fn check_profiles(
    section: &str,
    profile: fn(&DeviceConfig, &mut PhasedApp, &ProfileOptions) -> ProfileTable,
) {
    let dev_cfg = DeviceConfig::nexus6();
    let mut out = String::new();
    for (name, mut app) in pinned_apps() {
        render_table(
            &mut out,
            section,
            name,
            &profile(&dev_cfg, &mut app, &opts()),
        );
    }
    assert_golden(section, &out);
}

#[test]
fn two_axis_profile_matches_golden() {
    check_profiles("two-axis", profile_app);
}

#[test]
fn cpu_only_profile_matches_golden() {
    check_profiles("cpu-only", profile_app_cpu_only);
}

#[test]
fn gpu_axis_profile_matches_golden() {
    check_profiles("gpu-axis", profile_app_with_gpu);
}

#[test]
fn mar_cse_fit_matches_golden() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut training = pinned_apps().map(|(_, app)| app);
    let model = fit_mar_cse(&dev_cfg, &mut training, &opts());
    let pinned = MAR_CSE_POINTS
        .iter()
        .map(|&(mar, ghz)| (f64::from_bits(mar), f64::from_bits(ghz)))
        .collect();
    assert_eq!(model, MarCseModel::new(pinned));
}

/// `(MAR, critical speed GHz)` bits of the two fitted points, by MAR.
const MAR_CSE_POINTS: [(u64, u64); 2] = [
    (0x3feb2cfc1cc5c136, 0x3ff4467381d7dbf5),
    (0x3ff592de7777ee53, 0x3fd3333333333333),
];

#[test]
fn default_and_fixed_measurements_match_golden() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut out = String::new();
    for (name, mut app) in pinned_apps() {
        let m = measure_default(&dev_cfg, &mut app, 2, 3_000);
        render_measurement(&mut out, "default", name, &m);
    }
    assert_golden("default", &out);

    let mut out = String::new();
    for (name, mut app) in pinned_apps() {
        let m = measure_fixed(&dev_cfg, &mut app, 2, 3_000, || {
            vec![
                Box::new(Ondemand::default()) as Box<dyn Policy>,
                Box::new(PowersaveBw),
                Box::new(AdrenoTz::default()),
            ]
        });
        render_measurement(&mut out, "fixed", name, &m);
    }
    assert_golden("fixed", &out);
}
