//! Diagnostic dump for one application (development aid).

use asgov_core::{ControllerBuilder, PolicySpec};
use asgov_experiments::render;
use asgov_obs::RingSink;
use asgov_profiler::{measure_default, profile_app, ProfileOptions};
use asgov_soc::{BwIndex, Device, DeviceConfig, FreqIndex, Workload as _};
use asgov_workloads::{apps, BackgroundLoad};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "AngryBirds".into());
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = match name.as_str() {
        "VidCon" => apps::vidcon(BackgroundLoad::baseline(1)),
        "MobileBench" => apps::mobilebench(BackgroundLoad::baseline(1)),
        "WeChat" => apps::wechat(BackgroundLoad::baseline(1)),
        "MXPlayer" => apps::mxplayer(BackgroundLoad::baseline(1)),
        "Spotify" => apps::spotify(BackgroundLoad::baseline(1)),
        "eBook" => apps::ebook(BackgroundLoad::baseline(1)),
        _ => apps::angrybirds(BackgroundLoad::baseline(1)),
    };
    let opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 30_000,
        freq_stride: 2,
        interpolate: true,
    };
    let profile = profile_app(&dev_cfg, &mut app, &opts);
    println!("{}", profile.render(&dev_cfg.table));

    let duration = 120_000;
    let default = measure_default(&dev_cfg, &mut app, 1, duration);
    println!(
        "DEFAULT: gips={:.4} power={:.3} W energy={:.1} J dur={:.0} ms",
        default.gips, default.power_w, default.energy_j, default.duration_ms
    );
    println!(
        "{}",
        render::histogram(
            "default freq histogram",
            &default.reports[0].stats.freq_histogram(),
            "f"
        )
    );
    println!(
        "{}",
        render::histogram(
            "default bw histogram",
            &default.reports[0].stats.bw_histogram(),
            "bw"
        )
    );

    let mut stack = PolicySpec::new(profile, default.gips).stack(ControllerBuilder::DEFAULT_SEED);
    let mut device = Device::new(dev_cfg.clone());
    // One record per 2 s control cycle: the ring holds the run.
    let sink = Rc::new(RefCell::new(RingSink::new((duration / 2_000 + 1) as usize)));
    device.install_obs_sink(sink.clone());
    app.reset();
    let report = stack.run(&mut device, &mut app, duration);
    let controller = &stack.controller;
    println!(
        "CONTROLLER: gips={:.4} power={:.3} W energy={:.1} J dur={} ms",
        report.avg_gips, report.avg_power_w, report.energy_j, report.duration_ms
    );
    println!(
        "{}",
        render::histogram(
            "controller freq histogram",
            &report.stats.freq_histogram(),
            "f"
        )
    );
    println!(
        "{}",
        render::histogram(
            "controller bw histogram",
            &report.stats.bw_histogram(),
            "bw"
        )
    );
    println!(
        "savings: {:.1}%  perf delta: {:.2}%",
        (default.energy_j - report.energy_j) / default.energy_j * 100.0,
        (report.avg_gips - default.gips) / default.gips * 100.0
    );
    println!("\nCYCLE LOG (target {:.4}):", controller.target_gips());
    for c in sink.borrow().records() {
        println!(
            "t={:>6} y={:.4} b={:.4} s={:.3} c_l=({},{}) c_h=({},{}) tau_l={:.2}",
            c.t_ms,
            c.measured_gips,
            c.base_estimate,
            c.required_speedup,
            FreqIndex(c.lower.0 as usize),
            BwIndex(c.lower.1 as usize),
            FreqIndex(c.upper.0 as usize),
            BwIndex(c.upper.1 as usize),
            c.tau_lower_ms as f64 * 1e-3
        );
    }
}
