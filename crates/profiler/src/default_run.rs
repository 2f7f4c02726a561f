//! Measurement runs: the one pinned-run primitive behind every Stage-1
//! path, the default-governor baseline (`R_def`, `P_def`, `T_def`,
//! `E_def` — paper §III-A) and arbitrary fixed-configuration runs.

use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_soc::sim::RunReport;
use asgov_soc::Workload as _;
use asgov_soc::{sim, BwIndex, Device, DeviceConfig, FreqIndex, GpuFreqIndex, Policy};
use asgov_workloads::PhasedApp;

/// How a measurement run sets up its device: the seed salt, whether
/// the `perf` tool's overhead is on, and the pinned axes. A pinned axis
/// runs under the `userspace` governor at its index; an unpinned one
/// (`None`) keeps its stock governor (`interactive`, `cpubw_hwmon`,
/// `msm-adreno-tz`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RunSetup {
    pub(crate) salt: u64,
    pub(crate) perf: bool,
    pub(crate) cpu: Option<FreqIndex>,
    pub(crate) bw: Option<BwIndex>,
    pub(crate) gpu: Option<GpuFreqIndex>,
}

/// One measurement run from start to finish, the only place Stage 1
/// builds a device and simulates: seed the device `dev_cfg.seed ^
/// setup.salt`, apply the `perf` overhead if asked, pin the axes, reset
/// the app and run it for at most `max_ms`.
///
/// `policies` replaces the policy stack; `None` runs the stock governor
/// of every unpinned axis, in CPU, bandwidth, GPU order. The device
/// comes back with the report so callers can read its PMU.
pub(crate) fn measure_run(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    setup: RunSetup,
    policies: Option<Vec<Box<dyn Policy>>>,
    max_ms: u64,
) -> (RunReport, Device) {
    let mut device = Device::new(dev_cfg.clone().with_seed(dev_cfg.seed ^ setup.salt));
    if setup.perf {
        // The paper measures performance with `perf` at a 1 s period in
        // every run — profiling included — so its 4 % load and 15 mW
        // power overhead are present here just as they are online.
        device.set_tool_overhead(0.04, 0.015);
    }
    if let Some(freq) = setup.cpu {
        device.set_cpu_governor("userspace");
        device.set_cpu_freq(freq);
    }
    if let Some(bw) = setup.bw {
        device.set_bw_governor("userspace");
        device.set_mem_bw(bw);
    }
    if let Some(gpu) = setup.gpu {
        device.set_gpu_governor("userspace");
        device.set_gpu_freq(gpu);
    }
    let mut policies = policies.unwrap_or_else(|| {
        let mut stock: Vec<Box<dyn Policy>> = Vec::with_capacity(3);
        if setup.cpu.is_none() {
            stock.push(Box::new(Interactive::default()));
        }
        if setup.bw.is_none() {
            stock.push(Box::new(CpubwHwmon::default()));
        }
        if setup.gpu.is_none() {
            stock.push(Box::new(AdrenoTz::default()));
        }
        stock
    });
    let mut refs: Vec<&mut dyn Policy> =
        policies.iter_mut().map(|p| p as &mut dyn Policy).collect();
    app.reset();
    let report = sim::run(&mut device, app, &mut refs, max_ms);
    (report, device)
}

/// `runs` runs of `setup`, run `i` seeded with salt `setup.salt + i`,
/// averaged. `policies` is called once per run (see [`measure_run`]).
pub(crate) fn measure_runs(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    runs: usize,
    setup: RunSetup,
    mut policies: impl FnMut() -> Option<Vec<Box<dyn Policy>>>,
    max_ms: u64,
) -> DefaultMeasurement {
    assert!(runs > 0, "need at least one run");
    let reports = (0..runs as u64)
        .map(|run| {
            let setup = RunSetup {
                salt: setup.salt + run,
                ..setup
            };
            measure_run(dev_cfg, app, setup, policies(), max_ms).0
        })
        .collect();
    DefaultMeasurement::from_reports(reports)
}

/// Aggregate of one or more baseline runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DefaultMeasurement {
    /// Average performance `R_def`, GIPS — the controller's target.
    pub gips: f64,
    /// Average device power `P_def`, watts.
    pub power_w: f64,
    /// Average wall-clock time `T_def`, ms (run-to-completion for batch
    /// applications, the measurement window otherwise).
    pub duration_ms: f64,
    /// Average energy `E_def = P_def × T_def`, joules.
    pub energy_j: f64,
    /// The individual run reports (histograms for Figs. 1/4/5).
    pub reports: Vec<RunReport>,
}

impl DefaultMeasurement {
    fn from_reports(reports: Vec<RunReport>) -> Self {
        let n = reports.len() as f64;
        Self {
            gips: reports.iter().map(|r| r.avg_gips).sum::<f64>() / n,
            power_w: reports.iter().map(|r| r.avg_power_w).sum::<f64>() / n,
            duration_ms: reports.iter().map(|r| r.duration_ms as f64).sum::<f64>() / n,
            energy_j: reports.iter().map(|r| r.energy_j).sum::<f64>() / n,
            reports,
        }
    }
}

/// Run the application under the stock Android governors
/// (`interactive` + `cpubw_hwmon`), `runs` times, for at most `max_ms`
/// each (batch applications stop at completion).
pub fn measure_default(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    runs: usize,
    max_ms: u64,
) -> DefaultMeasurement {
    // `perf` runs during the default measurement too (paper §III-A
    // measures R_def with the same tooling as the online controller).
    let setup = RunSetup {
        salt: 0xd0,
        perf: true,
        ..RunSetup::default()
    };
    measure_runs(dev_cfg, app, runs, setup, || None, max_ms)
}

/// Run the application under an arbitrary policy stack (e.g. the online
/// controller), `runs` times. The `make_policies` closure builds a fresh
/// policy stack per run.
pub fn measure_fixed<F>(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    runs: usize,
    max_ms: u64,
    mut make_policies: F,
) -> DefaultMeasurement
where
    F: FnMut() -> Vec<Box<dyn Policy>>,
{
    let setup = RunSetup {
        salt: 0xf0,
        ..RunSetup::default()
    };
    measure_runs(dev_cfg, app, runs, setup, || Some(make_policies()), max_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_workloads::{apps, BackgroundLoad};

    #[test]
    fn default_measurement_aggregates_runs() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let m = measure_default(&dev_cfg, &mut app, 2, 10_000);
        assert_eq!(m.reports.len(), 2);
        assert!(m.gips > 0.0);
        assert!(m.power_w > 0.8, "device draws at least base power");
        assert!((m.duration_ms - 10_000.0).abs() < 1.0);
        assert!((m.energy_j - m.power_w * 10.0).abs() < 0.5);
    }

    #[test]
    fn interactive_governor_visits_high_frequencies_for_spotify() {
        // The motivating observation: the default governor burns time at
        // f10+ even for an audio player.
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let m = measure_default(&dev_cfg, &mut app, 1, 60_000);
        let hist = m.reports[0].stats.freq_histogram();
        let high_mass: f64 = hist[9..].iter().sum();
        assert!(
            high_mass > 0.05,
            "default should spend real time at f10+, got {high_mass}"
        );
    }

    #[test]
    fn measure_fixed_runs_custom_policies() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let m = measure_fixed(&dev_cfg, &mut app, 1, 5_000, || {
            vec![
                Box::new(asgov_governors::PowersaveCpu) as Box<dyn Policy>,
                Box::new(asgov_governors::PowersaveBw) as Box<dyn Policy>,
            ]
        });
        let hist = m.reports[0].stats.freq_histogram();
        assert!((hist[0] - 1.0).abs() < 1e-9, "pinned to lowest frequency");
    }
}
