//! The offline profiling procedure (paper §III-A).

use crate::default_run::{measure_run, measure_runs, RunSetup};
use crate::table::{Config, ProfileEntry, ProfileTable};
use asgov_soc::gpu::ADRENO420_FREQS_GHZ;
use asgov_soc::{BwIndex, DeviceConfig, FreqIndex, GpuFreqIndex};
use asgov_util::par;
use asgov_workloads::PhasedApp;

/// The profiled frequency ladder: every `stride`-th index in
/// `lo..=hi`. Shared by all sweeps so they fan out identically.
fn freq_ladder(lo: usize, hi: usize, stride: usize) -> Vec<usize> {
    let mut freqs = Vec::new();
    let mut f = lo;
    while f <= hi {
        freqs.push(f);
        f += stride;
    }
    freqs
}

/// Knobs of the profiling procedure. The defaults mirror the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Runs averaged per configuration (paper: 3).
    pub runs_per_config: usize,
    /// Measurement window per run for rate-based applications, ms.
    /// Batch applications run to completion instead.
    pub run_ms: u64,
    /// Profile every `freq_stride`-th frequency (paper: alternate
    /// frequencies → 2).
    pub freq_stride: usize,
    /// Fill the intermediate bandwidths (and GPU frequencies) of each
    /// profiled frequency by linear interpolation between the measured
    /// ends (paper behaviour). When `false` the table keeps only
    /// measured points.
    pub interpolate: bool,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self {
            runs_per_config: 3,
            run_ms: 30_000,
            freq_stride: 2,
            interpolate: true,
        }
    }
}

/// Profile an application offline (paper §III-A): measure its base
/// speed at the SoC's lowest configuration, then speedup and power for
/// every `freq_stride`-th frequency inside the application's usable
/// range, at the lowest and highest memory bandwidth, interpolating the
/// intermediate bandwidths linearly.
///
/// The returned table is sorted by (frequency, bandwidth) and its
/// speedups are normalized to the measured base speed.
///
/// The per-frequency measurements are independent simulations whose
/// seeds derive only from `(dev_cfg.seed, run)`, so the sweep fans out
/// across workers; results are bit-identical for any thread count
/// (see [`profile_app_threads`]).
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
) -> ProfileTable {
    profile_app_threads(dev_cfg, app, opts, 0)
}

/// [`profile_app`] with an explicit worker count (`0` = auto: the
/// machine's available parallelism, clamped to the number of profiled
/// frequencies; `1` runs the sweep on the calling thread, for callers
/// that already fan out).
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app_threads(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
    threads: usize,
) -> ProfileTable {
    sweep(dev_cfg, app, opts, threads, SweepKind::TWO_AXIS)
}

/// Three-axis offline profile (the paper's §VII extension): every
/// `freq_stride`-th CPU frequency × {lowest, highest} memory bandwidth
/// × {lowest, highest} GPU frequency, with linear interpolation along
/// both the bandwidth and the GPU ladders (bilinear per frequency), or
/// only the four measured corners when `opts.interpolate` is `false`.
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app_with_gpu(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
) -> ProfileTable {
    sweep(dev_cfg, app, opts, 0, SweepKind::WITH_GPU)
}

/// Profile for the paper's §V-D CPU-only ablation: the CPU frequency is
/// pinned per configuration while the memory bandwidth stays under the
/// default `cpubw_hwmon` governor. The resulting table has one row per
/// profiled frequency (the bandwidth column records the SoC minimum as
/// a placeholder — a CPU-only controller never actuates it).
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app_cpu_only(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
) -> ProfileTable {
    sweep(dev_cfg, app, opts, 0, SweepKind::CPU_ONLY)
}

/// The axes a sweep pins beside the CPU frequency, and the seed salt of
/// its runs. A pinned axis is measured at its lowest and highest index;
/// an unpinned one stays under its stock governor.
#[derive(Debug, Clone, Copy)]
struct SweepKind {
    bw: bool,
    gpu: bool,
    salt: u64,
}

impl SweepKind {
    /// CPU × bandwidth, the paper's controlled pair (§III-A).
    const TWO_AXIS: Self = Self {
        bw: true,
        gpu: false,
        salt: 1,
    };
    /// CPU × bandwidth × GPU (§VII).
    const WITH_GPU: Self = Self {
        bw: true,
        gpu: true,
        salt: 0x30,
    };
    /// CPU alone, bandwidth under `cpubw_hwmon` (§V-D).
    const CPU_ONLY: Self = Self {
        bw: false,
        gpu: false,
        salt: 0x10,
    };
}

/// How a table row reads the two measured ends of one axis.
#[derive(Debug, Clone, Copy)]
enum Weight {
    Lo,
    Hi,
    Lerp(f64),
}

/// Read an axis between its measured ends. `Lo`/`Hi` return a measured
/// value itself: `lo + 1.0 * (hi - lo)` need not equal `hi` bit for
/// bit, so the corners-only table does not go through `Lerp`.
fn mix(lo: f64, hi: f64, w: Weight) -> f64 {
    match w {
        Weight::Lo => lo,
        Weight::Hi => hi,
        Weight::Lerp(t) => lo + t * (hi - lo),
    }
}

/// One table row's position along an axis: its index (`None` when the
/// axis is unpinned), how it reads the measured ends, and whether it
/// was measured.
#[derive(Debug, Clone, Copy)]
struct Point {
    idx: Option<usize>,
    weight: Weight,
    measured: bool,
}

/// The measured ends of an axis with ladder values `ladder` (`None`:
/// unpinned, so both "ends" are the one stock-governed point).
fn axis_ends(ladder: Option<&[f64]>) -> [Option<usize>; 2] {
    match ladder {
        Some(l) => [Some(0), Some(l.len() - 1)],
        None => [None, None],
    }
}

/// The table rows along an axis: every ladder index when
/// interpolating, the two measured ends otherwise.
fn axis_points(ladder: Option<&[f64]>, interpolate: bool) -> Vec<Point> {
    let point = |idx, weight| Point {
        idx,
        weight,
        measured: true,
    };
    let Some(l) = ladder else {
        return vec![point(None, Weight::Lo)];
    };
    let last = l.len() - 1;
    if !interpolate {
        return vec![point(Some(0), Weight::Lo), point(Some(last), Weight::Hi)];
    }
    let v0 = l.first().copied().unwrap_or_default();
    let span = l.last().copied().unwrap_or_default() - v0;
    l.iter()
        .enumerate()
        .map(|(i, &v)| Point {
            idx: Some(i),
            weight: Weight::Lerp((v - v0) / span),
            measured: i == 0 || i == last,
        })
        .collect()
}

/// The one Stage-1 ladder sweep behind every `profile_app*` entry
/// point: measure the base point (the SoC's lowest configuration, which
/// anchors the speedup scale), then fan out one job per profiled
/// frequency measuring its bandwidth × GPU corners — reusing the base
/// measurement wherever a corner is the base point — and build the
/// table by linear or bilinear interpolation between the corners, or
/// from the corners alone when `opts.interpolate` is `false`.
///
/// Every run's seed derives from `(dev_cfg.seed, kind.salt, run)` and never
/// from the worker, so the table is independent of `threads`.
fn sweep(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
    threads: usize,
    kind: SweepKind,
) -> ProfileTable {
    assert!(opts.freq_stride > 0, "stride must be positive");

    let table = &dev_cfg.table;
    let bw_ladder: Option<Vec<f64>> = kind
        .bw
        .then(|| table.bw_indices().map(|b| table.bw(b).0).collect());
    let gpu_ladder = kind.gpu.then_some(ADRENO420_FREQS_GHZ.as_slice());
    let [bw_lo, bw_hi] = axis_ends(bw_ladder.as_deref()).map(|b| b.map(BwIndex));
    let [gpu_lo, gpu_hi] = axis_ends(gpu_ladder).map(|g| g.map(GpuFreqIndex));

    // GIPS and power at one pinned point, averaged over the runs.
    let (runs, run_ms) = (opts.runs_per_config, opts.run_ms);
    let measure = |app: &mut PhasedApp, setup| {
        let m = measure_runs(dev_cfg, app, runs, setup, || None, run_ms);
        (m.gips, m.power_w)
    };
    let base = RunSetup {
        salt: kind.salt,
        perf: true,
        cpu: Some(table.min_freq()),
        bw: bw_lo,
        gpu: gpu_lo,
    };
    let (base_gips, base_power) = measure(app, base);
    let base_gips = base_gips.max(1e-6);

    let (lo_f, hi_f) = app.spec().profile_freq_range;
    let freqs = freq_ladder(lo_f, hi_f.min(table.num_freqs() - 1), opts.freq_stride);
    let threads = if threads == 0 {
        par::default_threads(freqs.len())
    } else {
        threads
    };
    let app_ref: &PhasedApp = app;
    let corners = par::ordered_map(freqs.len(), threads, |i| {
        // asgov-analyze: allow(hot-path-transitive): ordered_map hands the closure indices drawn from 0..freqs.len()
        let cpu = Some(FreqIndex(freqs[i]));
        // Each job owns a fresh clone of the app (reset before every
        // run anyway); points measured once are not measured again.
        let mut worker_app = app_ref.clone();
        let mut done = vec![(base, (base_gips, base_power))];
        let mut at = |bw, gpu| {
            let setup = RunSetup {
                cpu,
                bw,
                gpu,
                ..base
            };
            if let Some(&(_, m)) = done.iter().find(|(s, _)| *s == setup) {
                return m;
            }
            let m = measure(&mut worker_app, setup);
            done.push((setup, m));
            m
        };
        [
            [at(bw_lo, gpu_lo), at(bw_lo, gpu_hi)],
            [at(bw_hi, gpu_lo), at(bw_hi, gpu_hi)],
        ]
    });

    let bw_points = axis_points(bw_ladder.as_deref(), opts.interpolate);
    let gpu_points = axis_points(gpu_ladder, opts.interpolate);
    let mut entries = Vec::new();
    for (&f, &[[c00, c01], [c10, c11]]) in freqs.iter().zip(&corners) {
        for b in &bw_points {
            for g in &gpu_points {
                let value = |of: fn((f64, f64)) -> f64| {
                    let gpu_lo = mix(of(c00), of(c10), b.weight);
                    let gpu_hi = mix(of(c01), of(c11), b.weight);
                    mix(gpu_lo, gpu_hi, g.weight)
                };
                entries.push(ProfileEntry {
                    config: Config {
                        freq: FreqIndex(f),
                        bw: b.idx.map_or(table.min_bw(), BwIndex),
                        gpu: g.idx.map(GpuFreqIndex),
                    },
                    speedup: value(|c| c.0) / base_gips,
                    power_w: value(|c| c.1),
                    measured: b.measured && g.measured,
                });
            }
        }
    }

    ProfileTable {
        app: app.spec().name.to_string(),
        base_gips,
        entries,
    }
}

/// Fit a MAR-CSE model (paper §VI, Liang & Lai): for each training
/// application, sweep the frequency ladder at the lowest bandwidth,
/// find the energy-minimal frequency (the *critical speed*) and pair it
/// with the application's measured memory access rate. The resulting
/// points parameterize [`asgov_governors::MarCseModel`].
pub fn fit_mar_cse(
    dev_cfg: &DeviceConfig,
    apps: &mut [PhasedApp],
    opts: &ProfileOptions,
) -> asgov_governors::MarCseModel {
    assert!(!apps.is_empty(), "need at least one training application");
    let table = &dev_cfg.table;
    let mut points = Vec::new();
    for app in apps.iter_mut() {
        // One job per swept frequency; the (energy/instr, MAR) samples
        // come back in ladder order, so the fold below matches the
        // serial sweep exactly.
        let freqs = freq_ladder(0, table.num_freqs() - 1, opts.freq_stride);
        let app_ref: &PhasedApp = app;
        let sweep = par::ordered_map(freqs.len(), par::default_threads(freqs.len()), |i| {
            let f = freqs[i];
            let setup = RunSetup {
                salt: f as u64 + 0x50,
                perf: true,
                cpu: Some(FreqIndex(f)),
                bw: Some(table.min_bw()),
                gpu: None,
            };
            let mut worker_app = app_ref.clone();
            let (report, device) = measure_run(dev_cfg, &mut worker_app, setup, None, opts.run_ms);
            (report.instructions > 0.0).then(|| {
                let energy_per_instr = report.energy_j / report.instructions;
                let mar = device.pmu().bus_bytes() / device.pmu().instructions();
                (energy_per_instr, FreqIndex(f), mar)
            })
        });

        let mut best: Option<(f64, FreqIndex)> = None; // (energy per instr, freq)
        let mut mar_sum = 0.0;
        let mut mar_n = 0.0;
        for (energy_per_instr, freq, mar) in sweep.into_iter().flatten() {
            if best.is_none_or(|(e, _)| energy_per_instr < e) {
                best = Some((energy_per_instr, freq));
            }
            mar_sum += mar;
            mar_n += 1.0;
        }
        if let (Some((_, cs)), true) = (best, mar_n > 0.0) {
            points.push((mar_sum / mar_n, table.freq(cs).0));
        }
    }
    asgov_governors::MarCseModel::new(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::BwIndex;
    use asgov_workloads::{apps, BackgroundLoad};

    fn opts_fast() -> ProfileOptions {
        ProfileOptions {
            runs_per_config: 1,
            run_ms: 4_000,
            freq_stride: 4,
            interpolate: true,
        }
    }

    #[test]
    fn profile_covers_all_bandwidths_when_interpolating() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let t = profile_app(&dev_cfg, &mut app, &opts_fast());
        assert!(!t.is_empty());
        // Spotify profiles f1..f5 with stride 4 → f1, f5 → 2 × 13 rows.
        assert_eq!(t.len(), 2 * 13);
        let measured = t.entries.iter().filter(|e| e.measured).count();
        assert_eq!(measured, 4, "only lowest/highest bw measured");
    }

    #[test]
    fn base_speedup_is_one() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
        let t = profile_app(
            &dev_cfg,
            &mut app,
            &ProfileOptions {
                runs_per_config: 1,
                run_ms: 6_000,
                freq_stride: 4,
                interpolate: false,
            },
        );
        // First entry is the base configuration (f1, bw1): speedup 1.
        let first = &t.entries[0];
        assert_eq!(first.config.freq, FreqIndex(0));
        assert_eq!(first.config.bw, BwIndex(0));
        assert!(
            (first.speedup - 1.0).abs() < 0.08,
            "speedup {}",
            first.speedup
        );
    }

    #[test]
    fn speedup_monotone_along_frequency_for_batch_apps() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::vidcon(BackgroundLoad::baseline(1));
        let t = profile_app(&dev_cfg, &mut app, &opts_fast());
        // At the lowest bandwidth, speedup should increase with freq.
        let lo_bw: Vec<&ProfileEntry> = t
            .entries
            .iter()
            .filter(|e| e.config.bw == BwIndex(0))
            .collect();
        assert!(lo_bw.len() >= 2);
        for w in lo_bw.windows(2) {
            assert!(
                w[1].speedup > w[0].speedup * 0.98,
                "speedup should not regress: {} then {}",
                w[0].speedup,
                w[1].speedup
            );
        }
    }

    #[test]
    fn mar_cse_fit_orders_critical_speeds() {
        // A compute-bound trainer should get a higher critical speed
        // than a memory-bound one.
        let dev_cfg = DeviceConfig::nexus6();
        let mut training = [
            apps::vidcon(BackgroundLoad::none(1)),     // compute-ish
            apps::angrybirds(BackgroundLoad::none(1)), // more memory traffic
        ];
        let model = fit_mar_cse(
            &dev_cfg,
            &mut training,
            &ProfileOptions {
                runs_per_config: 1,
                run_ms: 3_000,
                freq_stride: 4,
                interpolate: false,
            },
        );
        let low_mar = model.critical_speed_ghz(0.05);
        let high_mar = model.critical_speed_ghz(3.0);
        assert!(low_mar > 0.0 && high_mar > 0.0);
    }

    #[test]
    fn cpu_only_profile_has_one_row_per_frequency() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::wechat(BackgroundLoad::baseline(1));
        let t = profile_app_cpu_only(&dev_cfg, &mut app, &opts_fast());
        // WeChat profiles f3..f10 with stride 4 -> f3, f7 -> 2 rows.
        assert_eq!(t.len(), 2);
        assert!(t.entries.iter().all(|e| e.measured));
        assert!(t.entries[1].speedup >= t.entries[0].speedup * 0.9);
    }

    #[test]
    fn gpu_profile_without_interpolation_keeps_only_measured_corners() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let opts = ProfileOptions {
            interpolate: false,
            ..opts_fast()
        };
        let t = profile_app_with_gpu(&dev_cfg, &mut app, &opts);
        // Spotify profiles f1..f5 with stride 4 -> f1, f5, each with its
        // four (bw, gpu) corners.
        assert_eq!(t.len(), 2 * 4);
        assert!(t.entries.iter().all(|e| e.measured));
        for f in [FreqIndex(0), FreqIndex(4)] {
            let rows = t.entries.iter().filter(|e| e.config.freq == f).count();
            assert_eq!(rows, 4, "four measured corners at {f}");
        }
    }

    #[test]
    fn parallel_profile_matches_serial() {
        // The tentpole determinism claim: the threaded sweep produces a
        // byte-identical ProfileTable for any worker count.
        let dev_cfg = DeviceConfig::nexus6();
        let opts = ProfileOptions {
            runs_per_config: 2,
            run_ms: 3_000,
            freq_stride: 2,
            interpolate: true,
        };
        let app = apps::spotify(BackgroundLoad::baseline(1));
        let serial = profile_app_threads(&dev_cfg, &mut app.clone(), &opts, 1);
        for threads in [2, 3, 8] {
            let parallel = profile_app_threads(&dev_cfg, &mut app.clone(), &opts, threads);
            assert_eq!(serial.app, parallel.app);
            assert_eq!(
                serial.base_gips.to_bits(),
                parallel.base_gips.to_bits(),
                "base GIPS must be bit-identical ({threads} threads)"
            );
            assert_eq!(serial.entries.len(), parallel.entries.len());
            for (s, p) in serial.entries.iter().zip(&parallel.entries) {
                assert_eq!(s.config, p.config, "{threads} threads");
                assert_eq!(
                    s.speedup.to_bits(),
                    p.speedup.to_bits(),
                    "speedup at {:?} must be bit-identical ({threads} threads)",
                    s.config
                );
                assert_eq!(
                    s.power_w.to_bits(),
                    p.power_w.to_bits(),
                    "power at {:?} must be bit-identical ({threads} threads)",
                    s.config
                );
                assert_eq!(s.measured, p.measured);
            }
        }
    }

    #[test]
    fn power_monotone_along_bandwidth_at_fixed_freq() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::wechat(BackgroundLoad::baseline(1));
        let t = profile_app(&dev_cfg, &mut app, &opts_fast());
        let freq = t.entries[0].config.freq;
        let rows: Vec<&ProfileEntry> = t.entries.iter().filter(|e| e.config.freq == freq).collect();
        assert_eq!(rows.len(), 13);
        for w in rows.windows(2) {
            assert!(
                w[1].power_w >= w[0].power_w - 1e-9,
                "interpolated power must be monotone in bw"
            );
        }
    }
}
