//! Property-based tests of the device model: energy accounting,
//! roofline monotonicity, histogram conservation and sysfs semantics
//! under random inputs.
//!
//! Randomized inputs come from a seeded [`asgov_util::Rng`] so every
//! run exercises the same cases (the hermetic stand-in for proptest).

use asgov_soc::{
    sysfs, BackgroundDemand, BwIndex, Demand, Device, DeviceConfig, FreqIndex, GpuFreqIndex,
};
use asgov_util::Rng;

fn quiet() -> DeviceConfig {
    let mut cfg = DeviceConfig::nexus6();
    cfg.monitor_noise_w = 0.0;
    cfg
}

fn random_demand(rng: &mut Rng) -> Demand {
    Demand {
        ipc0: rng.gen_range(0.2..2.0),
        bytes_per_instr: rng.gen_range(0.05..4.0),
        desired_gips: Some(rng.gen_range(0.0..3.0)),
        active_cores: rng.gen_range(0.2..4.0),
        ..Demand::default()
    }
}

/// Energy is the integral of power: average power × time == energy,
/// and it is additive across segments.
#[test]
fn energy_accounting_is_additive() {
    let mut rng = Rng::seed_from_u64(0x50_0001);
    for case in 0..128 {
        let f = rng.gen_range_usize(0..18);
        let b = rng.gen_range_usize(0..13);
        let segments = rng.gen_range_usize(2..6);
        let mut dev = Device::new(quiet());
        dev.set_cpu_governor("userspace");
        dev.set_bw_governor("userspace");
        dev.set_cpu_freq(FreqIndex(f));
        dev.set_mem_bw(BwIndex(b));

        let mut per_segment = 0.0;
        for _ in 0..segments {
            let d = random_demand(&mut rng);
            let start = dev.monitor().energy_j();
            for _ in 0..50 {
                dev.tick(&d);
            }
            per_segment += dev.monitor().energy_j() - start;
        }
        let total = dev.monitor().energy_j();
        assert!((total - per_segment).abs() < 1e-9, "case {case}");
        let avg = dev.monitor().average_power_w();
        let elapsed_s = dev.monitor().elapsed_ms() as f64 * 1e-3;
        assert!((avg * elapsed_s - total).abs() < 1e-9, "case {case}");
    }
}

/// Executed GIPS never exceeds the demand rate nor the hardware
/// capability, and is never negative.
#[test]
fn execution_bounded_by_demand() {
    let mut rng = Rng::seed_from_u64(0x50_0002);
    for case in 0..256 {
        let d = random_demand(&mut rng);
        let f = rng.gen_range_usize(0..18);
        let b = rng.gen_range_usize(0..13);
        let mut dev = Device::new(quiet());
        dev.set_cpu_governor("userspace");
        dev.set_bw_governor("userspace");
        dev.set_cpu_freq(FreqIndex(f));
        dev.set_mem_bw(BwIndex(b));
        let out = dev.tick(&d);
        assert!(out.executed.gips >= 0.0, "case {case}");
        if let Some(want) = d.desired_gips {
            assert!(out.executed.gips <= want + 1e-9, "case {case}");
        }
        let f_hz = dev.table().freq(FreqIndex(f)).hz();
        let cap = d.ipc0 * d.active_cores * f_hz / 1e9;
        assert!(
            out.executed.gips <= cap + 1e-9,
            "case {case}: exceeds compute roofline"
        );
    }
}

/// More frequency never hurts: unbounded demand executes at least as
/// fast at a higher frequency (same bandwidth).
#[test]
fn frequency_monotonicity() {
    let mut rng = Rng::seed_from_u64(0x50_0003);
    for case in 0..128 {
        let demand = Demand {
            ipc0: rng.gen_range(0.5..2.0),
            bytes_per_instr: rng.gen_range(0.05..2.0),
            desired_gips: None,
            active_cores: rng.gen_range(0.5..4.0),
            ..Demand::default()
        };
        let b = rng.gen_range_usize(0..13);
        let mut prev = 0.0;
        for f in 0..18 {
            let mut dev = Device::new(quiet());
            dev.set_cpu_governor("userspace");
            dev.set_bw_governor("userspace");
            dev.set_cpu_freq(FreqIndex(f));
            dev.set_mem_bw(BwIndex(b));
            let g = dev.tick(&demand).executed.gips;
            assert!(g >= prev - 1e-9, "case {case}: regression at f{}", f + 1);
            prev = g;
        }
    }
}

/// Histogram mass is conserved: the per-frequency residency always
/// sums to the elapsed time.
#[test]
fn histogram_mass_conserved() {
    let mut rng = Rng::seed_from_u64(0x50_0004);
    for case in 0..128 {
        let mut dev = Device::new(quiet());
        dev.set_cpu_governor("userspace");
        dev.set_bw_governor("userspace");
        let d = Demand::idle();
        let mut expected: u64 = 0;
        let switches = rng.gen_range_usize(1..20);
        for _ in 0..switches {
            let f = rng.gen_range_usize(0..18);
            let b = rng.gen_range_usize(0..13);
            let ticks = rng.gen_range_usize(1..40) as u64;
            dev.set_cpu_freq(FreqIndex(f));
            dev.set_mem_bw(BwIndex(b));
            for _ in 0..ticks {
                dev.tick(&d);
            }
            expected += ticks;
        }
        let stats = dev.stats();
        assert_eq!(
            stats.time_in_freq_ms.iter().sum::<u64>(),
            expected,
            "case {case}"
        );
        assert_eq!(
            stats.time_in_bw_ms.iter().sum::<u64>(),
            expected,
            "case {case}"
        );
        assert_eq!(stats.elapsed_ms, expected, "case {case}");
    }
}

/// Power is always positive and finite, whatever the demand.
#[test]
fn power_well_formed() {
    let mut rng = Rng::seed_from_u64(0x50_0005);
    for case in 0..256 {
        let d = random_demand(&mut rng);
        let f = rng.gen_range_usize(0..18);
        let b = rng.gen_range_usize(0..13);
        let mut dev = Device::new(quiet());
        dev.set_cpu_governor("userspace");
        dev.set_bw_governor("userspace");
        dev.set_cpu_freq(FreqIndex(f));
        dev.set_mem_bw(BwIndex(b));
        let out = dev.tick(&d);
        let p = out.power.total_w();
        assert!(p.is_finite(), "case {case}");
        assert!(
            p > 0.5,
            "case {case}: device never draws less than base power, got {p}"
        );
        assert!(p < 14.0, "case {case}: implausible device power {p}");
    }
}

/// sysfs setspeed accepts exactly the ladder frequencies and nothing
/// else.
#[test]
fn sysfs_setspeed_validation() {
    let mut rng = Rng::seed_from_u64(0x50_0006);
    for case in 0..256 {
        let khz = rng.gen_range_usize(0..4_000_000) as u64;
        let mut dev = Device::new(quiet());
        dev.set_cpu_governor("userspace");
        let path = format!("{}/scaling_setspeed", sysfs::CPUFREQ);
        let on_ladder = dev.table().freq_from_khz(khz).is_some();
        let result = dev.sysfs_write(&path, &khz.to_string());
        assert_eq!(result.is_ok(), on_ladder, "case {case} ({khz} kHz)");
        if on_ladder {
            let read_back: u64 = dev
                .sysfs_read(&format!("{}/scaling_cur_freq", sysfs::CPUFREQ))
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(read_back, khz, "case {case}");
        }
    }
    // The random sweep above rarely lands on the ladder; pin a few
    // known ladder frequencies so the accept path is exercised too.
    let mut dev = Device::new(quiet());
    dev.set_cpu_governor("userspace");
    for f in [0, 8, 17] {
        let khz = dev.table().freq(FreqIndex(f)).khz();
        let path = format!("{}/scaling_setspeed", sysfs::CPUFREQ);
        assert!(dev.sysfs_write(&path, &khz.to_string()).is_ok());
        let read_back: u64 = dev
            .sysfs_read(&format!("{}/scaling_cur_freq", sysfs::CPUFREQ))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(read_back, khz);
    }
}

/// The PMU instruction counter is monotone non-decreasing.
#[test]
fn pmu_monotone() {
    let mut rng = Rng::seed_from_u64(0x50_0007);
    for case in 0..64 {
        let mut dev = Device::new(quiet());
        let mut last = 0.0;
        let len = rng.gen_range_usize(1..50);
        for _ in 0..len {
            let d = random_demand(&mut rng);
            dev.tick(&d);
            let now = dev.pmu().instructions();
            assert!(now >= last, "case {case}");
            last = now;
        }
    }
}

/// One `n` ms span equals `n` ticks of 1 ms, bit for bit: twin devices
/// (same seed, so the monitor's noise stream is shared) receive the
/// same random demand — touch, GPU, network and background load
/// included — right after a DVFS change, so the transition surcharge
/// is pending when the step starts.
#[test]
fn span_step_equals_repeated_ticks() {
    let bits = |x: f64| x.to_bits();
    let mut rng = Rng::seed_from_u64(0x50_0008);
    for case in 0..64 {
        let cfg = DeviceConfig::nexus6().with_seed(rng.next_u64());
        let mut span = Device::new(cfg.clone());
        let mut ticks = Device::new(cfg);
        for dev in [&mut span, &mut ticks] {
            dev.set_cpu_governor("userspace");
            dev.set_bw_governor("userspace");
        }
        for step in 0..6 {
            let demand = Demand {
                gips_cap: rng.gen_bool(0.3).then(|| rng.gen_range(0.1..2.0)),
                cap_busy: rng.gen_bool(0.5),
                extra_power_w: rng.gen_range(0.0..0.3),
                gpu_work: rng.gen_range(0.0..0.8),
                net_pps: rng.gen_range(0.0..3_000.0),
                touch: rng.gen_bool(0.5),
                bg: BackgroundDemand {
                    cpu_util: rng.gen_range(0.0..0.6),
                    traffic_mbps: rng.gen_range(0.0..400.0),
                    power_w: rng.gen_range(0.0..0.1),
                },
                ..random_demand(&mut rng)
            };
            let n = 1 + rng.gen_range_usize(0..64) as u64;
            let f = FreqIndex(rng.gen_range_usize(0..18));
            let b = BwIndex(rng.gen_range_usize(0..13));
            let g = GpuFreqIndex(rng.gen_range_usize(0..5));
            for dev in [&mut span, &mut ticks] {
                dev.set_cpu_freq(f);
                dev.set_mem_bw(b);
                dev.set_gpu_freq(g);
            }

            let out_span = span.tick_span(&demand, n);
            let out_first = ticks.tick(&demand);
            for _ in 1..n {
                ticks.tick(&demand);
            }
            let ctx = format!("case {case} step {step} n {n}");
            assert_eq!(out_span, out_first, "{ctx}: first-ms outcome");
            assert_eq!(span.now_ms(), ticks.now_ms(), "{ctx}");
            assert_eq!(span.last_touch_ms(), ticks.last_touch_ms(), "{ctx}");

            let (a, t) = (span.stats(), ticks.stats());
            assert_eq!(bits(a.energy_j), bits(t.energy_j), "{ctx}: energy");
            assert_eq!(bits(a.avg_power_w), bits(t.avg_power_w), "{ctx}");
            assert_eq!(bits(a.instructions), bits(t.instructions), "{ctx}");
            assert_eq!(bits(a.avg_gips), bits(t.avg_gips), "{ctx}");
            assert_eq!(a.time_in_freq_ms, t.time_in_freq_ms, "{ctx}");
            assert_eq!(a.time_in_bw_ms, t.time_in_bw_ms, "{ctx}");
            assert_eq!(a.freq_transitions, t.freq_transitions, "{ctx}");
            assert_eq!(a.bw_transitions, t.bw_transitions, "{ctx}");
            let (pa, pt) = (span.pmu(), ticks.pmu());
            assert_eq!(bits(pa.instructions()), bits(pt.instructions()), "{ctx}");
            assert_eq!(bits(pa.cycles()), bits(pt.cycles()), "{ctx}: PMU");
            assert_eq!(bits(pa.bus_bytes()), bits(pt.bus_bytes()), "{ctx}");
            assert_eq!(bits(span.busy_ms()), bits(ticks.busy_ms()), "{ctx}");
            assert_eq!(
                bits(span.busy_core_ms()),
                bits(ticks.busy_core_ms()),
                "{ctx}"
            );
            assert_eq!(bits(span.bg_util_ms()), bits(ticks.bg_util_ms()), "{ctx}");
            assert_eq!(
                bits(span.bg_traffic_mb()),
                bits(ticks.bg_traffic_mb()),
                "{ctx}"
            );
            assert_eq!(
                bits(span.battery().drained_j()),
                bits(ticks.battery().drained_j()),
                "{ctx}: battery"
            );
            assert_eq!(
                bits(span.gpu().busy_ms()),
                bits(ticks.gpu().busy_ms()),
                "{ctx}: GPU"
            );
            assert_eq!(
                span.gpu().time_in_freq_ms(),
                ticks.gpu().time_in_freq_ms(),
                "{ctx}"
            );
            assert_eq!(
                bits(span.radio().serviced_packets()),
                bits(ticks.radio().serviced_packets()),
                "{ctx}: radio"
            );
        }
    }
}
