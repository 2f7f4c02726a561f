//! Monsoon-style whole-device power monitor.
//!
//! The paper samples device power at 5 kHz with a Monsoon Power Monitor
//! and integrates to energy. Our simulator advances in 1 ms ticks, so the
//! monitor receives one averaged power value per tick — exactly what a
//! 5 kHz monitor's per-millisecond average would be — and integrates the
//! noiseless energy tick by tick.
//!
//! Measurement noise is drawn at *read* time, not per tick. A monitor
//! with per-millisecond noise N(0, σ²) adds `σ·1e-3·zᵢ` joules each
//! millisecond, and the sum of `n` such terms is one N(0, n·σ²·1e-6)
//! draw. So before [`PowerMonitor::energy_j`] or
//! [`PowerMonitor::average_power_w`] returns, the monitor folds in one
//! increment `σ·√n·1e-3·z` for the `n` milliseconds recorded since its
//! previous draw. Over any sequence of reads this samples a Brownian
//! path: every segment's energy noise is independent, with the variance
//! a per-millisecond monitor would give it. Reads with nothing pending
//! draw nothing, and reading any other statistic never draws.
//!
//! Because the draws depend on *when* energy is read, two runs agree bit
//! for bit when they record the same per-millisecond powers and read
//! energy at the same simulated instants — which is how the tick and
//! event cores stay identical (both read once, at the end of a run).
//!
//! Retained trace samples (see [`PowerMonitor::set_keep_trace`]) carry
//! their own per-sample noise from a separate RNG stream, so turning the
//! trace on or off leaves the energy bits unchanged.

use asgov_util::Rng;
use std::cell::{Cell, RefCell};

/// Seed offset of the trace-noise stream (kept apart from the energy
/// stream so tracing cannot perturb energy).
const TRACE_STREAM: u64 = 0x7472_6163_655f_6e7a;

/// One recorded power sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Simulation time at the start of the sampled tick, ms.
    pub t_ms: u64,
    /// Average device power over the tick, watts.
    pub power_w: f64,
}

/// Whole-device power monitor: integrates power to energy and optionally
/// records a power trace.
///
/// Energy reads take `&self` but may fold pending noise into the
/// integral (see the module docs); that state lives in cells inside the
/// monitor.
#[derive(Debug, Clone)]
pub struct PowerMonitor {
    noise_sigma_w: f64,
    rng: RefCell<Rng>,
    trace_rng: Rng,
    energy_j: Cell<f64>,
    elapsed_ms: u64,
    /// `elapsed_ms` as of the last noise draw; the difference is the
    /// number of milliseconds whose noise is still pending.
    drawn_ms: Cell<u64>,
    noise_draws: Cell<u64>,
    trace: Vec<PowerSample>,
    keep_trace: bool,
}

impl PowerMonitor {
    /// A monitor with Gaussian measurement noise of standard deviation
    /// `noise_sigma_w` watts per 1 ms sample (the paper's Monsoon is
    /// quite accurate; a few mW is realistic). Trace recording starts
    /// disabled; energy integration is always on.
    pub fn new(noise_sigma_w: f64, seed: u64) -> Self {
        Self {
            noise_sigma_w,
            rng: RefCell::new(Rng::seed_from_u64(seed)),
            trace_rng: Rng::seed_from_u64(seed ^ TRACE_STREAM),
            energy_j: Cell::new(0.0),
            elapsed_ms: 0,
            drawn_ms: Cell::new(0),
            noise_draws: Cell::new(0),
            trace: Vec::new(),
            keep_trace: false,
        }
    }

    /// Enable or disable retention of the full per-tick trace (energy is
    /// integrated regardless).
    pub fn set_keep_trace(&mut self, keep: bool) {
        self.keep_trace = keep;
    }

    /// Record one tick's average power (noiseless; noise is drawn when
    /// energy is read).
    #[inline]
    pub(crate) fn record(&mut self, t_ms: u64, power_w: f64) {
        *self.energy_j.get_mut() += power_w * 1e-3; // 1 ms tick
        self.elapsed_ms += 1;
        if self.keep_trace {
            let noise = if self.noise_sigma_w > 0.0 {
                *self.noise_draws.get_mut() += 1;
                self.noise_sigma_w * self.trace_rng.gen_normal()
            } else {
                0.0
            };
            self.trace.push(PowerSample {
                t_ms,
                power_w: power_w + noise,
            });
        }
    }

    /// Fold the noise of every millisecond recorded since the last draw
    /// into the integral: one N(0, n·σ²) power draw, times 1 ms.
    fn settle(&self) {
        let n = self.elapsed_ms - self.drawn_ms.get();
        if n == 0 {
            return;
        }
        self.drawn_ms.set(self.elapsed_ms);
        if self.noise_sigma_w > 0.0 {
            let z = self.rng.borrow_mut().gen_normal();
            let noise_j = self.noise_sigma_w * (n as f64).sqrt() * 1e-3 * z;
            self.energy_j.set(self.energy_j.get() + noise_j);
            self.noise_draws.set(self.noise_draws.get() + 1);
        }
    }

    /// Total measured energy since the last reset, joules. Folds in the
    /// noise of the milliseconds recorded since the previous read.
    pub fn energy_j(&self) -> f64 {
        self.settle();
        self.energy_j.get()
    }

    /// Measurement duration since the last reset, ms. Never draws.
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ms
    }

    /// Average power since the last reset, watts (0 if nothing recorded).
    /// Reads energy, so it folds in pending noise like
    /// [`PowerMonitor::energy_j`].
    pub fn average_power_w(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            self.energy_j() / (self.elapsed_ms as f64 * 1e-3)
        }
    }

    /// Gaussian draws this monitor has made since construction: one per
    /// energy read with pending milliseconds, plus one per retained
    /// trace sample. Deterministic, and not cleared by
    /// [`PowerMonitor::reset`].
    pub fn noise_draws(&self) -> u64 {
        self.noise_draws.get()
    }

    /// The recorded trace (empty unless [`set_keep_trace`] was enabled).
    ///
    /// [`set_keep_trace`]: PowerMonitor::set_keep_trace
    pub fn trace(&self) -> &[PowerSample] {
        &self.trace
    }

    /// Clear the integrator and the trace, discarding any pending noise.
    pub fn reset(&mut self) {
        self.energy_j.set(0.0);
        self.elapsed_ms = 0;
        self.drawn_ms.set(0);
        self.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_energy_exactly_without_noise() {
        let mut m = PowerMonitor::new(0.0, 1);
        for t in 0..1000 {
            m.record(t, 2.0);
        }
        assert!((m.energy_j() - 2.0).abs() < 1e-9, "2 W for 1 s = 2 J");
        assert_eq!(m.elapsed_ms(), 1000);
        assert!((m.average_power_w() - 2.0).abs() < 1e-9);
        assert_eq!(m.noise_draws(), 0);
    }

    #[test]
    fn noise_is_zero_mean_in_aggregate() {
        let mut m = PowerMonitor::new(0.005, 42);
        for t in 0..100_000 {
            m.record(t, 1.5);
        }
        let avg = m.average_power_w();
        assert!(
            (avg - 1.5).abs() < 0.001,
            "noisy average {avg} drifted from 1.5"
        );
    }

    /// The read-time draws reproduce the per-millisecond model's
    /// distribution: after 4000 ms at 2 W, read at irregular instants
    /// along the way, the energy noise is N(0, n·σ²·1e-6) across seeds.
    #[test]
    fn read_time_noise_matches_per_ms_distribution() {
        const SEEDS: u64 = 2_000;
        const MS: u64 = 4_000;
        const SIGMA: f64 = 0.004;
        let mut exact = PowerMonitor::new(0.0, 0);
        for t in 0..MS {
            exact.record(t, 2.0);
        }
        let exact_j = exact.energy_j();
        let noise: Vec<f64> = (0..SEEDS)
            .map(|seed| {
                let mut m = PowerMonitor::new(SIGMA, seed);
                for t in 0..MS {
                    m.record(t, 2.0);
                    if t % (97 + seed % 900) == 0 {
                        m.energy_j();
                    }
                }
                m.energy_j() - exact_j
            })
            .collect();
        let k = SEEDS as f64;
        let mean = noise.iter().sum::<f64>() / k;
        let var = noise.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
        let want_var = MS as f64 * SIGMA * SIGMA * 1e-6;
        let std_err = (want_var / k).sqrt();
        assert!(mean.abs() < 3.0 * std_err, "mean {mean} vs s.e. {std_err}");
        assert!(
            (var / want_var - 1.0).abs() < 0.10,
            "variance {var} vs n·σ²·1e-6 = {want_var}"
        );
    }

    #[test]
    fn draws_happen_once_per_read_with_pending_ms() {
        let mut m = PowerMonitor::new(0.004, 3);
        for t in 0..500 {
            m.record(t, 1.0);
        }
        assert_eq!(m.noise_draws(), 0, "recording never draws");
        let e = m.energy_j();
        assert_eq!(m.noise_draws(), 1);
        assert_eq!(m.energy_j().to_bits(), e.to_bits(), "nothing pending");
        m.average_power_w();
        m.elapsed_ms();
        assert_eq!(m.noise_draws(), 1, "no pending ms, no draw");
        m.record(500, 1.0);
        m.average_power_w();
        assert_eq!(m.noise_draws(), 2);
    }

    #[test]
    fn trace_only_kept_when_enabled() {
        let mut m = PowerMonitor::new(0.0, 1);
        m.record(0, 1.0);
        assert!(m.trace().is_empty());
        m.set_keep_trace(true);
        m.record(1, 1.0);
        assert_eq!(m.trace().len(), 1);
        assert_eq!(m.trace()[0].t_ms, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = PowerMonitor::new(0.0, 1);
        m.set_keep_trace(true);
        m.record(0, 3.0);
        m.reset();
        assert_eq!(m.energy_j(), 0.0);
        assert_eq!(m.elapsed_ms(), 0);
        assert!(m.trace().is_empty());
    }

    #[test]
    fn reset_discards_pending_noise() {
        let mut m = PowerMonitor::new(0.004, 5);
        for t in 0..100 {
            m.record(t, 1.0);
        }
        m.reset();
        assert_eq!(m.energy_j(), 0.0);
        assert_eq!(m.noise_draws(), 0, "pending milliseconds dropped");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = PowerMonitor::new(0.01, seed);
            for t in 0..1000 {
                m.record(t, 1.0);
            }
            m.energy_j()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
