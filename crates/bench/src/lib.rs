//! # asgov-bench — hermetic micro-benchmarks
//!
//! Verifies the paper's §V-A1 overhead claims on this implementation:
//! the performance regulator and the energy optimizer together must
//! execute in well under 10 ms per control cycle even for the full
//! 18 × 13 = 234-configuration table, and the device simulator must be
//! fast enough to regenerate every experiment.
//!
//! The harness is in-tree and dependency-free (no criterion): a
//! warmup, then `samples` timed samples of `inner` iterations each,
//! reported as min / median / p95 / mean nanoseconds per iteration.
//! The `asgov-bench` binary runs three suites — `optimizer`,
//! `controller`, `simulator` — and writes one `BENCH_<suite>.json`
//! per suite at the repository root (schema documented in README.md).

use asgov_util::Json;
use std::time::Instant;

/// Sampling plan for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Untimed iterations run first (JIT-free here, but they warm
    /// caches and the branch predictor).
    pub warmup_iters: usize,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample; per-iteration cost is `elapsed / inner`,
    /// which amortizes the `Instant` read for nanosecond-scale bodies.
    pub inner: usize,
}

impl BenchConfig {
    /// The default plan used by the full benchmark run.
    pub fn full() -> Self {
        Self {
            warmup_iters: 50,
            samples: 40,
            inner: 20,
        }
    }

    /// A reduced plan for smoke runs (`--quick`, CI).
    pub fn quick() -> Self {
        Self {
            warmup_iters: 5,
            samples: 10,
            inner: 5,
        }
    }

    /// Same plan with a different `inner` count (for very cheap or
    /// very expensive bodies).
    pub fn with_inner(mut self, inner: usize) -> Self {
        self.inner = inner.max(1);
        self
    }
}

/// Summary statistics of one benchmark, nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, e.g. `"hull_solve/234"`.
    pub name: String,
    /// Timed samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub inner: usize,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
}

impl BenchResult {
    /// JSON object for the `results` array of `BENCH_<suite>.json`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("name", self.name.as_str());
        o.set("samples", self.samples);
        o.set("inner", self.inner);
        o.set("min_ns", self.min_ns);
        o.set("median_ns", self.median_ns);
        o.set("p95_ns", self.p95_ns);
        o.set("mean_ns", self.mean_ns);
        o
    }
}

/// Time `f` under the given sampling plan and return per-iteration
/// statistics. Use `std::hint::black_box` inside `f` to keep the
/// optimizer from deleting the measured work.
///
/// # Panics
///
/// Panics if the plan has zero samples or zero inner iterations.
pub fn bench<F: FnMut()>(name: &str, cfg: &BenchConfig, mut f: F) -> BenchResult {
    assert!(cfg.samples > 0 && cfg.inner > 0, "empty sampling plan");
    for _ in 0..cfg.warmup_iters {
        f();
    }
    let per_iter_ns = (0..cfg.samples).map(|_| sample_ns(cfg, &mut f)).collect();
    summarize(name, cfg, per_iter_ns)
}

/// Time `a` and `b` as an interleaved pair: each of the `cfg.samples`
/// rounds takes one sample of `a`, then one of `b`, so drift in host
/// load reaches both alike. Returns both results and the per-round
/// ratios `b / a`, sorted ascending — the paired estimate of what `b`
/// costs over `a`, with its spread.
///
/// # Panics
///
/// Panics if the plan has zero samples or zero inner iterations.
pub fn bench_paired<A: FnMut(), B: FnMut()>(
    (name_a, name_b): (&str, &str),
    cfg: &BenchConfig,
    mut a: A,
    mut b: B,
) -> (BenchResult, BenchResult, Vec<f64>) {
    assert!(cfg.samples > 0 && cfg.inner > 0, "empty sampling plan");
    for _ in 0..cfg.warmup_iters {
        a();
        b();
    }
    let (a_ns, b_ns): (Vec<f64>, Vec<f64>) = (0..cfg.samples)
        .map(|_| (sample_ns(cfg, &mut a), sample_ns(cfg, &mut b)))
        .unzip();
    let mut ratios: Vec<f64> = a_ns.iter().zip(&b_ns).map(|(a, b)| b / a).collect();
    ratios.sort_by(f64::total_cmp);
    (
        summarize(name_a, cfg, a_ns),
        summarize(name_b, cfg, b_ns),
        ratios,
    )
}

/// The `q`-quantile (0..=1) of ascending `sorted` by nearest rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    sorted[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1]
}

/// One timed sample: `cfg.inner` calls of `f`, ns per call.
fn sample_ns<F: FnMut()>(cfg: &BenchConfig, f: &mut F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..cfg.inner {
        f();
    }
    t0.elapsed().as_nanos() as f64 / cfg.inner as f64
}

fn summarize(name: &str, cfg: &BenchConfig, mut per_iter_ns: Vec<f64>) -> BenchResult {
    per_iter_ns.sort_by(f64::total_cmp);
    BenchResult {
        name: name.to_string(),
        samples: cfg.samples,
        inner: cfg.inner,
        min_ns: per_iter_ns[0],
        median_ns: nearest_rank(&per_iter_ns, 0.5),
        p95_ns: nearest_rank(&per_iter_ns, 0.95),
        mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
    }
}

/// Assemble one suite report: `{schema, suite, quick, results, derived}`.
pub fn suite_report(suite: &str, quick: bool, results: &[BenchResult], derived: Json) -> Json {
    let mut o = Json::object();
    o.set("schema", "asgov-bench/v1");
    o.set("suite", suite);
    o.set("quick", quick);
    o.set(
        "results",
        Json::Arr(results.iter().map(BenchResult::to_json).collect()),
    );
    o.set("derived", derived);
    o
}

/// Build a synthetic profile of `n` configurations with plausible
/// speedup/power curves (for benchmarking the optimizer at any N).
pub fn synthetic_profile(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n > 0);
    let mut speedups = Vec::with_capacity(n);
    let mut powers = Vec::with_capacity(n);
    for i in 0..n {
        let x = i as f64 / (n - 1).max(1) as f64;
        // Concave speedup, superlinear power — typical DVFS shape.
        speedups.push(1.0 + 2.2 * x.powf(0.7));
        powers.push(1.5 + 2.5 * x.powf(1.4));
    }
    (speedups, powers)
}

/// A full 18 × 13 = 234-row synthetic [`asgov_profiler::ProfileTable`]
/// over the Nexus 6 configuration grid, for controller-level benches.
pub fn synthetic_table() -> asgov_profiler::ProfileTable {
    use asgov_profiler::{Config, ProfileEntry, ProfileTable};
    use asgov_soc::{BwIndex, FreqIndex};
    let n = 18 * 13;
    let (speedups, powers) = synthetic_profile(n);
    let entries = (0..n)
        .map(|i| ProfileEntry {
            config: Config::new(FreqIndex(i / 13), BwIndex(i % 13)),
            speedup: speedups[i],
            power_w: powers[i],
            measured: i % 13 == 0 || i % 13 == 12,
        })
        .collect();
    ProfileTable {
        app: "synthetic".into(),
        base_gips: 0.2,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_profile_is_monotone() {
        let (s, p) = synthetic_profile(234);
        assert_eq!(s.len(), 234);
        assert!(s.windows(2).all(|w| w[1] >= w[0]));
        assert!(p.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn synthetic_profile_solvable() {
        let (s, p) = synthetic_profile(50);
        let sched = asgov_linprog::two_point::optimize(&s, &p, 2.0, 2.0).unwrap();
        assert!((sched.expected_speedup(&s) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn synthetic_table_covers_the_grid() {
        let t = synthetic_table();
        assert_eq!(t.len(), 234);
        let opt = asgov_core::EnergyOptimizer::new(&t);
        assert!(opt.solve(2.0, 2.0).is_some());
    }

    #[test]
    fn bench_reports_sane_statistics() {
        let cfg = BenchConfig {
            warmup_iters: 2,
            samples: 9,
            inner: 3,
        };
        let r = bench("spin", &cfg, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(r.samples, 9);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert!(r.mean_ns > 0.0);
        let j = r.to_json();
        assert_eq!(j.get("name").and_then(Json::as_str), Some("spin"));
        assert!(j.get("median_ns").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn paired_bench_interleaves_and_reports_ratios() {
        let cfg = BenchConfig {
            warmup_iters: 1,
            samples: 7,
            inner: 2,
        };
        let order = std::cell::RefCell::new(String::new());
        let (a, b, ratios) = bench_paired(
            ("cheap", "dear"),
            &cfg,
            || {
                order.borrow_mut().push('a');
                std::hint::black_box((0..100).sum::<u64>());
            },
            || {
                order.borrow_mut().push('b');
                std::hint::black_box((0..10_000).sum::<u64>());
            },
        );
        // Warmup pair, then one sample of each per round.
        let expect: String =
            "ab".to_string() + &(0..cfg.samples).map(|_| "aabb").collect::<String>();
        assert_eq!(order.into_inner(), expect);
        assert_eq!((a.name.as_str(), b.name.as_str()), ("cheap", "dear"));
        assert_eq!((a.samples, b.samples, ratios.len()), (7, 7, 7));
        assert!(ratios.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(ratios.iter().all(|r| r.is_finite() && *r > 0.0));
    }

    #[test]
    fn nearest_rank_picks_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 0.25), 1.0);
        assert_eq!(nearest_rank(&v, 0.5), 2.0);
        assert_eq!(nearest_rank(&v, 0.75), 3.0);
        assert_eq!(nearest_rank(&v, 1.0), 4.0);
    }

    #[test]
    fn suite_report_has_schema_fields() {
        let r = bench("x", &BenchConfig::quick(), || {
            std::hint::black_box(1 + 1);
        });
        let rep = suite_report("optimizer", true, &[r], Json::object());
        assert_eq!(
            rep.get("schema").and_then(Json::as_str),
            Some("asgov-bench/v1")
        );
        assert_eq!(
            rep.get("results")
                .and_then(Json::as_array)
                .map(<[asgov_util::Json]>::len),
            Some(1)
        );
        // Round-trips through the parser.
        let parsed = Json::parse(&rep.to_pretty()).unwrap();
        assert_eq!(
            parsed.get("suite").and_then(Json::as_str),
            Some("optimizer")
        );
    }
}
