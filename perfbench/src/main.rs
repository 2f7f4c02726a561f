//! # asgov-perfbench — the repository's benchmark
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-exact|fleet-coarse|repro> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that splits host time into the repository's
//! layers and writes a Chrome trace to `perfbench/out/`. Every line but
//! the last is human-readable; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod fleet;
mod paper;
mod replay;
mod repro;
mod stats;
mod trace;

use asgov_util::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Worker threads of every parallel stage (the fleet pools and the
/// policy-store fan-out).
pub const THREADS: usize = 2;

/// A list of `(metric name, unit)`.
type MetricTable = [(&'static str, &'static str)];

/// End-to-end metrics, printed by `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("device_epochs_per_s", "dev-ep/s"),
    ("sim_s_per_host_s", "sim-s/host-s"),
    ("peak_rss_mib", "MiB"),
    ("savings_gap_pp", "pp"),
];

/// Per-layer metrics, printed by `--trace 1`: `(name, unit)`.
const PER_LAYER: [(&str, &str); 48] = [
    ("fleet.store_resolve_s", "s"),
    ("fleet.shard_epochs", "count"),
    ("fleet.shard_epoch_ms.p50", "ms"),
    ("fleet.shard_epoch_ms.p99", "ms"),
    ("fleet.fold_s", "s"),
    ("fleet.checkpoint_s", "s"),
    ("fleet.restore_s", "s"),
    ("fleet.checkpoint_bytes", "B"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("par.utilization", "ratio"),
    ("soc.device_new_s", "s"),
    ("soc.event_loop_self_s", "s"),
    ("soc.events", "count"),
    ("soc.events_per_device_epoch", "count"),
    ("soc.mean_span_ms", "ms"),
    ("soc.ns_per_event", "ns"),
    ("workloads.build_app_s", "s"),
    ("workloads.demand_s", "s"),
    ("workloads.demand_calls", "count"),
    ("workloads.deliver_s", "s"),
    ("workloads.horizon_1ms_frac", "ratio"),
    ("governors.tick_s", "s"),
    ("governors.ticks", "count"),
    ("core.supervisor_new_s", "s"),
    ("core.policy_tick_s", "s"),
    ("core.policy_ticks", "count"),
    ("core.controller_cycles", "count"),
    ("core.cycles_per_device_epoch", "count"),
    ("core.migrate_in_s", "s"),
    ("core.migrate_out_s", "s"),
    ("core.snapshot_bytes_per_device", "B"),
    ("core.restarts", "count"),
    ("core.warm_restarts", "count"),
    ("core.snapshot_errors", "count"),
    ("obs.stats_record_s", "s"),
    ("obs.quantile_out_of_range", "count"),
    ("profiler.profile_s", "s"),
    ("profiler.points", "count"),
    ("profiler.measure_default_s", "s"),
    ("profiler.measure_controller_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
    ("host.calib_ns", "ns"),
    ("savings_wrong_sign", "count"),
    ("perf_shortfall_pct", "%"),
    ("failed_ops_frac", "ratio"),
    ("host.threads", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["fleet-exact", "fleet-coarse", "repro"];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (device-epochs, or comparison rows).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic counters: equal for equal code and seed.
    pub counters: Vec<(&'static str, String)>,
    /// Informational lines.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Record a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a deterministic counter.
    pub fn counter(&mut self, name: &'static str, value: String) {
        self.counters.push((name, value));
    }

    /// Record an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A failure that ends the run: every operation counts as failed.
    pub fn fatal(&mut self, problem: String, ops: u64) {
        self.attempted = self.attempted.max(ops).max(1);
        self.failed = self.attempted;
        self.problems.push(problem);
    }
}

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the benchmark writes its trace files and counter records.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compare this run's deterministic counters with those an earlier run
/// of the same code (the same executable), workload, seed and mode
/// recorded, or record them.
fn check_counters(args: &Args, out: &mut RunOutput) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot read own executable: {e}"))?;
    let dir = out_dir().join("counters");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}-build{:016x}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace),
        stats::fnv1a(&exe)
    ));
    let text: String = out
        .counters
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != text => out.problems.push(format!(
            "deterministic counters differ from an earlier run with this seed:\n{earlier}--- now ---\n{text}"
        )),
        Ok(_) => {}
        Err(_) => std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?,
    }
    Ok(())
}

fn run(args: &Args) -> Result<(RunOutput, &'static MetricTable), String> {
    let calib_ns = stats::calibrate_ns();
    println!("host.calib_ns {calib_ns:.0} ns");
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!("host.threads {threads} (benchmark uses {THREADS})");
    let (mut out, spans) = match (args.workload.as_str(), args.trace) {
        ("fleet-exact", false) => (
            fleet::run(fleet::Shape::Exact, args.seed, args.seconds),
            None,
        ),
        ("fleet-coarse", false) => (
            fleet::run(fleet::Shape::Coarse, args.seed, args.seconds),
            None,
        ),
        ("repro", false) => (repro::run(args.seed, args.seconds), None),
        ("fleet-exact", true) => {
            let (o, s) = fleet::run_traced(fleet::Shape::Exact, args.seed);
            (o, Some(s))
        }
        ("fleet-coarse", true) => {
            let (o, s) = fleet::run_traced(fleet::Shape::Coarse, args.seed);
            (o, Some(s))
        }
        ("repro", true) => {
            let (o, s) = repro::run_traced(args.seed);
            (o, Some(s))
        }
        (other, _) => return Err(format!("unknown workload {other}")),
    };
    if let Some(spans) = spans {
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out dir: {e}"))?;
        let tracks: &[&str] = if args.workload == "repro" {
            &["main"]
        } else {
            &[
                "pool worker 0",
                "pool worker 1",
                "main: fold, checkpoint, restore",
            ]
        };
        let doc = trace::chrome_trace(&spans, &args.workload, tracks);
        std::fs::write(&path, doc.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("chrome trace: {} ({} slices)", path.display(), spans.len());
        out.metric("host.calib_ns", calib_ns);
        out.metric("host.threads", threads as f64);
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.metric("failed_ops_frac", frac);
    } else {
        out.metric("peak_rss_mib", stats::peak_rss_mib()?);
    }
    check_counters(args, &mut out)?;
    Ok((out, if args.trace { &PER_LAYER } else { &END_TO_END }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, table) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    for (name, value) in &out.counters {
        println!("counter {name} {value}");
    }
    for p in &out.problems {
        println!("PROBLEM {p}");
    }
    let mut metrics = Json::object();
    for (name, unit) in table {
        let Some(&value) = out.metrics.get(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            return ExitCode::FAILURE;
        }
        println!("metric {name} {value} {unit}");
        let mut m = Json::object();
        m.set("value", value);
        m.set("unit", *unit);
        metrics.set(name, m);
    }
    let mut result = Json::object();
    result.set("correct", out.problems.is_empty() && out.failed == 0);
    result.set("attempted", out.attempted as f64);
    result.set("failed", out.failed as f64);
    result.set("metrics", metrics);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics and workloads this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &MetricTable| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
