//! Outside-in tracing: spans and per-layer accumulators recorded around
//! calls into the program's public functions, forwarding wrappers that
//! time the workload and policy calls the event loop makes, and the
//! Chrome trace-event writer.
//!
//! Nothing here reaches inside the program. A layer's time is the time
//! spent in calls into that layer's public functions; the event loop's
//! self time is the `run_counted` (or `sim::run`) span minus the
//! wrapped workload and policy calls it made.

use asgov_obs::{CycleRecord, TraceSink};
use asgov_soc::{Demand, Device, Executed, HealthReport, Policy, Workload};
use asgov_util::Json;
use std::time::Instant;

/// Time since `origin`, ns.
pub fn since_ns(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Elapsed ns since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// One complete slice of the Chrome trace.
#[derive(Debug, Clone)]
pub struct Span {
    /// Slice name.
    pub name: &'static str,
    /// Layer (Chrome category).
    pub cat: &'static str,
    /// Track: the pool worker that ran it.
    pub tid: usize,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Numeric annotations shown in the viewer.
    pub args: Vec<(&'static str, f64)>,
}

/// Per-layer host time (ns) and work counters, summed over whatever
/// the traced pass replayed.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Replayed units (shard-epochs or measurement legs), wall ns.
    pub replay_ns: u64,
    /// Fleet glue: device-spec derivation, seeding, churn draw, store
    /// lookup.
    pub fleet_derive_ns: u64,
    /// `build_app` (fleet) — app construction.
    pub build_app_ns: u64,
    /// `Device::new` plus fault or tool-overhead installation.
    pub device_new_ns: u64,
    /// `Supervisor::new`.
    pub supervisor_new_ns: u64,
    /// `Supervisor::migrate_in`.
    pub migrate_in_ns: u64,
    /// `Supervisor::migrate_out`.
    pub migrate_out_ns: u64,
    /// Whole event-loop calls (`run_counted` / `sim::run`), wrapped
    /// calls included.
    pub event_loop_ns: u64,
    /// `Workload::demand`.
    pub demand_ns: u64,
    /// `Workload::demand` calls.
    pub demand_calls: u64,
    /// `Workload::deliver` and `deliver_span`.
    pub deliver_ns: u64,
    /// `Workload::next_event_ms` answers.
    pub horizon_answers: u64,
    /// Answers equal to `now + 1`.
    pub horizon_1ms: u64,
    /// Stock-governor `start`/`tick`/`finish`.
    pub gov_tick_ns: u64,
    /// Stock-governor ticks.
    pub gov_ticks: u64,
    /// Controller (or supervisor) `start`/`tick`/`finish`.
    pub core_tick_ns: u64,
    /// Controller ticks.
    pub core_ticks: u64,
    /// `FleetStats::record` / `record_excluded`.
    pub stats_record_ns: u64,
    /// Event-loop iterations (engine events; tick-core milliseconds).
    pub events: u64,
    /// Simulated ms covered by those events.
    pub simulated_ms: u64,
    /// Controller cycles, counted by a sink on the device.
    pub cycles: u64,
    /// Device runs that ran a controller.
    pub controlled_runs: u64,
    /// Device-epochs simulated (online).
    pub device_epochs: u64,
    /// Bytes of migrated-out controller snapshots.
    pub snapshot_bytes: u64,
    /// Migrated-out snapshots.
    pub snapshots: u64,
}

impl Layers {
    /// Add `o` into `self`.
    pub fn add(&mut self, o: &Layers) {
        self.replay_ns += o.replay_ns;
        self.fleet_derive_ns += o.fleet_derive_ns;
        self.build_app_ns += o.build_app_ns;
        self.device_new_ns += o.device_new_ns;
        self.supervisor_new_ns += o.supervisor_new_ns;
        self.migrate_in_ns += o.migrate_in_ns;
        self.migrate_out_ns += o.migrate_out_ns;
        self.event_loop_ns += o.event_loop_ns;
        self.demand_ns += o.demand_ns;
        self.demand_calls += o.demand_calls;
        self.deliver_ns += o.deliver_ns;
        self.horizon_answers += o.horizon_answers;
        self.horizon_1ms += o.horizon_1ms;
        self.gov_tick_ns += o.gov_tick_ns;
        self.gov_ticks += o.gov_ticks;
        self.core_tick_ns += o.core_tick_ns;
        self.core_ticks += o.core_ticks;
        self.stats_record_ns += o.stats_record_ns;
        self.events += o.events;
        self.simulated_ms += o.simulated_ms;
        self.cycles += o.cycles;
        self.controlled_runs += o.controlled_runs;
        self.device_epochs += o.device_epochs;
        self.snapshot_bytes += o.snapshot_bytes;
        self.snapshots += o.snapshots;
    }

    /// Fold one wrapped event-loop call's wrappers into the totals.
    pub fn add_loop(
        &mut self,
        w: &TracedWorkload<'_>,
        gov: &[&TracedPolicy<'_>],
        core: &[&TracedPolicy<'_>],
    ) {
        self.demand_ns += w.demand_ns;
        self.demand_calls += w.demand_calls;
        self.deliver_ns += w.deliver_ns;
        self.horizon_answers += w.horizon_answers.get();
        self.horizon_1ms += w.horizon_1ms.get();
        for p in gov {
            self.gov_tick_ns += p.ns;
            self.gov_ticks += p.ticks;
        }
        for p in core {
            self.core_tick_ns += p.ns;
            self.core_ticks += p.ticks;
        }
    }

    /// Event-loop self time: the loop calls minus the wrapped calls.
    pub fn event_loop_self_ns(&self) -> u64 {
        self.event_loop_ns
            .saturating_sub(self.demand_ns + self.deliver_ns + self.gov_tick_ns + self.core_tick_ns)
    }

    /// Replay wall time not covered by any timed layer call: timer
    /// overhead and the glue between calls. Signed; the layers are not
    /// forced to add up.
    pub fn unattributed_ns(&self) -> f64 {
        let attributed = self.fleet_derive_ns
            + self.build_app_ns
            + self.device_new_ns
            + self.supervisor_new_ns
            + self.migrate_in_ns
            + self.migrate_out_ns
            + self.event_loop_ns
            + self.stats_record_ns;
        self.replay_ns as f64 - attributed as f64
    }
}

/// Forwarding [`Workload`] wrapper that times `demand` and `deliver*`
/// and counts `next_event_ms` answers.
pub struct TracedWorkload<'a> {
    inner: &'a mut dyn Workload,
    demand_ns: u64,
    demand_calls: u64,
    deliver_ns: u64,
    horizon_answers: std::cell::Cell<u64>,
    horizon_1ms: std::cell::Cell<u64>,
}

impl<'a> TracedWorkload<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Workload) -> Self {
        Self {
            inner,
            demand_ns: 0,
            demand_calls: 0,
            deliver_ns: 0,
            horizon_answers: std::cell::Cell::new(0),
            horizon_1ms: std::cell::Cell::new(0),
        }
    }
}

impl Workload for TracedWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn demand(&mut self, now_ms: u64) -> Demand {
        let t = Instant::now();
        let d = self.inner.demand(now_ms);
        self.demand_ns += elapsed_ns(t);
        self.demand_calls += 1;
        d
    }

    fn deliver(&mut self, now_ms: u64, executed: Executed) {
        let t = Instant::now();
        self.inner.deliver(now_ms, executed);
        self.deliver_ns += elapsed_ns(t);
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn next_event_ms(&self, now_ms: u64) -> u64 {
        let next = self.inner.next_event_ms(now_ms);
        self.horizon_answers.set(self.horizon_answers.get() + 1);
        if next == now_ms.saturating_add(1) {
            self.horizon_1ms.set(self.horizon_1ms.get() + 1);
        }
        next
    }

    fn deliver_span(&mut self, now_ms: u64, executed: Executed, span_ms: u64) {
        let t = Instant::now();
        self.inner.deliver_span(now_ms, executed, span_ms);
        self.deliver_ns += elapsed_ns(t);
    }
}

/// Forwarding [`Policy`] wrapper that times `start`, `tick` and
/// `finish` and counts ticks.
pub struct TracedPolicy<'a> {
    inner: &'a mut dyn Policy,
    ns: u64,
    ticks: u64,
}

impl<'a> TracedPolicy<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Policy) -> Self {
        Self {
            inner,
            ns: 0,
            ticks: 0,
        }
    }
}

impl Policy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn start(&mut self, device: &mut Device) {
        let t = Instant::now();
        self.inner.start(device);
        self.ns += elapsed_ns(t);
    }

    fn tick(&mut self, device: &mut Device) {
        let t = Instant::now();
        self.inner.tick(device);
        self.ns += elapsed_ns(t);
        self.ticks += 1;
    }

    fn finish(&mut self, device: &mut Device) {
        let t = Instant::now();
        self.inner.finish(device);
        self.ns += elapsed_ns(t);
    }

    fn health(&self) -> Option<HealthReport> {
        self.inner.health()
    }

    fn next_event_ms(&self, device: &Device) -> u64 {
        self.inner.next_event_ms(device)
    }
}

/// Trace sink that only counts completed control cycles.
#[derive(Debug, Default)]
pub struct CycleCounter {
    /// Cycles seen.
    pub cycles: u64,
}

impl TraceSink for CycleCounter {
    fn record_cycle(&mut self, _rec: &CycleRecord) {
        self.cycles += 1;
    }
}

/// The spans as a Chrome trace-event document (`traceEvents` of
/// complete `X` slices in µs), which Perfetto UI and `chrome://tracing`
/// load. `tracks[tid]` names the track of the spans with that `tid`.
pub fn chrome_trace(spans: &[Span], workload: &str, tracks: &[&str]) -> Json {
    let mut events = Vec::with_capacity(spans.len() + tracks.len() + 1);
    let meta = |name: &str, tid: usize, value: &str| {
        let mut e = Json::object();
        e.set("ph", "M");
        e.set("name", name);
        e.set("pid", 1.0);
        e.set("tid", tid);
        let mut args = Json::object();
        args.set("name", value);
        e.set("args", args);
        e
    };
    events.push(meta("process_name", 0, &format!("perfbench {workload}")));
    for (tid, track) in tracks.iter().enumerate() {
        events.push(meta("thread_name", tid, track));
    }
    for s in spans {
        let mut e = Json::object();
        e.set("ph", "X");
        e.set("name", s.name);
        e.set("cat", s.cat);
        e.set("pid", 1.0);
        e.set("tid", s.tid);
        e.set("ts", s.start_ns as f64 / 1e3);
        e.set("dur", s.dur_ns as f64 / 1e3);
        if !s.args.is_empty() {
            let mut args = Json::object();
            for (k, v) in &s.args {
                args.set(k, *v);
            }
            e.set("args", args);
        }
        events.push(e);
    }
    let mut doc = Json::object();
    doc.set("traceEvents", events);
    doc.set("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::{event, ConstantWorkload, DeviceConfig};

    #[test]
    fn wrappers_forward_without_changing_results() {
        let run = |traced: bool| {
            let mut device = Device::new(DeviceConfig::nexus6());
            let mut app = ConstantWorkload::new("toy", 0.4, 1.5, 1.0);
            let mut gov = asgov_governors::AdrenoTz::default();
            if traced {
                let mut w = TracedWorkload::new(&mut app);
                let mut g = TracedPolicy::new(&mut gov);
                let (report, engine) =
                    event::run_counted(&mut device, &mut w, &mut [&mut g], 2_000);
                assert_eq!(g.ticks, engine.events);
                assert_eq!(w.demand_calls, engine.events);
                (report, engine)
            } else {
                event::run_counted(&mut device, &mut app, &mut [&mut gov], 2_000)
            }
        };
        let (plain, plain_engine) = run(false);
        let (traced, traced_engine) = run(true);
        assert_eq!(plain, traced);
        assert_eq!(plain.energy_j.to_bits(), traced.energy_j.to_bits());
        assert_eq!(plain_engine, traced_engine);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_json_parser() {
        let spans = [Span {
            name: "shard-epoch",
            cat: "fleet",
            tid: 1,
            start_ns: 1_500,
            dur_ns: 2_000_000,
            args: vec![("shard", 3.0)],
        }];
        let text =
            chrome_trace(&spans, "fleet-exact", &["pool worker 0", "pool worker 1"]).to_string();
        let back = Json::parse(&text).expect("valid JSON");
        let events = back
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4);
        let slice = &events[3];
        assert_eq!(slice.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(slice.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(slice.get("dur").and_then(Json::as_f64), Some(2_000.0));
    }
}
