//! Traced replay of a fleet shard-epoch.
//!
//! [`replay_shard_epoch`] performs the same steps as
//! `asgov_fleet::shard::run_epoch_into`, through the same public
//! constructors and in the same order of random draws, but times each
//! call from outside and runs the event loop over forwarding wrappers.
//! Its folded statistics must equal `run_epoch_into`'s bit for bit;
//! [`same_stats`] is the check, and the traced pass applies it to every
//! shard-epoch.

use crate::trace::{
    elapsed_ns, since_ns, CycleCounter, Layers, Span, TracedPolicy, TracedWorkload,
};
use asgov_core::{ControllerBuilder, Supervisor, SupervisorConfig};
use asgov_fleet::spec::build_app;
use asgov_fleet::{
    app_stream, fault_stream, DeviceSpec, EpochStats, FleetConfig, FleetError, PolicyStore,
    ShardState,
};
use asgov_governors::AdrenoTz;
use asgov_soc::{event, Device, DeviceConfig, Workload as _};
use asgov_util::Rng;
use asgov_workloads::BackgroundLoad;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The supervision tuning fleet devices run under (the values of the
/// fleet's own `supervisor_config`).
fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        max_restarts: 8,
        backoff_base_ms: 50,
        backoff_max_ms: 400,
        checkpoint_period_ms: 2_000,
        warm: true,
    }
}

/// Every how many devices of a shard-epoch a device-epoch's child
/// slices go into the Chrome trace (the per-layer totals cover every
/// device regardless).
const SPAN_SAMPLE_EVERY: u64 = 16;

/// Replay one epoch of `state`'s shard with every layer call timed.
/// Returns the epoch's statistics and the layer totals, and appends
/// sampled device-epoch slices (track `tid`) to `spans`.
///
/// # Errors
///
/// As `run_epoch_into`: a device signature missing from `store`.
pub fn replay_shard_epoch(
    cfg: &FleetConfig,
    store: &PolicyStore,
    state: &mut ShardState,
    origin: Instant,
    tid: usize,
    spans: &mut Vec<Span>,
) -> Result<(EpochStats, Layers), FleetError> {
    let replay_start = Instant::now();
    let (start, count) = cfg.shard_range(state.shard);
    let epoch = state.next_epoch;
    let mut stats = EpochStats::default();
    let mut layers = Layers::default();

    let mut slices: Vec<(&'static str, &'static str, Instant, u64)> = Vec::with_capacity(8);
    for i in 0..count {
        let t_device = Instant::now();
        slices.clear();
        let device_id = start + i;
        let spec = DeviceSpec::derive(cfg.seed, device_id);
        let epoch_seed = spec.epoch_seed(cfg.seed, epoch);
        let mut rng = Rng::seed_from_u64(epoch_seed);
        if rng.gen_bool(cfg.offline_rate) {
            stats.offline += 1;
            layers.fleet_derive_ns += elapsed_ns(t_device);
            continue;
        }
        let sig = spec.signature();
        let policy = store
            .get(&sig)
            .ok_or_else(|| FleetError::UnknownSignature(sig.clone()))?;
        layers.fleet_derive_ns += elapsed_ns(t_device);

        let t = Instant::now();
        let built = build_app(
            spec.app,
            BackgroundLoad::with_level(spec.load, rng.next_u64()),
            cfg.demand_quantum_ms,
        );
        let ns = elapsed_ns(t);
        layers.build_app_ns += ns;
        slices.push(("build_app", "workloads", t, ns));
        let Some(mut app) = built else {
            return Err(FleetError::UnknownSignature(sig));
        };

        let t = Instant::now();
        let mut device = Device::new(DeviceConfig::nexus6().with_seed(rng.next_u64()));
        if let Some(injector) = spec.fault_injector(cfg.epoch_ms, rng.next_u64()) {
            device.install_faults(injector);
        }
        let ns = elapsed_ns(t);
        layers.device_new_ns += ns;
        slices.push(("Device::new", "soc", t, ns));
        let counter = Rc::new(RefCell::new(CycleCounter::default()));
        device.install_obs_sink(counter.clone());

        let t = Instant::now();
        let factory_profile = policy.profile.clone();
        let target = policy.target_gips;
        let mut supervisor = Supervisor::new(
            move || {
                ControllerBuilder::new(factory_profile.clone())
                    .target_gips(target)
                    .seed(epoch_seed)
                    .build()
            },
            supervisor_config(),
        );
        let ns = elapsed_ns(t);
        layers.supervisor_new_ns += ns;
        slices.push(("Supervisor::new", "core", t, ns));

        let t = Instant::now();
        if let Some(snapshot) = state.snapshots.get_mut(i as usize).and_then(Option::take) {
            supervisor.migrate_in(snapshot);
        }
        let ns = elapsed_ns(t);
        layers.migrate_in_ns += ns;
        slices.push(("migrate_in", "core", t, ns));

        let mut gpu_gov = AdrenoTz::default();
        app.reset();
        let t = Instant::now();
        let (report, engine) = {
            let mut w = TracedWorkload::new(&mut app);
            let mut g = TracedPolicy::new(&mut gpu_gov);
            let mut c = TracedPolicy::new(&mut supervisor);
            let out = event::run_counted(&mut device, &mut w, &mut [&mut g, &mut c], cfg.epoch_ms);
            layers.add_loop(&w, &[&g], &[&c]);
            out
        };
        let ns = elapsed_ns(t);
        layers.event_loop_ns += ns;
        slices.push(("event::run_counted", "soc", t, ns));
        layers.events += engine.events;
        layers.simulated_ms += engine.simulated_ms;
        layers.cycles += counter.borrow().cycles;
        layers.controlled_runs += 1;

        let t = Instant::now();
        let out = supervisor.migrate_out(device.now_ms());
        if let Some(snap) = &out {
            layers.snapshot_bytes += snap.len() as u64;
            layers.snapshots += 1;
        }
        if let Some(slot) = state.snapshots.get_mut(i as usize) {
            *slot = out;
        }
        let ns = elapsed_ns(t);
        layers.migrate_out_ns += ns;
        slices.push(("migrate_out", "core", t, ns));

        let t = Instant::now();
        stats.online += 1;
        stats.energy_j += report.energy_j;
        stats.restarts += supervisor.restarts();
        stats.warm_restarts += supervisor.warm_restarts();
        stats.warm_migrations += supervisor.warm_migrations();
        stats.snapshot_errors += supervisor.snapshot_errors();
        stats.downtime_ms += supervisor.downtime_ms();
        layers.fleet_derive_ns += elapsed_ns(t);

        let t = Instant::now();
        let base = policy.baseline_energy_j;
        if base.is_finite() && base > 0.0 {
            let savings = (base - report.energy_j) / base * 100.0;
            stats.savings.record(app_stream(spec.app_idx), savings);
            stats
                .savings
                .record(fault_stream(spec.fault_class), savings);
        } else {
            stats.savings.record_excluded(app_stream(spec.app_idx));
            stats
                .savings
                .record_excluded(fault_stream(spec.fault_class));
        }
        let ns = elapsed_ns(t);
        layers.stats_record_ns += ns;
        slices.push(("FleetStats::record", "obs", t, ns));
        layers.device_epochs += 1;

        if i % SPAN_SAMPLE_EVERY == 0 {
            spans.push(Span {
                name: "device-epoch",
                cat: "fleet",
                tid,
                start_ns: since_ns(origin, t_device),
                dur_ns: elapsed_ns(t_device),
                args: vec![
                    ("device_id", device_id as f64),
                    ("events", engine.events as f64),
                    ("energy_j", report.energy_j),
                ],
            });
            for &(name, cat, at, dur_ns) in &slices {
                spans.push(Span {
                    name,
                    cat,
                    tid,
                    start_ns: since_ns(origin, at),
                    dur_ns,
                    args: Vec::new(),
                });
            }
        }
    }

    state.next_epoch = epoch + 1;
    layers.replay_ns += elapsed_ns(replay_start);
    Ok((stats, layers))
}

/// Whether two shard-epoch results are identical bit for bit.
pub fn same_stats(a: &EpochStats, b: &EpochStats) -> bool {
    a.online == b.online
        && a.offline == b.offline
        && a.energy_j.to_bits() == b.energy_j.to_bits()
        && a.restarts == b.restarts
        && a.warm_restarts == b.warm_restarts
        && a.warm_migrations == b.warm_migrations
        && a.snapshot_errors == b.snapshot_errors
        && a.downtime_ms == b.downtime_ms
        && a.savings.serialize_words() == b.savings.serialize_words()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_fleet::shard::run_epoch_into;

    #[test]
    fn replay_matches_run_epoch_into_bit_for_bit() {
        for quantum in [1, 20] {
            let cfg = FleetConfig {
                devices: 24,
                shards: 2,
                epochs: 2,
                epoch_ms: 2_000,
                threads: 1,
                demand_quantum_ms: quantum,
                ..FleetConfig::smoke()
            };
            let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
            let mut plain = ShardState::new(&cfg, 1);
            let mut traced = plain.clone();
            let mut spans = Vec::new();
            for _ in 0..cfg.epochs {
                let a = run_epoch_into(&cfg, &store, &mut plain).expect("plain epoch");
                let (b, layers) =
                    replay_shard_epoch(&cfg, &store, &mut traced, Instant::now(), 0, &mut spans)
                        .expect("traced epoch");
                assert!(same_stats(&a, &b), "quantum {quantum}");
                assert_eq!(plain, traced, "quantum {quantum}");
                assert_eq!(layers.device_epochs, a.online);
                assert!(layers.events >= layers.device_epochs);
            }
            assert!(!spans.is_empty());
        }
    }
}
