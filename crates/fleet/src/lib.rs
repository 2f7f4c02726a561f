//! # asgov-fleet — fleet-scale controller simulation
//!
//! Spawns N simulated devices with distinct apps, seeds and fault
//! plans drawn deterministically from a fleet seed, and runs
//! supervised controllers over them in sharded epochs (ROADMAP
//! item 2, DESIGN.md §11–§12).
//!
//! Structure:
//! - [`FleetConfig`] / [`DeviceSpec`] — run description and the pure
//!   derivation of per-device identity ([`spec`]).
//! - [`PolicyStore`] — profiles and baselines resolved once per
//!   `(app, load)` signature and shared by every device ([`store`]).
//! - [`ShardState`] / [`shard::run_epoch_into`] — the per-shard epoch
//!   engine with warm controller migration ([`shard`]).
//! - [`FleetReport`] — per-app / per-fault-class savings
//!   distributions over a columnar `FleetStats` aggregator
//!   ([`report`]).
//! - [`Fleet`] — the epoch engine. [`Fleet::step`] advances every
//!   shard one epoch; [`Fleet::run`] advances every shard through all
//!   remaining epochs. Both run one job per shard on a persistent
//!   `asgov_util::par::WorkerPool` — the job advances its shard in
//!   place and returns one `EpochStats` per epoch — and then fold the
//!   statistics epoch-major, shard-minor.
//!
//! Determinism contract: the aggregate report is **bit-identical**
//! for any thread count, for any split of the run into `step` and
//! `run` calls, and across a mid-run checkpoint/restore — every
//! random draw derives from `(seed, device_id, epoch)`, the savings
//! columns merge exactly (integer fixed-point), and the one
//! floating-point total folds in a fixed (epoch-major, shard-minor)
//! order. The differential suite in `tests/fleet_determinism.rs` pins
//! all three properties.

pub mod report;
pub mod shard;
pub mod spec;
pub mod store;

pub use report::{app_stream, fault_stream, savings_agg, EpochStats, FleetReport};
pub use shard::ShardState;
pub use spec::{DeviceSpec, FaultClass, FleetConfig, FleetError};
pub use store::{PolicyStore, StoredPolicy};

use asgov_core::persist::{ensure, ensure_config, require};
use asgov_core::{SnapshotError, SnapshotReader, SnapshotWriter};
use asgov_obs::FleetStats;
use asgov_util::par::WorkerPool;
use std::sync::{Mutex, PoisonError};

/// A fleet run in progress: shard states, the accumulated report, and
/// the persistent worker pool the epoch engine fans out over.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<ShardState>,
    report: FleetReport,
    pool: WorkerPool,
}

impl Fleet {
    /// Set up a fleet run (epoch 0, no controller state yet). Spawns
    /// the worker pool once; every `step` and `run` reuses it.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadConfig`] when `config` violates an invariant.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        config.validate()?;
        let shards: Vec<ShardState> = (0..config.shards)
            .map(|s| ShardState::new(&config, s))
            .collect();
        let threads = store::resolve_threads(config.threads, shards.len());
        Ok(Self {
            config,
            shards,
            report: FleetReport::new(config),
            pool: WorkerPool::new(threads),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> u64 {
        self.report.epochs_run
    }

    /// `true` once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.report.epochs_run >= self.config.epochs
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// Run one epoch: every shard advances one epoch in parallel, then
    /// the shard statistics merge into the report **in shard order**.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSignature`] when `store` lacks a roster
    /// signature, checked before any shard runs, so the fleet is left
    /// unchanged.
    pub fn step(&mut self, store: &PolicyStore) -> Result<(), FleetError> {
        let epochs = self.remaining_epochs().min(1);
        self.advance(store, epochs)
    }

    /// Run all remaining epochs and return the final report. The report
    /// is bit-identical to running [`Fleet::step`] in a loop.
    ///
    /// # Errors
    ///
    /// As [`Fleet::step`]: the fleet is left unchanged on error.
    pub fn run(&mut self, store: &PolicyStore) -> Result<&FleetReport, FleetError> {
        self.advance(store, self.remaining_epochs())?;
        Ok(&self.report)
    }

    fn remaining_epochs(&self) -> u64 {
        self.config.epochs.saturating_sub(self.report.epochs_run)
    }

    /// The one epoch engine behind [`Fleet::step`] and [`Fleet::run`]:
    /// one pool job per shard runs `epochs` epochs of that shard in
    /// place, then the per-epoch statistics fold epoch-major,
    /// shard-minor — per epoch, shards merge in shard order into a
    /// fresh accumulator that then merges into the totals — so the
    /// `f64` energy total sees the same additions for any split of the
    /// run into `advance` calls.
    fn advance(&mut self, store: &PolicyStore, epochs: u64) -> Result<(), FleetError> {
        if epochs == 0 {
            return Ok(());
        }
        // A missing signature is the only error `run_epoch_into` can
        // reach; refusing it up front keeps the fleet unchanged.
        for (sig, _, _) in spec::roster_signatures() {
            if store.get(&sig).is_none() {
                return Err(FleetError::UnknownSignature(sig));
            }
        }
        let config = self.config;
        // Each job locks only its own slot, so the locks never contend;
        // they exist to hand a `&mut ShardState` to a `Fn` job.
        let slots: Vec<Mutex<ShardState>> = self.shards.drain(..).map(Mutex::new).collect();
        let results = self.pool.ordered_map(slots.len(), |s| {
            let Some(slot) = slots.get(s) else {
                return Err(FleetError::BadConfig(
                    "shard index out of range in fan-out".into(),
                ));
            };
            let mut state = slot.lock().unwrap_or_else(PoisonError::into_inner);
            (0..epochs)
                .map(|_| shard::run_epoch_into(&config, store, &mut state))
                .collect::<Result<Vec<EpochStats>, FleetError>>()
        });
        self.shards = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();

        let mut per_shard = Vec::with_capacity(results.len());
        for r in results {
            per_shard.push(r?.into_iter());
        }
        for _ in 0..epochs {
            let mut merged = EpochStats::default();
            for stats in per_shard.iter_mut().filter_map(Iterator::next) {
                merged.merge(&stats).map_err(|_| FleetError::StatsLayout)?;
            }
            self.report
                .totals
                .merge(&merged)
                .map_err(|_| FleetError::StatsLayout)?;
            self.report.epochs_run += 1;
        }
        Ok(())
    }

    /// Encode the whole run — shard states *and* the report so far —
    /// as one framed snapshot, suitable for warm-migrating a mid-run
    /// fleet to another process.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] if any component overflows the u32
    /// length prefix.
    pub fn checkpoint(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.config.devices);
        w.put_u64(self.config.shards);
        w.put_u64(self.config.epochs);
        w.put_u64(self.config.epoch_ms);
        w.put_u64(self.config.seed);
        w.put_u64(self.config.demand_quantum_ms);
        w.put_u64(self.report.epochs_run);
        encode_stats(&mut w, &self.report.totals)?;
        for shard in &self.shards {
            w.put_bytes(&shard.snapshot_bytes()?)?;
        }
        w.finish()
    }

    /// Restore a fleet from a [`Fleet::checkpoint`] frame, resuming at
    /// the epoch the checkpoint was taken at. The frame must match
    /// `config`'s identity fields (devices, shards, epochs, epoch_ms,
    /// seed, demand_quantum_ms); `threads` is free to differ — it
    /// cannot change results.
    ///
    /// # Errors
    ///
    /// [`FleetError::Snapshot`] on damage or a config mismatch,
    /// [`FleetError::BadConfig`] when `config` itself is invalid.
    pub fn restore(config: FleetConfig, bytes: &[u8]) -> Result<Self, FleetError> {
        config.validate()?;
        let mut r = SnapshotReader::new(bytes)?;
        // Per-field identity checks: an intact checkpoint taken under a
        // different run configuration reports *which* field the operator
        // changed (`ConfigMismatch`), not "corrupt".
        ensure_config(r.take_u64()? == config.devices, "devices")?;
        ensure_config(r.take_u64()? == config.shards, "shards")?;
        ensure_config(r.take_u64()? == config.epochs, "epochs")?;
        ensure_config(r.take_u64()? == config.epoch_ms, "epoch_ms")?;
        ensure_config(r.take_u64()? == config.seed, "seed")?;
        ensure_config(
            r.take_u64()? == config.demand_quantum_ms,
            "demand_quantum_ms",
        )?;
        let epochs_run = r.take_u64()?;
        ensure(epochs_run <= config.epochs)?;
        let totals = decode_stats(&mut r)?;
        let mut shards = Vec::with_capacity(config.shards as usize);
        for _ in 0..config.shards {
            let frame = r.take_bytes()?;
            let state = ShardState::restore_bytes(&config, frame)?;
            // Checkpoints are taken at epoch boundaries: every shard
            // must sit at exactly the fleet's resume epoch, or the
            // epoch-major fold would mix epochs.
            ensure(state.next_epoch == epochs_run)?;
            shards.push(state);
        }
        r.finish()?;
        let mut report = FleetReport::new(config);
        report.epochs_run = epochs_run;
        report.totals = totals;
        let threads = store::resolve_threads(config.threads, shards.len());
        Ok(Self {
            config,
            shards,
            report,
            pool: WorkerPool::new(threads),
        })
    }

    /// Borrow the shard states (diagnostics, tests).
    pub fn shards(&self) -> &[ShardState] {
        &self.shards
    }
}

fn encode_stats(w: &mut SnapshotWriter, s: &EpochStats) -> Result<(), SnapshotError> {
    w.put_u64(s.online);
    w.put_u64(s.offline);
    w.put_f64(s.energy_j);
    w.put_u64(s.restarts);
    w.put_u64(s.warm_restarts);
    w.put_u64(s.warm_migrations);
    w.put_u64(s.snapshot_errors);
    w.put_u64(s.downtime_ms);
    let words = s.savings.serialize_words();
    w.put_u64(words.len() as u64);
    for word in words {
        w.put_u64(word);
    }
    Ok(())
}

fn decode_stats(r: &mut SnapshotReader) -> Result<EpochStats, SnapshotError> {
    let mut s = EpochStats {
        online: r.take_u64()?,
        offline: r.take_u64()?,
        energy_j: r.take_f64()?,
        restarts: r.take_u64()?,
        warm_restarts: r.take_u64()?,
        warm_migrations: r.take_u64()?,
        snapshot_errors: r.take_u64()?,
        downtime_ms: r.take_u64()?,
        ..EpochStats::default()
    };
    ensure(s.energy_j.is_finite())?;
    let nwords = r.take_u64()?;
    ensure(nwords <= 1 << 22)?;
    let mut words = Vec::with_capacity(nwords as usize);
    for _ in 0..nwords {
        words.push(r.take_u64()?);
    }
    let savings = require(FleetStats::deserialize_words(&words))?;
    // The decoded aggregator must carry the fleet's fixed stream
    // layout, or later merges would fail far from the codec.
    let mut probe = report::savings_agg();
    ensure(probe.merge(&savings).is_ok())?;
    s.savings = savings;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_invalid_configs() {
        let bad = FleetConfig {
            devices: 0,
            ..FleetConfig::smoke()
        };
        assert!(matches!(Fleet::new(bad), Err(FleetError::BadConfig(_))));
    }

    #[test]
    fn a_missing_signature_is_refused_before_any_shard_runs() {
        let cfg = FleetConfig {
            devices: 16,
            shards: 2,
            epochs: 2,
            epoch_ms: 2_000,
            ..FleetConfig::smoke()
        };
        let store = PolicyStore::resolve(&cfg, &asgov_soc::DeviceConfig::nexus6());
        let mut fleet = Fleet::new(cfg).expect("valid config");
        fleet.step(&store).expect("epoch 0");
        let before = fleet.shards().to_vec();
        // Only the last device's signature is missing, so a shard would
        // advance the devices ahead of it before failing on it.
        let missing = DeviceSpec::derive(cfg.seed, cfg.devices - 1).signature();
        match fleet.run(&store.without(&missing)) {
            Err(FleetError::UnknownSignature(sig)) => assert_eq!(sig, missing),
            other => panic!("expected UnknownSignature, got {other:?}"),
        }
        assert_eq!(fleet.shards(), before.as_slice(), "shard states untouched");
        assert_eq!(fleet.epochs_run(), 1, "no epoch counted");
    }

    #[test]
    fn fresh_checkpoint_round_trips() {
        let cfg = FleetConfig {
            devices: 12,
            shards: 4,
            ..FleetConfig::smoke()
        };
        let fleet = Fleet::new(cfg).expect("valid config");
        let bytes = fleet.checkpoint().expect("small frame");
        let back = Fleet::restore(cfg, &bytes).expect("clean frame");
        assert_eq!(back.epochs_run(), 0);
        assert_eq!(back.shards(), fleet.shards());
    }

    #[test]
    fn restore_rejects_mismatched_identity() {
        let cfg = FleetConfig {
            devices: 12,
            shards: 4,
            ..FleetConfig::smoke()
        };
        let fleet = Fleet::new(cfg).expect("valid config");
        let bytes = fleet.checkpoint().expect("small frame");
        // An intact frame restored under a changed parameter must name
        // the mismatching field — not claim the checkpoint is damaged.
        let field_of = |cfg: FleetConfig| match Fleet::restore(cfg, &bytes) {
            Err(FleetError::Snapshot(SnapshotError::ConfigMismatch { field })) => field,
            other => panic!("expected ConfigMismatch, got {other:?}"),
        };
        assert_eq!(field_of(FleetConfig { seed: 99, ..cfg }), "seed");
        assert_eq!(
            field_of(FleetConfig {
                demand_quantum_ms: 5,
                ..cfg
            }),
            "demand_quantum_ms"
        );
        // Actual damage still reads as corruption, not a config drift.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            Fleet::restore(cfg, &bad),
            Err(FleetError::Snapshot(
                SnapshotError::Corrupt | SnapshotError::Truncated
            ))
        ));
    }
}
