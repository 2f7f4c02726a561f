//! The Stage-2 deployment recipe (paper §IV–V), written once: the
//! offline profile and target `R_def` drive an [`EnergyController`]
//! beside the stock governors it does not replace. [`PolicySpec`] holds
//! what callers vary and owns the rest — the stock governors per
//! [`ControlMode`], the tick order, the controller build and the
//! [`Supervisor`] factory — so every caller deploys the same stack.

use crate::{ControlMode, ControllerBuilder, EnergyController, Supervisor, SupervisorConfig};
use asgov_governors::{AdrenoTz, CpubwHwmon};
use asgov_profiler::ProfileTable;
use asgov_soc::sim::RunReport;
use asgov_soc::{event, Device, Policy, Workload};
use std::fmt;

/// How far below the target the controller's setpoint sits (see
/// [`ControllerBuilder::target_margin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMargin {
    /// 1 % below: PMU noise needs the slack, or it pins the regulator
    /// against the profile's most expensive corner.
    OnePercent,
    /// At the target.
    Zero,
}

impl TargetMargin {
    /// The Table III rule: no margin for deadline-based (batch) apps,
    /// whose figure of merit is completion time that any slack
    /// lengthens; 1 % for rate-based apps.
    pub fn for_app(deadline_based: bool) -> Self {
        if deadline_based {
            Self::Zero
        } else {
            Self::OnePercent
        }
    }
}

/// One controller deployment. The controller's perf-noise seed and the
/// [`SupervisorConfig`] are arguments of the stack constructors.
#[derive(Debug, Clone)]
pub struct PolicySpec {
    /// Offline `(frequency, bandwidth)` profile.
    pub profile: ProfileTable,
    /// Performance target `r`, GIPS (the measured default `R_def`).
    pub target_gips: f64,
    /// Setpoint margin below the target.
    pub margin: TargetMargin,
    /// Coordinated or CPU-only control.
    pub mode: ControlMode,
}

impl PolicySpec {
    /// Coordinated control of `profile` toward `target_gips`, 1 % margin.
    pub fn new(profile: ProfileTable, target_gips: f64) -> Self {
        Self {
            profile,
            target_gips,
            margin: TargetMargin::OnePercent,
            mode: ControlMode::Coordinated,
        }
    }

    /// This spec's controller builder with perf-noise `seed`; a caller
    /// varying one more knob sets it here and passes the build to
    /// [`PolicySpec::stack_with`].
    pub fn builder(&self, seed: u64) -> ControllerBuilder {
        let margin = match self.margin {
            TargetMargin::OnePercent => 0.01,
            TargetMargin::Zero => 0.0,
        };
        ControllerBuilder::new(self.profile.clone())
            .target_gips(self.target_gips)
            .target_margin(margin)
            .mode(self.mode)
            .seed(seed)
    }

    /// This spec's controller, built with perf-noise `seed`, in its stack.
    pub fn stack(&self, seed: u64) -> ControllerStack<EnergyController> {
        self.stack_with(self.builder(seed).build())
    }

    /// `controller` in this spec's stack.
    pub fn stack_with<P: Policy>(&self, controller: P) -> ControllerStack<P> {
        ControllerStack {
            stock: stock_governors(self.mode),
            controller,
        }
    }

    /// A [`Supervisor`] in this spec's stack; it builds the controller
    /// with perf-noise `seed` at start and at every restart.
    pub fn supervised(
        self,
        seed: u64,
        config: SupervisorConfig,
    ) -> ControllerStack<Supervisor<EnergyController>> {
        let stock = stock_governors(self.mode);
        let controller = Supervisor::new(move || self.builder(seed).build(), config);
        ControllerStack { stock, controller }
    }
}

/// The stock governors beside the controller, in tick order. The GPU is
/// outside the paper's controlled configuration, so `msm-adreno-tz`
/// runs in every mode; CPU-only control (§V-D) also leaves the memory
/// bandwidth to `cpubw_hwmon`, which ticks first.
fn stock_governors(mode: ControlMode) -> Vec<Box<dyn Policy>> {
    match mode {
        ControlMode::Coordinated => vec![Box::new(AdrenoTz::default())],
        ControlMode::CpuOnly => vec![
            Box::new(CpubwHwmon::default()),
            Box::new(AdrenoTz::default()),
        ],
    }
}

/// A deployed stack: the stock governors, then the controller (or its
/// supervisor), which stays reachable after a run for its health,
/// migration snapshot and restart counters.
pub struct ControllerStack<P> {
    stock: Vec<Box<dyn Policy>>,
    /// The controller policy, ticked after the stock governors.
    pub controller: P,
}

impl<P: fmt::Debug> fmt::Debug for ControllerStack<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControllerStack")
            .field("controller", &self.controller)
            .finish_non_exhaustive()
    }
}

impl<P: Policy> ControllerStack<P> {
    /// Every policy in tick order, for callers that drive the run loop.
    pub fn policies(&mut self) -> Vec<&mut dyn Policy> {
        let mut policies: Vec<&mut dyn Policy> = self
            .stock
            .iter_mut()
            .map(|p| p.as_mut() as &mut dyn Policy)
            .collect();
        policies.push(&mut self.controller);
        policies
    }

    /// [`event::run`] `workload` on `device` under the stack.
    pub fn run(
        &mut self,
        device: &mut Device,
        workload: &mut dyn Workload,
        duration_ms: u64,
    ) -> RunReport {
        event::run(device, workload, &mut self.policies(), duration_ms)
    }
}

impl<P: Policy + 'static> ControllerStack<P> {
    /// The stack as owned policies in tick order, for per-run policy
    /// factories such as `asgov_profiler::measure_fixed`.
    pub fn into_policies(self) -> Vec<Box<dyn Policy>> {
        let mut policies = self.stock;
        policies.push(Box::new(self.controller));
        policies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_profiler::{Config, ProfileEntry};
    use asgov_soc::{BwIndex, FreqIndex};

    fn spec(mode: ControlMode) -> PolicySpec {
        let entry = |f: usize, speedup: f64, power_w: f64| ProfileEntry {
            config: Config::new(FreqIndex(f), BwIndex(0)),
            speedup,
            power_w,
            measured: true,
        };
        let profile = ProfileTable {
            app: "t".into(),
            base_gips: 0.4,
            entries: vec![entry(0, 1.0, 1.0), entry(8, 2.0, 2.0)],
        };
        PolicySpec {
            mode,
            ..PolicySpec::new(profile, 0.4)
        }
    }

    #[test]
    fn stock_governors_tick_before_the_controller_in_mode_order() {
        let names = |mut s: ControllerStack<EnergyController>| -> Vec<String> {
            s.policies().iter().map(|p| p.name().to_string()).collect()
        };
        assert_eq!(
            names(spec(ControlMode::Coordinated).stack(1)),
            ["msm-adreno-tz", "asgov"]
        );
        assert_eq!(
            names(spec(ControlMode::CpuOnly).stack(1)),
            ["cpubw_hwmon", "msm-adreno-tz", "asgov-cpu-only"]
        );
        assert_eq!(spec(ControlMode::CpuOnly).stack(1).into_policies().len(), 3);
    }

    #[test]
    fn margin_rule_scales_the_setpoint() {
        let one = spec(ControlMode::Coordinated).stack(1).controller;
        let zero = PolicySpec {
            margin: TargetMargin::for_app(true),
            ..spec(ControlMode::Coordinated)
        }
        .stack(1)
        .controller;
        assert_eq!(TargetMargin::for_app(false), TargetMargin::OnePercent);
        assert_eq!(zero.target_gips(), 0.4);
        assert_eq!(one.target_gips(), 0.4 * (1.0 - 0.01));
    }
}
