//! Device-level actuation events: what the simulated device tells the
//! sink each time a DVFS point or a governor changes.

use crate::record::CycleRecord;
use crate::sink::TraceSink;
use std::fmt::{self, Write as _};

/// One device actuation, with its payload. Indices are 0-based ladder
/// positions; [`Display`](fmt::Display) renders them in the paper's
/// 1-based numbering as one `kind,from,to` CSV row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceEvent<'a> {
    /// CPU frequency changed (old index, new index).
    CpuFreq(usize, usize),
    /// GPU frequency changed (old index, new index).
    GpuFreq(usize, usize),
    /// Memory bandwidth changed (old index, new index).
    MemBw(usize, usize),
    /// A governor was (re)selected for a subsystem.
    Governor {
        /// The subsystem whose governor was selected.
        subsystem: Subsystem,
        /// The newly selected governor.
        name: &'a str,
    },
    /// A fault window killed the controller process.
    ControllerKill,
}

/// The kernel subsystems whose governor the device switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// CPU frequency (`cpufreq`).
    Cpufreq,
    /// Memory-bus bandwidth (`devfreq`).
    Devfreq,
    /// GPU frequency (the `kgsl` driver's devfreq governor).
    Kgsl,
}

impl Subsystem {
    /// The kernel's name for the subsystem.
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Cpufreq => "cpufreq",
            Subsystem::Devfreq => "devfreq",
            Subsystem::Kgsl => "kgsl",
        }
    }
}

impl DeviceEvent<'_> {
    /// Stable kind name (`"cpu-freq"`, `"cpufreq-governor"`, …), one
    /// per variant and governor subsystem.
    pub fn kind(&self) -> &'static str {
        match self {
            DeviceEvent::CpuFreq(..) => "cpu-freq",
            DeviceEvent::GpuFreq(..) => "gpu-freq",
            DeviceEvent::MemBw(..) => "mem-bw",
            DeviceEvent::Governor {
                subsystem: Subsystem::Cpufreq,
                ..
            } => "cpufreq-governor",
            DeviceEvent::Governor {
                subsystem: Subsystem::Devfreq,
                ..
            } => "devfreq-governor",
            DeviceEvent::Governor {
                subsystem: Subsystem::Kgsl,
                ..
            } => "kgsl-governor",
            DeviceEvent::ControllerKill => "controller-kill",
        }
    }
}

impl fmt::Display for DeviceEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceEvent::CpuFreq(a, b) => write!(f, "cpufreq,f{},f{}", a + 1, b + 1),
            DeviceEvent::GpuFreq(a, b) => write!(f, "gpufreq,g{},g{}", a + 1, b + 1),
            DeviceEvent::MemBw(a, b) => write!(f, "membw,bw{},bw{}", a + 1, b + 1),
            DeviceEvent::Governor { subsystem, name } => {
                write!(f, "governor,{},{name}", subsystem.as_str())
            }
            DeviceEvent::ControllerKill => f.write_str("kill,controller,"),
        }
    }
}

/// A sink that keeps every device event as a `t_ms,kind,from,to` CSV
/// row and ignores control cycles. Unbounded: meant for runs of
/// minutes, not for fleets.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    rows: String,
}

impl EventLog {
    /// The events so far as CSV, header first.
    pub fn to_csv(&self) -> String {
        format!("t_ms,kind,from,to\n{}", self.rows)
    }
}

impl TraceSink for EventLog {
    fn record_cycle(&mut self, _rec: &CycleRecord) {}

    fn device_event(&mut self, t_ms: u64, event: DeviceEvent<'_>) {
        let _ = writeln!(self.rows, "{t_ms},{event}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_paper_numbering() {
        let mut log = EventLog::default();
        log.device_event(10, DeviceEvent::CpuFreq(0, 9));
        log.device_event(15, DeviceEvent::MemBw(2, 0));
        log.device_event(
            20,
            DeviceEvent::Governor {
                subsystem: Subsystem::Cpufreq,
                name: "userspace",
            },
        );
        log.device_event(30, DeviceEvent::GpuFreq(1, 3));
        assert_eq!(
            log.to_csv(),
            "t_ms,kind,from,to\n10,cpufreq,f1,f10\n15,membw,bw3,bw1\n\
             20,governor,cpufreq,userspace\n30,gpufreq,g2,g4\n"
        );
    }

    #[test]
    fn kinds_are_the_seven_stable_names() {
        let gov = |subsystem| DeviceEvent::Governor {
            subsystem,
            name: "interactive",
        };
        let kinds: Vec<&str> = [
            DeviceEvent::CpuFreq(0, 1),
            DeviceEvent::GpuFreq(0, 1),
            DeviceEvent::MemBw(0, 1),
            gov(Subsystem::Cpufreq),
            gov(Subsystem::Devfreq),
            gov(Subsystem::Kgsl),
            DeviceEvent::ControllerKill,
        ]
        .iter()
        .map(DeviceEvent::kind)
        .collect();
        assert_eq!(
            kinds,
            [
                "cpu-freq",
                "gpu-freq",
                "mem-bw",
                "cpufreq-governor",
                "devfreq-governor",
                "kgsl-governor",
                "controller-kill"
            ]
        );
    }
}
