//! Virtual sysfs tree.
//!
//! The paper's controller actuates the Nexus 6 exclusively by writing
//! sysfs files: it first sets the `cpufreq` and `devfreq` governors to
//! `userspace`, then writes the desired frequency and bandwidth. This
//! module reproduces that interface — including the kernel's semantics
//! that `scaling_setspeed` is rejected unless the `userspace` governor is
//! active.
//!
//! # Supported paths
//!
//! | path | r/w | meaning |
//! |------|-----|---------|
//! | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor` | rw | cpufreq governor |
//! | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed` | rw | CPU frequency, kHz (userspace only) |
//! | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq` | r | current CPU frequency, kHz |
//! | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies` | r | ladder, kHz |
//! | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_governors` | r | governor names |
//! | `/sys/devices/system/cpu/cpu0/cpufreq/stats/time_in_state` | r | `khz ms` lines |
//! | `/sys/class/devfreq/qcom,cpubw/governor` | rw | devfreq governor |
//! | `/sys/class/devfreq/qcom,cpubw/userspace/set_freq` | rw | bandwidth, MBps (userspace only) |
//! | `/sys/class/devfreq/qcom,cpubw/cur_freq` | r | current bandwidth, MBps |
//! | `/sys/class/devfreq/qcom,cpubw/available_frequencies` | r | ladder, MBps |

use crate::device::Device;
use crate::error::SocError;

/// cpufreq directory prefix (all four cores share one policy).
pub const CPUFREQ: &str = "/sys/devices/system/cpu/cpu0/cpufreq";
/// devfreq directory prefix for the CPU-to-memory bus.
pub const DEVFREQ: &str = "/sys/class/devfreq/qcom,cpubw";
/// kgsl directory prefix for the GPU.
pub const KGSL: &str = "/sys/class/kgsl/kgsl-3d0";

/// Governors selectable through the cpufreq `scaling_governor` file.
pub const CPU_GOVERNORS: [&str; 6] = [
    "interactive",
    "ondemand",
    "conservative",
    "userspace",
    "performance",
    "powersave",
];

/// Governors selectable through the devfreq `governor` file.
pub const BW_GOVERNORS: [&str; 4] = ["cpubw_hwmon", "userspace", "performance", "powersave"];

/// Governors selectable for the GPU.
pub const GPU_GOVERNORS: [&str; 4] = ["msm-adreno-tz", "userspace", "performance", "powersave"];

pub(crate) fn read(dev: &Device, path: &str) -> Result<String, SocError> {
    if let Some(file) = path.strip_prefix(KGSL).and_then(|p| p.strip_prefix('/')) {
        return match file {
            "governor" => Ok(dev.gpu().governor().to_string()),
            "gpuclk" => {
                Ok(((dev.gpu().freq_ghz(dev.gpu().freq()) * 1e9).round() as u64).to_string())
            }
            "available_frequencies" => Ok((0..dev.gpu().num_freqs())
                .map(|i| {
                    ((dev.gpu().freq_ghz(crate::gpu::GpuFreqIndex(i)) * 1e9).round() as u64)
                        .to_string()
                })
                .collect::<Vec<_>>()
                .join(" ")),
            _ => Err(SocError::NoSuchFile(path.to_string())),
        };
    }
    if let Some(file) = path.strip_prefix(CPUFREQ).and_then(|p| p.strip_prefix('/')) {
        return match file {
            "scaling_governor" => Ok(dev.cpu_governor().to_string()),
            "scaling_cur_freq" | "scaling_setspeed" => {
                Ok(dev.table().freq(dev.freq()).khz().to_string())
            }
            "scaling_available_frequencies" => Ok(dev
                .table()
                .freq_indices()
                .map(|i| dev.table().freq(i).khz().to_string())
                .collect::<Vec<_>>()
                .join(" ")),
            "scaling_available_governors" => Ok(CPU_GOVERNORS.join(" ")),
            "stats/time_in_state" => {
                let residency = dev.time_in_freq_ms();
                Ok(dev
                    .table()
                    .freq_indices()
                    .map(|i| {
                        format!(
                            "{} {}",
                            dev.table().freq(i).khz(),
                            residency.get(i.0).copied().unwrap_or(0)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            _ => Err(SocError::NoSuchFile(path.to_string())),
        };
    }
    if let Some(file) = path.strip_prefix(DEVFREQ).and_then(|p| p.strip_prefix('/')) {
        return match file {
            "governor" => Ok(dev.bw_governor().to_string()),
            "cur_freq" | "userspace/set_freq" => {
                Ok((dev.table().bw(dev.bw()).0.round() as u64).to_string())
            }
            "available_frequencies" => Ok(dev
                .table()
                .bw_indices()
                .map(|i| (dev.table().bw(i).0.round() as u64).to_string())
                .collect::<Vec<_>>()
                .join(" ")),
            _ => Err(SocError::NoSuchFile(path.to_string())),
        };
    }
    Err(SocError::NoSuchFile(path.to_string()))
}

pub(crate) fn write(dev: &mut Device, path: &str, value: &str) -> Result<(), SocError> {
    let value = value.trim();
    if let Some(file) = path.strip_prefix(KGSL).and_then(|p| p.strip_prefix('/')) {
        return match file {
            "governor" => {
                if GPU_GOVERNORS.contains(&value) {
                    dev.set_gpu_governor(value);
                    Ok(())
                } else {
                    Err(SocError::InvalidValue {
                        path: path.to_string(),
                        value: value.to_string(),
                    })
                }
            }
            "gpuclk" => {
                if dev.gpu().governor() != "userspace" {
                    return Err(SocError::WrongGovernor {
                        path: path.to_string(),
                        active: dev.gpu().governor().to_string(),
                    });
                }
                let hz: u64 = value.parse().map_err(|_| SocError::InvalidValue {
                    path: path.to_string(),
                    value: value.to_string(),
                })?;
                let idx = (0..dev.gpu().num_freqs())
                    .map(crate::gpu::GpuFreqIndex)
                    .find(|&i| (dev.gpu().freq_ghz(i) * 1e9).round() as u64 == hz);
                match idx {
                    Some(i) => {
                        dev.set_gpu_freq(i);
                        Ok(())
                    }
                    None => Err(SocError::InvalidValue {
                        path: path.to_string(),
                        value: value.to_string(),
                    }),
                }
            }
            "available_frequencies" => Err(SocError::ReadOnly(path.to_string())),
            _ => Err(SocError::NoSuchFile(path.to_string())),
        };
    }
    if let Some(file) = path.strip_prefix(CPUFREQ).and_then(|p| p.strip_prefix('/')) {
        return match file {
            "scaling_governor" => {
                if CPU_GOVERNORS.contains(&value) {
                    dev.set_cpu_governor(value);
                    Ok(())
                } else {
                    Err(SocError::InvalidValue {
                        path: path.to_string(),
                        value: value.to_string(),
                    })
                }
            }
            "scaling_setspeed" => {
                if dev.cpu_governor() != "userspace" {
                    return Err(SocError::WrongGovernor {
                        path: path.to_string(),
                        active: dev.cpu_governor().to_string(),
                    });
                }
                let khz: u64 = value.parse().map_err(|_| SocError::InvalidValue {
                    path: path.to_string(),
                    value: value.to_string(),
                })?;
                match dev.table().freq_from_khz(khz) {
                    Some(idx) => {
                        dev.set_cpu_freq(idx);
                        Ok(())
                    }
                    None => Err(SocError::InvalidValue {
                        path: path.to_string(),
                        value: value.to_string(),
                    }),
                }
            }
            "scaling_cur_freq"
            | "scaling_available_frequencies"
            | "scaling_available_governors"
            | "stats/time_in_state" => Err(SocError::ReadOnly(path.to_string())),
            _ => Err(SocError::NoSuchFile(path.to_string())),
        };
    }
    if let Some(file) = path.strip_prefix(DEVFREQ).and_then(|p| p.strip_prefix('/')) {
        return match file {
            "governor" => {
                if BW_GOVERNORS.contains(&value) {
                    dev.set_bw_governor(value);
                    Ok(())
                } else {
                    Err(SocError::InvalidValue {
                        path: path.to_string(),
                        value: value.to_string(),
                    })
                }
            }
            "userspace/set_freq" => {
                if dev.bw_governor() != "userspace" {
                    return Err(SocError::WrongGovernor {
                        path: path.to_string(),
                        active: dev.bw_governor().to_string(),
                    });
                }
                let mbps: u64 = value.parse().map_err(|_| SocError::InvalidValue {
                    path: path.to_string(),
                    value: value.to_string(),
                })?;
                match dev.table().bw_from_mbps(mbps) {
                    Some(idx) => {
                        dev.set_mem_bw(idx);
                        Ok(())
                    }
                    None => Err(SocError::InvalidValue {
                        path: path.to_string(),
                        value: value.to_string(),
                    }),
                }
            }
            "cur_freq" | "available_frequencies" => Err(SocError::ReadOnly(path.to_string())),
            _ => Err(SocError::NoSuchFile(path.to_string())),
        };
    }
    Err(SocError::NoSuchFile(path.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::dvfs::{BwIndex, FreqIndex};

    fn dev() -> Device {
        Device::new(DeviceConfig::nexus6())
    }

    #[test]
    fn read_governor_and_frequency() {
        let d = dev();
        assert_eq!(
            d.sysfs_read(&format!("{CPUFREQ}/scaling_governor"))
                .unwrap(),
            "interactive"
        );
        assert_eq!(
            d.sysfs_read(&format!("{CPUFREQ}/scaling_cur_freq"))
                .unwrap(),
            "300000"
        );
        assert_eq!(d.sysfs_read(&format!("{DEVFREQ}/cur_freq")).unwrap(), "762");
    }

    #[test]
    fn setspeed_rejected_under_interactive() {
        let mut d = dev();
        let err = d
            .sysfs_write(&format!("{CPUFREQ}/scaling_setspeed"), "1497600")
            .unwrap_err();
        assert!(matches!(err, SocError::WrongGovernor { .. }));
    }

    #[test]
    fn userspace_flow_sets_frequency_and_bandwidth() {
        let mut d = dev();
        d.sysfs_write(&format!("{CPUFREQ}/scaling_governor"), "userspace")
            .unwrap();
        d.sysfs_write(&format!("{CPUFREQ}/scaling_setspeed"), "1497600")
            .unwrap();
        assert_eq!(d.freq(), FreqIndex(9));

        d.sysfs_write(&format!("{DEVFREQ}/governor"), "userspace")
            .unwrap();
        d.sysfs_write(&format!("{DEVFREQ}/userspace/set_freq"), "8056")
            .unwrap();
        assert_eq!(d.bw(), BwIndex(9));
    }

    #[test]
    fn invalid_frequency_rejected() {
        let mut d = dev();
        d.sysfs_write(&format!("{CPUFREQ}/scaling_governor"), "userspace")
            .unwrap();
        let err = d
            .sysfs_write(&format!("{CPUFREQ}/scaling_setspeed"), "123456")
            .unwrap_err();
        assert!(matches!(err, SocError::InvalidValue { .. }));
        let err = d
            .sysfs_write(&format!("{CPUFREQ}/scaling_setspeed"), "fast")
            .unwrap_err();
        assert!(matches!(err, SocError::InvalidValue { .. }));
    }

    #[test]
    fn unknown_governor_rejected() {
        let mut d = dev();
        let err = d
            .sysfs_write(&format!("{CPUFREQ}/scaling_governor"), "warp-speed")
            .unwrap_err();
        assert!(matches!(err, SocError::InvalidValue { .. }));
    }

    #[test]
    fn read_only_files_reject_writes() {
        let mut d = dev();
        let err = d
            .sysfs_write(&format!("{CPUFREQ}/scaling_cur_freq"), "300000")
            .unwrap_err();
        assert!(matches!(err, SocError::ReadOnly(_)));
    }

    #[test]
    fn unknown_path_errors() {
        let d = dev();
        assert!(matches!(
            d.sysfs_read("/sys/nope").unwrap_err(),
            SocError::NoSuchFile(_)
        ));
    }

    #[test]
    fn available_frequencies_lists_whole_ladder() {
        let d = dev();
        let freqs = d
            .sysfs_read(&format!("{CPUFREQ}/scaling_available_frequencies"))
            .unwrap();
        assert_eq!(freqs.split_whitespace().count(), 18);
        assert!(freqs.starts_with("300000"));
        assert!(freqs.ends_with("2649600"));
        let bws = d
            .sysfs_read(&format!("{DEVFREQ}/available_frequencies"))
            .unwrap();
        assert_eq!(bws.split_whitespace().count(), 13);
    }

    #[test]
    fn time_in_state_reflects_ticks() {
        let mut d = dev();
        let demand = crate::workload::Demand::idle();
        for _ in 0..5 {
            d.tick(&demand);
        }
        let tis = d
            .sysfs_read(&format!("{CPUFREQ}/stats/time_in_state"))
            .unwrap();
        let first = tis.lines().next().unwrap();
        assert_eq!(first, "300000 5");
    }

    #[test]
    fn gpu_sysfs_flow() {
        let mut d = dev();
        assert_eq!(
            d.sysfs_read(&format!("{KGSL}/governor")).unwrap(),
            "msm-adreno-tz"
        );
        let err = d
            .sysfs_write(&format!("{KGSL}/gpuclk"), "600000000")
            .unwrap_err();
        assert!(matches!(err, SocError::WrongGovernor { .. }));
        d.sysfs_write(&format!("{KGSL}/governor"), "userspace")
            .unwrap();
        d.sysfs_write(&format!("{KGSL}/gpuclk"), "600000000")
            .unwrap();
        assert_eq!(
            d.sysfs_read(&format!("{KGSL}/gpuclk")).unwrap(),
            "600000000"
        );
        let freqs = d
            .sysfs_read(&format!("{KGSL}/available_frequencies"))
            .unwrap();
        assert_eq!(freqs.split_whitespace().count(), 5);
    }

    #[test]
    fn governor_sysfs_write_performance_pins_max() {
        let mut d = dev();
        d.sysfs_write(&format!("{CPUFREQ}/scaling_governor"), "performance")
            .unwrap();
        assert_eq!(d.freq(), FreqIndex(17));
    }
}
