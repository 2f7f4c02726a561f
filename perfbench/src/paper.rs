//! Fidelity reference: the paper's Table III and the fidelity figures
//! computed against it.
//!
//! Simulated savings are treated as measurements to validate against
//! the paper, not as outputs to take on trust. The figures here are
//! deterministic for a given seed.

use asgov_util::Json;

/// Table III of the paper (baseline load): `(app, performance %,
/// energy savings %)` in roster order. The same columns are printed by
/// `crates/experiments/src/bin/table3.rs`.
pub const TABLE3: [(&str, f64, f64); 6] = [
    ("VidCon", -0.4, 25.3),
    ("MobileBench", 4.1, 15.3),
    ("AngryBirds", 0.6, 14.9),
    ("WeChat", -0.4, 27.2),
    ("MXPlayer", 0.0, 4.2),
    ("Spotify", 9.3, 31.6),
];

/// Fidelity of one set of per-app results against [`TABLE3`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Mean over the six apps of |mean savings − paper savings|,
    /// percentage points.
    pub savings_gap_pp: f64,
    /// Apps whose mean savings are ≤ 0 (the paper shows all six
    /// positive).
    pub savings_wrong_sign: u64,
    /// Mean over apps of max(0, −performance delta), percent; `0` when
    /// no performance column is available.
    pub perf_shortfall_pct: f64,
}

/// Fidelity from per-app savings (and, if known, performance deltas),
/// both in [`TABLE3`] order.
pub fn fidelity(savings_pct: &[f64; 6], perf_delta_pct: Option<&[f64; 6]>) -> Fidelity {
    let gap: f64 = savings_pct
        .iter()
        .zip(TABLE3)
        .map(|(s, (_, _, paper))| (s - paper).abs())
        .sum();
    let shortfall: f64 = perf_delta_pct.map_or(0.0, |p| p.iter().map(|d| (-d).max(0.0)).sum());
    Fidelity {
        savings_gap_pp: gap / 6.0,
        savings_wrong_sign: savings_pct.iter().filter(|s| **s <= 0.0).count() as u64,
        perf_shortfall_pct: shortfall / 6.0,
    }
}

/// Per-app mean savings from a fleet report's JSON (`savings_per_app`).
///
/// # Errors
///
/// When an app is missing from the report or has no usable samples.
pub fn fleet_app_savings(report: &Json) -> Result<[f64; 6], String> {
    let per_app = report
        .get("savings_per_app")
        .ok_or("fleet report has no savings_per_app")?;
    let mut out = [0.0; 6];
    for (slot, (app, _, _)) in out.iter_mut().zip(TABLE3) {
        let entry = per_app.get(app).ok_or(format!("no savings for {app}"))?;
        let count = entry.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        if count < 1.0 {
            return Err(format!("{app} has no usable savings samples"));
        }
        *slot = entry
            .get("mean_pct")
            .and_then(Json::as_f64)
            .ok_or(format!("{app} has no mean_pct"))?;
    }
    Ok(out)
}

/// Stream quantiles (p50/p95/p99 of every per-app and per-fault stream
/// with samples) that lie outside the stream's own `[min, max]`, read
/// from the report JSON as-is.
pub fn quantile_out_of_range(report: &Json) -> u64 {
    let mut bad = 0;
    for group in ["savings_per_app", "savings_per_fault"] {
        let Some(Json::Obj(streams)) = report.get(group) else {
            continue;
        };
        for entry in streams.values() {
            let num = |k: &str| entry.get(k).and_then(Json::as_f64);
            if num("count").unwrap_or(0.0) < 1.0 {
                continue;
            }
            let (Some(lo), Some(hi)) = (num("min_pct"), num("max_pct")) else {
                continue;
            };
            for key in ["p50_pct", "p95_pct", "p99_pct"] {
                if num(key).is_some_and(|q| q < lo || q > hi) {
                    bad += 1;
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_have_zero_gap() {
        let savings = TABLE3.map(|(_, _, s)| s);
        let perf = TABLE3.map(|(_, p, _)| p);
        let f = fidelity(&savings, Some(&perf));
        assert_eq!(f.savings_gap_pp, 0.0);
        assert_eq!(f.savings_wrong_sign, 0);
        // VidCon and WeChat run 0.4 % slower in the paper.
        assert!((f.perf_shortfall_pct - 0.8 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_outside_min_max_are_counted() {
        let text = r#"{"savings_per_app": {
            "VidCon": {"count": 3, "min_pct": 10, "max_pct": 57.3,
                       "p50_pct": 20, "p95_pct": 60, "p99_pct": 100},
            "Empty": {"count": 0, "min_pct": 0, "max_pct": 0,
                      "p50_pct": 5, "p95_pct": 5, "p99_pct": 5}}}"#;
        let report = Json::parse(text).expect("valid JSON");
        assert_eq!(quantile_out_of_range(&report), 2);
    }
}
