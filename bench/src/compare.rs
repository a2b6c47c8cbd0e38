//! Result sets on disk and the comparison of two of them.
//!
//! A set holds, per workload and end-to-end metric, one value per run
//! (each run's value is already a median over its repetitions). Two
//! sets of the same commit must agree within the bounds; a parent set
//! and a change set are compared the same way.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ic_sim::json::{self, Json};

use crate::run::json_number;
use crate::stats;

/// `workload → metric → (unit, one value per run)`.
pub type Set = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

pub fn to_json(set: &Set, seconds: f64, first_seed: u64) -> String {
    let mut out = format!(
        "{{\"schema\": \"ic-e2e/1\", \"run_seconds\": {}, \"first_seed\": {first_seed}, \"workloads\": {{",
        json_number(seconds)
    );
    for (i, (workload, metrics)) in set.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  \"{workload}\": {{",
            if i > 0 { "," } else { "" }
        );
        for (j, (metric, (unit, values))) in metrics.iter().enumerate() {
            let vals: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
            let _ = write!(
                out,
                "{}\n    \"{metric}\": {{\"unit\": \"{unit}\", \"values\": [{}]}}",
                if j > 0 { "," } else { "" },
                vals.join(", ")
            );
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}}\n");
    out
}

pub fn from_json(text: &str) -> Result<Set, String> {
    let v = json::parse(text)?;
    let Some(Json::Obj(workloads)) = v.get("workloads") else {
        return Err("no \"workloads\" object".into());
    };
    let mut set = Set::new();
    for (workload, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            return Err(format!("workload {workload:?} is not an object"));
        };
        let entry = set.entry(workload.clone()).or_default();
        for (metric, body) in metrics {
            let unit = body.get("unit").and_then(Json::as_str).unwrap_or("");
            let values: Vec<f64> = body
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{workload}.{metric} has no values"))?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            entry.insert(metric.clone(), (unit.to_string(), values));
        }
    }
    Ok(set)
}

/// Bound and direction of every end-to-end metric, from
/// `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let v = json::parse(benchmark_json)?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without a bound")?;
        let lower_is_better = m.get("better").and_then(Json::as_str) == Some("lower");
        out.insert(name.to_string(), (bound, lower_is_better));
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// The second median is worse than the first by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell (unless every second run beats every first run).
    Unresolved,
}

/// Judge one metric: `a` is the base, `b` what is compared against it.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (
        stats::median(a).unwrap_or(0.0),
        stats::median(b).unwrap_or(0.0),
    );
    let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
    let worse_by = if lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    let all_better = !a.is_empty()
        && a.iter().all(|&x| {
            b.iter()
                .all(|&y| if lower_is_better { y < x } else { y > x })
        });
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, spread, verdict)
}

/// Print the comparison table; returns how many rows are not `ok`.
pub fn compare(a: &Set, b: &Set, bounds: &BTreeMap<String, (f64, bool)>) -> (String, usize) {
    let mut out = format!(
        "{:<15} {:<24} {:>13} {:>13} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
    );
    let mut bad = 0;
    for (workload, metrics) in a {
        for (metric, (_, va)) in metrics {
            let (Some((bound, lower)), Some((_, vb))) = (
                bounds.get(metric),
                b.get(workload).and_then(|m| m.get(metric)),
            ) else {
                continue;
            };
            let (ma, mb, spread, verdict) = judge(va, vb, *bound, *lower);
            if verdict != Verdict::Ok {
                bad += 1;
            }
            let _ = writeln!(
                out,
                "{workload:<15} {metric:<24} {ma:>13.4} {mb:>13.4} {:>9.4} {:>6.1}% {:>6.1}%  {}",
                mb / ma,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_round_trip_and_verdicts_follow_the_bound() {
        let mut set = Set::new();
        set.entry("pingpong".into()).or_default().insert(
            "tasks_per_s".into(),
            ("1/s".into(), vec![100.0, 101.0, 99.0, 100.5]),
        );
        let text = to_json(&set, 10.0, 1);
        assert_eq!(from_json(&text).unwrap(), set);

        let steady = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5];
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let noisy = [100.0, 140.0, 60.0, 120.0, 80.0, 100.0];
        // Higher is better: 20 % fewer tasks/s is past a 10 % bound.
        assert_eq!(judge(&steady, &slower, 0.10, false).3, Verdict::Regressed);
        assert_eq!(judge(&steady, &slower, 0.25, false).3, Verdict::Ok);
        assert_eq!(judge(&slower, &steady, 0.10, false).3, Verdict::Ok);
        assert_eq!(judge(&steady, &noisy, 0.10, false).3, Verdict::Unresolved);
        // Lower is better: the same numbers read as a gain.
        assert_eq!(judge(&steady, &slower, 0.10, true).3, Verdict::Ok);
        let b = bounds(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(b["setup_s"], (0.25, true));
    }
}
