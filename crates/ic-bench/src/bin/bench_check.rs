//! `bench-check` — validator for the machine-readable bench report.
//!
//! Reads a `BENCH.json` written by the harness (`IC_BENCH_JSON`),
//! verifies it structurally — correct schema tag, well-formed records,
//! every required bench group present. Exits nonzero on any
//! violation, so `scripts/verify.sh` can gate on it.
//!
//! Usage:
//!
//! ```text
//! bench-check <path> [required-group ...]
//!             [--baseline <path>] [--max-regress <key>=<ratio> ...]
//! ```
//!
//! (path defaults to `$IC_BENCH_JSON`; groups default to
//! `envelope exec-state`).
//!
//! # Regression gate
//!
//! With `--baseline`, every throughput record (one carrying a
//! `states` work-unit count) named by a `--max-regress` key is
//! compared against the record of the same group and id in the
//! baseline report: the gate fails if
//! `baseline_rate / new_rate > ratio`, i.e. `net=1.2` tolerates at
//! most a 1.2× rate drop (~17%) before failing. A key is either a
//! whole group (`net`) or one record (`net/alloc_rate_10000w`).
//! Records present on only one side are skipped with a note — a
//! shorter smoke run gates only what it measured.

use std::process::ExitCode;

use ic_sim::json::{parse, Json};

/// One validated record of the report.
struct Row {
    group: String,
    id: String,
    states: Option<u64>,
    best: u64,
}

impl Row {
    /// Work units per second, for throughput records.
    fn rate(&self) -> Option<f64> {
        self.states
            .map(|s| s as f64 * 1e9 / self.best.max(1) as f64)
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench-check: {msg}");
    ExitCode::FAILURE
}

/// Read, parse, and structurally validate one report file.
fn load_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;

    if doc.get("schema").and_then(Json::as_str) != Some("ic-bench/1") {
        return Err(format!("{path}: missing or wrong \"schema\" tag"));
    }
    if doc.get("budget_ms").and_then(Json::as_u64).is_none() {
        return Err(format!("{path}: missing numeric \"budget_ms\""));
    }
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        return Err(format!("{path}: missing \"results\" array"));
    };
    if results.is_empty() {
        return Err(format!("{path}: empty \"results\" array"));
    }

    let mut rows: Vec<Row> = Vec::new();
    for (i, rec) in results.iter().enumerate() {
        let Some(group) = rec.get("group").and_then(Json::as_str) else {
            return Err(format!("{path}: results[{i}] has no string \"group\""));
        };
        let Some(id) = rec.get("id").and_then(Json::as_str) else {
            return Err(format!("{path}: results[{i}] has no string \"id\""));
        };
        match rec.get("nodes") {
            Some(Json::Null) => {}
            Some(v) if v.as_u64().is_some() => {}
            Some(_) => {
                return Err(format!("{path}: results[{i}] has malformed \"nodes\""));
            }
            None => return Err(format!("{path}: results[{i}] has no \"nodes\" field")),
        }
        // Optional (older reports predate it): per-run work-unit count
        // for throughput benchmarks. Present but mistyped is an error.
        let states = match rec.get("states") {
            None | Some(Json::Null) => None,
            Some(v) => match v.as_u64() {
                Some(s) => Some(s),
                None => {
                    return Err(format!("{path}: results[{i}] has malformed \"states\""));
                }
            },
        };
        let Some(best) = rec.get("best_ns").and_then(Json::as_u64) else {
            return Err(format!("{path}: results[{i}] has no numeric \"best_ns\""));
        };
        if rec.get("mean_ns").and_then(Json::as_u64).is_none() {
            return Err(format!("{path}: results[{i}] has no numeric \"mean_ns\""));
        }
        match rec.get("iters").and_then(Json::as_u64) {
            Some(it) if it >= 1 => {}
            _ => return Err(format!("{path}: results[{i}] has no positive \"iters\"")),
        }
        rows.push(Row {
            group: group.to_string(),
            id: id.to_string(),
            states,
            best,
        });
    }
    Ok(rows)
}

/// Compare throughput records named by `key` ("group" or "group/id")
/// in `rows` against `base`; returns the failures and prints one line
/// per comparison.
fn gate_regressions(rows: &[Row], base: &[Row], key: &str, ratio: f64) -> usize {
    let matches = |r: &Row| {
        r.group == key
            || key
                .split_once('/')
                .is_some_and(|(g, id)| r.group == g && r.id == id)
    };
    let mut compared = 0usize;
    let mut failures = 0usize;
    for row in rows.iter().filter(|r| matches(r)) {
        let Some(new_rate) = row.rate() else { continue };
        let old_rate = base
            .iter()
            .find(|b| b.group == row.group && b.id == row.id)
            .and_then(Row::rate);
        let Some(old_rate) = old_rate else {
            println!(
                "regress {}/{:<24} skipped (no baseline record)",
                row.group, row.id
            );
            continue;
        };
        compared += 1;
        let drop = old_rate / new_rate.max(1e-12);
        let verdict = if drop > ratio { "FAIL" } else { "ok" };
        if drop > ratio {
            failures += 1;
        }
        println!(
            "regress {}/{:<24} {old_rate:>12.0} -> {new_rate:>12.0} /s ({:.2}x vs {ratio:.2}x allowed) {verdict}",
            row.group, row.id, drop,
        );
    }
    if compared == 0 {
        println!("regress {key}: nothing to compare (no shared throughput records)");
    }
    failures
}

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut gates: Vec<(String, f64)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(p),
                None => return fail("--baseline needs a report path"),
            },
            "--max-regress" => {
                let Some(spec) = args.next() else {
                    return fail("--max-regress needs <group[/id]>=<ratio>");
                };
                let parsed = spec
                    .split_once('=')
                    .and_then(|(k, v)| v.parse::<f64>().ok().map(|r| (k.to_string(), r)));
                match parsed {
                    Some((k, r)) if r >= 1.0 => gates.push((k, r)),
                    _ => {
                        return fail(&format!(
                            "bad --max-regress {spec:?}: want <group[/id]>=<ratio>, ratio >= 1.0"
                        ));
                    }
                }
            }
            _ => positional.push(a),
        }
    }
    if baseline.is_none() && !gates.is_empty() {
        return fail("--max-regress needs --baseline");
    }

    let mut positional = positional.into_iter();
    let path = match positional
        .next()
        .or_else(|| std::env::var("IC_BENCH_JSON").ok())
    {
        Some(p) => p,
        None => return fail("no report path (pass one or set IC_BENCH_JSON)"),
    };
    let required: Vec<String> = {
        let rest: Vec<String> = positional.collect();
        if rest.is_empty() {
            ["envelope", "exec-state"].map(String::from).to_vec()
        } else {
            rest
        }
    };

    let rows = match load_rows(&path) {
        Ok(rows) => rows,
        Err(e) => return fail(&e),
    };

    for group in &required {
        if !rows.iter().any(|r| &r.group == group) {
            return fail(&format!("{path}: required bench group {group:?} is absent"));
        }
    }

    // Informational throughput table: any record carrying a work-unit
    // count reports its rate (e.g. model-checker states per second).
    for row in &rows {
        if let Some(s) = row.states {
            let rate = s as f64 * 1e9 / row.best.max(1) as f64;
            println!(
                "{}/{:<24} {s:>8} states, {rate:>12.0} states/s",
                row.group, row.id
            );
        }
    }

    // Regression gate against the baseline report, if requested.
    if let Some(bpath) = &baseline {
        let base = match load_rows(bpath) {
            Ok(rows) => rows,
            Err(e) => return fail(&format!("baseline: {e}")),
        };
        let mut failures = 0usize;
        for (key, ratio) in &gates {
            failures += gate_regressions(&rows, &base, key, *ratio);
        }
        if failures > 0 {
            return fail(&format!(
                "{failures} throughput record(s) regressed beyond the allowed ratio vs {bpath}"
            ));
        }
    }

    println!(
        "bench-check: {path} OK ({} records, groups: {})",
        rows.len(),
        required.join(", ")
    );
    ExitCode::SUCCESS
}
