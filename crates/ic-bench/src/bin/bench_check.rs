//! `bench-check` — validator for the machine-readable bench report.
//!
//! Reads a `BENCH.json` written by the harness (`IC_BENCH_JSON`),
//! verifies it structurally — correct schema tag, well-formed records
//! ([`Record::from_json`], the harness's own reader), every row a
//! repeated measurement (`iters >= 5`), every required bench group
//! present. Exits nonzero on any violation, so `scripts/verify.sh` can
//! gate on it.
//!
//! Usage:
//!
//! ```text
//! bench-check <path> [required-group ...]
//!             [--baseline <path>] [--max-regress <key>=<ratio> ...]
//! ```
//!
//! (groups default to `envelope exec-state`).
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
//! shorter smoke run gates only what it measured — but a key that
//! compared nothing at all fails: a renamed row must not turn the
//! gate into a silent pass.

use std::process::ExitCode;

use ic_bench::harness::{Record, MIN_ITERS};
use ic_sim::json::{parse, Json};

/// Work units per second, for throughput records.
fn rate(r: &Record) -> Option<f64> {
    r.states.map(|s| s as f64 * 1e9 / r.best_ns.max(1) as f64)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench-check: {msg}");
    ExitCode::FAILURE
}

/// Parse and structurally validate one report; `path` labels errors.
fn parse_rows(path: &str, text: &str) -> Result<Vec<Record>, String> {
    let doc = parse(text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;

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
    results
        .iter()
        .enumerate()
        .map(|(i, rec)| Record::from_json(rec).map_err(|e| format!("{path}: results[{i}] {e}")))
        .collect()
}

fn load_rows(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_rows(path, &text)
}

/// The sampling rule of the report under check (a baseline may
/// predate it): no row is a single shot.
fn check_sampling(path: &str, rows: &[Record]) -> Result<(), String> {
    match rows.iter().find(|r| r.iters < MIN_ITERS) {
        Some(r) => Err(format!(
            "{path}: {}/{} has \"iters\": {}, below the {MIN_ITERS} repetitions every row needs",
            r.group, r.id, r.iters
        )),
        None => Ok(()),
    }
}

/// Compare throughput records named by `key` ("group" or "group/id")
/// in `rows` against `base`; returns the failures and prints one line
/// per comparison. A key that compared nothing is one failure.
fn gate_regressions(rows: &[Record], base: &[Record], key: &str, ratio: f64) -> usize {
    let matches = |r: &Record| {
        r.group == key
            || key
                .split_once('/')
                .is_some_and(|(g, id)| r.group == g && r.id == id)
    };
    let mut compared = 0usize;
    let mut failures = 0usize;
    for row in rows.iter().filter(|r| matches(r)) {
        let Some(new_rate) = rate(row) else { continue };
        let old_rate = base
            .iter()
            .find(|b| b.group == row.group && b.id == row.id)
            .and_then(rate);
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
        println!("regress {key}: nothing to compare (no shared throughput records) FAIL");
        failures += 1;
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
    let Some(path) = positional.next() else {
        return fail("no report path");
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
    if let Err(e) = check_sampling(&path, &rows) {
        return fail(&e);
    }

    for group in &required {
        if !rows.iter().any(|r| &r.group == group) {
            return fail(&format!("{path}: required bench group {group:?} is absent"));
        }
    }

    // Informational throughput table: any record carrying a work-unit
    // count reports its rate (e.g. model-checker states per second).
    for row in &rows {
        if let (Some(s), Some(rate)) = (row.states, rate(row)) {
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
                "{failures} --max-regress gate(s) failed vs {bpath}: a throughput record \
                 beyond its allowed ratio, or a key with nothing to compare"
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

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, &str, u64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(group, id, iters)| {
                format!(
                    "{{\"group\": \"{group}\", \"id\": \"{id}\", \"nodes\": 2000, \
                     \"states\": 2000, \"best_ns\": 100, \"mean_ns\": 120, \"iters\": {iters}}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"ic-bench/1\", \"budget_ms\": 40, \"results\": [{}]}}",
            body.join(", ")
        )
    }

    #[test]
    fn a_gate_key_that_compares_nothing_is_a_failure() {
        let base = parse_rows("base", &report(&[("net", "alloc_rate_1000w", 5)])).unwrap();
        let renamed = parse_rows("new", &report(&[("net", "tasks_rate_1000w", 5)])).unwrap();
        assert_eq!(gate_regressions(&base, &base, "net", 2.0), 0);
        assert_eq!(gate_regressions(&renamed, &base, "net", 2.0), 1);
        assert_eq!(gate_regressions(&base, &base, "net/gone", 2.0), 1);
    }

    #[test]
    fn a_single_shot_row_fails_the_report_but_not_a_baseline() {
        let text = report(&[("net", "alloc_rate_1000w", 5), ("fed", "drain_1s", 1)]);
        let rows = parse_rows("r", &text).expect("a well-formed baseline loads");
        let err = check_sampling("r", &rows).unwrap_err();
        assert!(err.contains("fed/drain_1s"), "{err}");
        assert!(check_sampling("r", &rows[..1]).is_ok());
    }
}
