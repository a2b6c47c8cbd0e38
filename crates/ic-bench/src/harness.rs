//! A minimal `std::time` micro-benchmark harness.
//!
//! The offline build cannot resolve `criterion`, so the `benches/`
//! targets (which keep `harness = false`) drive their measurements
//! through this module instead. The protocol per benchmark is the
//! classic one: run the closure once to estimate its cost, pick an
//! iteration count that fills a small time budget, run timed batches —
//! at least [`MIN_ITERS`] of them, however long one call takes — and
//! report the best (minimum) and mean per-iteration time. Results
//! go to stdout as aligned text, and optionally to a machine-readable
//! JSON file for regression tracking (see `IC_BENCH_JSON` below and
//! the `bench-check` validator binary).
//!
//! This is the only way a report row is produced. The scale groups
//! (`machine`, `net`, `fed`), where one call is a whole fleet run of
//! tens to hundreds of milliseconds, are closures like any other: the
//! budget is long spent after the first call, so they get exactly the
//! floor — one warm-up and [`MIN_ITERS`] timed runs.
//!
//! The first CLI argument that is not a flag is a substring filter on
//! `group/id` names (`cargo bench -p ic-bench --bench net -- 1000w`).
//!
//! Environment knobs:
//!
//! * `IC_BENCH_MS` — per-benchmark time budget in milliseconds
//!   (default 40; raise for more stable numbers);
//! * `IC_BENCH_JSON` — when set, [`Runner::finish`] writes every
//!   result to this path as a single JSON document:
//!
//!   ```json
//!   {"schema": "ic-bench/1", "budget_ms": 40, "results": [
//!     {"group": "envelope", "id": "mesh_55", "nodes": 55, "states": null,
//!      "best_ns": 1200, "mean_ns": 1900, "iters": 4096}, ...]}
//!   ```
//!
//!   `nodes` is the benchmarked dag's node count and `states` the
//!   per-run work-unit count of a throughput benchmark (`null` for a
//!   benchmark without one). Times are per-iteration nanoseconds
//!   (`best_ns <= mean_ns`) and `iters` is the total number of timed
//!   calls, never below [`MIN_ITERS`].
//! * `IC_BENCH_APPEND` — when set (and not `0`), merge into an
//!   existing `IC_BENCH_JSON` report instead of overwriting it, so
//!   several bench binaries can share one file.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ic_sim::json::{json_string, parse, Json};

/// Every row is at least this many timed calls: [`Runner`] runs five
/// batches whatever the budget, and `bench-check` rejects a report
/// with a row below it.
pub const MIN_ITERS: u64 = 5;

/// One measured benchmark, as serialized into the JSON report.
pub struct Record {
    /// Bench group (`envelope`, `net`, ...).
    pub group: String,
    /// Benchmark name within the group.
    pub id: String,
    /// The benchmarked dag's node count, if it has one.
    pub nodes: Option<usize>,
    /// Work-unit count for throughput benchmarks (e.g. model-checker
    /// states explored per run); `None` for plain timing records.
    pub states: Option<u64>,
    /// Fastest batch, nanoseconds per call.
    pub best_ns: u128,
    /// All batches, nanoseconds per call.
    pub mean_ns: u128,
    /// Timed calls behind the two.
    pub iters: u64,
}

impl Record {
    /// Read one entry of a report's `results` array, strictly: every
    /// field present and of its type (`nodes` and `states` may be
    /// `null`).
    ///
    /// # Errors
    /// Names the first field that is missing or mistyped.
    pub fn from_json(rec: &Json) -> Result<Record, String> {
        let text = |key: &str| {
            let v = rec.get(key).and_then(Json::as_str);
            v.map(String::from)
                .ok_or_else(|| format!("has no string {key:?}"))
        };
        let count = |key: &str| {
            let v = rec.get(key).and_then(Json::as_u64);
            v.ok_or_else(|| format!("has no numeric {key:?}"))
        };
        let optional = |key: &str| match rec.get(key) {
            Some(Json::Null) => Ok(None),
            v => v
                .and_then(Json::as_u64)
                .map(Some)
                .ok_or_else(|| format!("has no numeric or null {key:?}")),
        };
        Ok(Record {
            group: text("group")?,
            id: text("id")?,
            nodes: optional("nodes")?.and_then(|n| usize::try_from(n).ok()),
            states: optional("states")?,
            best_ns: u128::from(count("best_ns")?),
            mean_ns: u128::from(count("mean_ns")?),
            iters: count("iters")
                .ok()
                .filter(|&it| it >= 1)
                .ok_or_else(|| "has no positive \"iters\"".to_string())?,
        })
    }

    fn to_json(&self) -> String {
        let nodes = self
            .nodes
            .map_or_else(|| "null".to_string(), |n| n.to_string());
        let states = self
            .states
            .map_or_else(|| "null".to_string(), |s| s.to_string());
        format!(
            "{{\"group\": {}, \"id\": {}, \"nodes\": {}, \"states\": {}, \"best_ns\": {}, \"mean_ns\": {}, \"iters\": {}}}",
            json_string(&self.group),
            json_string(&self.id),
            nodes,
            states,
            self.best_ns,
            self.mean_ns,
            self.iters,
        )
    }
}

/// Runs and reports benchmarks; construct once per bench binary.
pub struct Runner {
    budget: Duration,
    filter: Option<String>,
    json_path: Option<String>,
    records: Vec<Record>,
}

impl Runner {
    /// A runner configured from the environment and CLI arguments (the
    /// first non-flag argument, if any, becomes the name filter).
    pub fn from_env() -> Self {
        let ms = std::env::var("IC_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(40);
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let json_path = std::env::var("IC_BENCH_JSON")
            .ok()
            .filter(|p| !p.is_empty());
        Runner {
            budget: Duration::from_millis(ms.max(1)),
            filter,
            json_path,
            records: Vec::new(),
        }
    }

    /// Measure `f`, reporting under `group/id` with the benchmarked
    /// dag's node count attached to the JSON record (for per-node cost
    /// comparisons downstream). The closure's result is passed through
    /// [`black_box`] so the work cannot be optimized away.
    pub fn bench_n<R>(&mut self, group: &str, id: &str, nodes: usize, f: impl FnMut() -> R) {
        self.bench_impl(group, id, nodes, None, f);
    }

    /// [`Runner::bench_n`] with a per-run work-unit count attached (for
    /// throughput benchmarks: `bench-check` reports `states / best_ns`
    /// as a rate).
    pub fn bench_states<R>(
        &mut self,
        group: &str,
        id: &str,
        nodes: usize,
        states: u64,
        f: impl FnMut() -> R,
    ) {
        self.bench_impl(group, id, nodes, Some(states), f);
    }

    fn bench_impl<R>(
        &mut self,
        group: &str,
        id: &str,
        nodes: usize,
        states: Option<u64>,
        mut f: impl FnMut() -> R,
    ) {
        let name = format!("{group}/{id}");
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // Estimate the cost of one call (running it at least once also
        // warms caches and lazy initialization).
        let t0 = Instant::now();
        black_box(f());
        let estimate = t0.elapsed().max(Duration::from_nanos(1));

        // Pick iterations per batch so that MIN_ITERS batches fill the
        // budget; a call longer than that still gets its MIN_ITERS.
        let per_batch = (self.budget.as_nanos() / u128::from(MIN_ITERS) / estimate.as_nanos())
            .clamp(1, 1 << 20) as u64;
        let mut best = Duration::MAX;
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let started = Instant::now();
        while iters < MIN_ITERS * per_batch || started.elapsed() < self.budget {
            let b0 = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            let batch = b0.elapsed();
            best = best.min(batch / per_batch as u32);
            total += batch;
            iters += per_batch;
        }
        let mean = total / iters.max(1) as u32;
        println!(
            "{name:<48} best {:>12}  mean {:>12}  ({iters} iters)",
            fmt_duration(best),
            fmt_duration(mean),
        );
        self.records.push(Record {
            group: group.to_string(),
            id: id.to_string(),
            nodes: Some(nodes),
            states,
            best_ns: best.as_nanos(),
            mean_ns: mean.as_nanos(),
            iters,
        });
    }

    /// Print a closing line (and warn when a filter matched nothing);
    /// when `IC_BENCH_JSON` is set, write the JSON report there.
    ///
    /// # Panics
    /// Panics if the JSON report cannot be written.
    pub fn finish(self) {
        if self.records.is_empty() {
            match &self.filter {
                Some(f) => println!("no benchmarks matched filter {f:?}"),
                None => println!("no benchmarks ran"),
            }
        } else {
            println!("{} benchmark(s) done", self.records.len());
        }
        if let Some(path) = &self.json_path {
            // `IC_BENCH_APPEND=1` merges into an existing report
            // instead of overwriting it. This is how the several
            // `[[bench]]` targets share one `BENCH.json`.
            let append = std::env::var("IC_BENCH_APPEND").is_ok_and(|v| !v.is_empty() && v != "0");
            let old = if append {
                std::fs::read_to_string(path).unwrap_or_default()
            } else {
                String::new()
            };
            let body: Vec<String> = merge(&old, self.records)
                .iter()
                .map(|r| format!("  {}", r.to_json()))
                .collect();
            let doc = format!(
                "{{\"schema\": \"ic-bench/1\", \"budget_ms\": {}, \"results\": [\n{}\n]}}\n",
                self.budget.as_millis(),
                body.join(",\n"),
            );
            std::fs::write(path, doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("wrote {path}");
        }
    }
}

/// The records of the report text `old` followed by `new`: an old
/// record stays unless `new` has one of the same group and id, or
/// [`Record::from_json`] rejects it (so does all of `old` when it is
/// not a report) — `bench-check`, not the merge, reports bad rows.
fn merge(old: &str, new: Vec<Record>) -> Vec<Record> {
    let doc = parse(old).ok();
    let results = doc.as_ref().and_then(|d| d.get("results")?.as_arr());
    let mut kept: Vec<Record> = results
        .into_iter()
        .flatten()
        .filter_map(|rec| Record::from_json(rec).ok())
        .filter(|o| !new.iter().any(|r| r.group == o.group && r.id == o.id))
        .collect();
    kept.extend(new);
    kept
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.00 s");
    }

    fn runner(budget_ms: u64, filter: Option<&str>) -> Runner {
        Runner {
            budget: Duration::from_millis(budget_ms),
            filter: filter.map(String::from),
            json_path: None,
            records: Vec::new(),
        }
    }

    #[test]
    fn runner_counts_and_filters() {
        let mut r = runner(1, Some("match"));
        r.bench_n("group", "matching", 2, || 1 + 1);
        r.bench_states("group", "skipped", 2, 2, || 1 + 1);
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn a_closure_that_outlasts_the_budget_is_still_timed_five_times() {
        let mut r = runner(1, None);
        let mut calls = 0u64;
        r.bench_n("g", "slow", 1, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(3));
        });
        let rec = &r.records[0];
        assert_eq!(rec.iters, MIN_ITERS);
        assert_eq!(calls, MIN_ITERS + 1, "one warm-up, then the floor");
        assert!(rec.best_ns <= rec.mean_ns);
    }

    #[test]
    fn merge_replaces_same_id_keeps_others_and_drops_malformed_rows() {
        let row = |id: &str, best: u128| Record {
            group: "g".into(),
            id: id.into(),
            nodes: None,
            states: Some(7),
            best_ns: best,
            mean_ns: best,
            iters: MIN_ITERS,
        };
        let old = format!(
            "{{\"schema\": \"ic-bench/1\", \"budget_ms\": 1, \"results\": [{}, {}, \
             {{\"group\": \"g\", \"id\": \"no_times\", \"nodes\": null, \"states\": null, \"iters\": 9}}]}}",
            row("kept", 1).to_json(),
            row("replaced", 2).to_json(),
        );
        let merged = merge(&old, vec![row("replaced", 3), row("added", 4)]);
        let got: Vec<(&str, u128)> = merged.iter().map(|r| (r.id.as_str(), r.best_ns)).collect();
        assert_eq!(got, [("kept", 1), ("replaced", 3), ("added", 4)]);
        assert_eq!(merged[0].states, Some(7));
        assert_eq!(merge("not a report", vec![row("only", 5)]).len(), 1);
    }

    #[test]
    fn records_round_trip_through_the_json_parser() {
        let mut r = runner(1, None);
        r.bench_n("g", "with \"quotes\"", 42, || 1 + 1);
        r.bench_states("g", "throughput", 7, 900, || 1 + 1);
        let body: Vec<String> = r.records.iter().map(Record::to_json).collect();
        let doc = format!(
            "{{\"schema\": \"ic-bench/1\", \"budget_ms\": 1, \"results\": [{}]}}",
            body.join(",")
        );
        let json = ic_sim::json::parse(&doc).expect("report parses");
        assert_eq!(
            json.get("schema").and_then(|s| s.as_str()),
            Some("ic-bench/1")
        );
        let results = json.get("results").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("id").and_then(|s| s.as_str()),
            Some("with \"quotes\"")
        );
        assert_eq!(results[0].get("nodes").and_then(|n| n.as_usize()), Some(42));
        assert_eq!(results[0].get("states"), Some(&ic_sim::json::Json::Null));
        assert_eq!(results[1].get("states").and_then(|n| n.as_u64()), Some(900));
        assert!(results[0].get("iters").and_then(|n| n.as_u64()).unwrap() >= 1);
    }
}
