//! One benchmark run: a discarded warm-up repetition, then timed
//! repetitions for the asked number of seconds, folded into the named
//! metrics.

use std::fmt::Write as _;
use std::io;
use std::time::{Duration, Instant};

use ic_dag::rng::XorShift64;

use crate::host::Gate;
use crate::layers;
use crate::spans::{self, Recorder};
use crate::stats::{self, Summary};
use crate::workloads::{run_rep, setup_only, Env, Rep, Workload};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Median/min/max over repetitions where the metric has them, and
    /// which statistic of them `value` is.
    pub over_reps: Option<(&'static str, Summary)>,
    /// Sample count behind a pooled percentile, ratio or span median
    /// (0: not counted).
    pub samples: usize,
}

impl Metric {
    /// The median over repetitions.
    pub fn of_reps(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let s = stats::summarize(values);
        Metric {
            name: name.to_string(),
            unit,
            value: s.map_or(0.0, |s| s.median),
            over_reps: s.map(|s| ("median", s)),
            samples: values.len(),
        }
    }

    /// The quartile over repetitions on the undisturbed side
    /// ([`stats::quiet_quartile`]).
    pub fn of_quiet_reps(
        name: &str,
        unit: &'static str,
        values: &[f64],
        lower_is_better: bool,
    ) -> Metric {
        let mut m = Metric::of_reps(name, unit, values);
        m.value = stats::quiet_quartile(values, lower_is_better).unwrap_or(0.0);
        m.over_reps = m.over_reps.map(|(_, s)| ("quiet quartile", s));
        m
    }

    pub fn single(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            over_reps: None,
            samples,
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Tasks assigned over every timed repetition.
    pub attempted: u64,
    /// Failed operations over every timed repetition.
    pub failed: u64,
    pub failures: Vec<String>,
    pub reps: usize,
    /// Free text printed under the metrics (the budget lines).
    pub notes: String,
    /// How long the run waited for a disturbed machine to calm down.
    pub gate_waited: Duration,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with its unit, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<38} {:>14.4} {:<6}", m.name, m.value, m.unit);
            match m.over_reps {
                Some((which, s)) => {
                    let _ = writeln!(
                        out,
                        " {which} of {} reps [min {:.4}, median {:.4}, max {:.4}]",
                        s.n, s.min, s.median, s.max
                    );
                }
                None if m.samples > 0 => {
                    let _ = writeln!(out, " n={}", m.samples);
                }
                None => out.push('\n'),
            }
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<38} {:>14.4} {:<6} {} failed of {} tasks assigned",
            "failed_share", share, "ratio", self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out.push_str(&self.notes);
        out
    }

    /// The one-line JSON result the driver reads.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A float with all its digits (Rust's shortest round-trip form);
/// JSON has no NaN or infinity, so those become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Set-ups made for their own sake before every repetition of an
/// untraced run: a repetition sets up once, and a handful of samples a
/// run is too few for a steady `setup_s`.
const EXTRA_SETUPS: usize = 2;

/// What every repetition of one run shares.
struct Runner<'a> {
    env: &'a Env,
    w: &'a Workload,
    seed: u64,
    /// Service order and crash points.
    rng: XorShift64,
    gate: Gate,
    /// Set-up times of the set-ups made for their own sake (none in
    /// a traced run, which does not report `setup_s`).
    extra_setups: usize,
    setups_s: Vec<f64>,
}

impl Runner<'_> {
    fn rep(&mut self, traced: bool, audit: bool) -> io::Result<(Rep, Recorder)> {
        self.gate.wait_until_quiet();
        for _ in 0..self.extra_setups {
            self.setups_s.push(setup_only(self.env, self.w, self.seed)?);
        }
        let mut rec = Recorder::new(traced);
        let rep = run_rep(self.env, self.w, self.seed, &mut self.rng, &mut rec, audit)?;
        Ok((rep, rec))
    }

    /// Repeat for about `budget`: one more repetition is started as
    /// long as the previous one's duration (`estimate` at first) still
    /// fits. The last timed repetition of a WAL workload is audited.
    /// `alternate` traces every second repetition and ends on one.
    fn timed(
        &mut self,
        budget: Duration,
        mut estimate: Duration,
        alternate: bool,
    ) -> io::Result<Vec<(Rep, Recorder)>> {
        let start = Instant::now();
        let waited_before = self.gate.waited;
        let mut reps = Vec::new();
        loop {
            // Time spent waiting for a quiet machine is not measuring.
            let waited = self.gate.waited - waited_before;
            let last = start.elapsed().saturating_sub(waited) + estimate * 2 > budget;
            let (t0, w0) = (Instant::now(), self.gate.waited);
            reps.push(self.rep(alternate && reps.len() % 2 == 1, last)?);
            estimate = t0.elapsed().saturating_sub(self.gate.waited - w0);
            if last && !(alternate && reps.len() % 2 == 1) {
                return Ok(reps);
            }
        }
    }
}

fn pooled_percentiles(reps: &[&Rep], pick: fn(&Rep) -> &Vec<u64>) -> (f64, f64, usize) {
    let mut all: Vec<u64> = reps.iter().flat_map(|r| pick(r).iter().copied()).collect();
    all.sort_unstable();
    let at = |p: f64| {
        // Below the "ten samples beyond" rule the highest sample stands
        // in (smoke-sized runs only; the rule holds at benchmark size).
        stats::percentile(&all, p)
            .or(all.last().copied())
            .unwrap_or(0) as f64
            / 1e3
    };
    (at(50.0), at(99.0), all.len())
}

fn values(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(|r| f(r)).collect()
}

/// The median of `samples_ns` in microseconds (0 for none).
fn p50_us(samples_ns: &[u64]) -> f64 {
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2)
        .map_or(0.0, |&ns| ns as f64 / 1e3)
}

/// The end-to-end metrics, measured with tracing off. The timed ones
/// are quiet-side quartiles over repetitions (`setup_s` over the
/// repetitions' set-ups and `extra_setups_s` together); memory is a
/// median.
pub fn end_to_end(reps: &[&Rep], extra_setups_s: &[f64]) -> Vec<Metric> {
    let rss = values(reps, |r| {
        r.tally.server_rss_and_threads.map_or(0.0, |(mb, _)| mb)
    });
    let turnaround = values(reps, |r| p50_us(&r.tally.turnaround_ns));
    let mut setups = values(reps, |r| r.setup_s);
    setups.extend_from_slice(extra_setups_s);
    vec![
        Metric::of_quiet_reps("setup_s", "s", &setups, true),
        Metric::of_quiet_reps("tasks_per_s", "1/s", &values(reps, Rep::tasks_per_s), false),
        Metric::of_quiet_reps("turnaround_p50_us", "us", &turnaround, true),
        Metric::of_reps("server_rss_mb", "MB", &rss),
    ]
}

/// What the workload's own repetitions say about single layers.
pub fn workload_layers(
    w: &Workload,
    plain: &[&Rep],
    traced: &[&Rep],
    recs: &[&Recorder],
) -> Vec<Metric> {
    let all: Vec<&Rep> = plain.iter().chain(traced).copied().collect();
    let cpu_s: f64 = all.iter().map(|r| r.server_cpu_s).sum();
    let wall_s: f64 = all.iter().map(|r| r.server_wall_s).sum();
    let tasks: u64 = all.iter().map(|r| r.nodes).sum();
    let granted: u64 = all.iter().map(|r| r.tally.tasks_assigned).sum();
    let frames: u64 = all.iter().map(|r| r.tally.assign_frames).sum();
    let opt =
        |f: fn(&Rep) -> Option<f64>| -> Vec<f64> { all.iter().filter_map(|r| f(r)).collect() };
    let plain_tps = stats::median(&values(plain, Rep::tasks_per_s)).unwrap_or(0.0);
    let traced_tps = stats::median(&values(traced, Rep::tasks_per_s)).unwrap_or(0.0);
    // The latencies that do not repeat well enough to carry a bound,
    // from the untraced repetitions.
    let (a50, a99, an) = pooled_percentiles(plain, |r| &r.tally.assign_ns);
    let (_, t99, tn) = pooled_percentiles(plain, |r| &r.tally.turnaround_ns);
    let mut out = vec![
        Metric::single("assign_p50_us", "us", a50, an),
        Metric::single("assign_p99_us", "us", a99, an),
        Metric::single("turnaround_p99_us", "us", t99, tn),
        Metric::single(
            "trace_overhead_pct",
            "%",
            if plain_tps > 0.0 {
                (plain_tps - traced_tps) / plain_tps * 100.0
            } else {
                0.0
            },
            all.len(),
        ),
        Metric::single(
            "server_busy_share",
            "ratio",
            cpu_s / wall_s.max(1e-9),
            all.len(),
        ),
        Metric::single(
            "sched.batch_fill",
            "ratio",
            granted as f64 / (frames.max(1) * w.serve.batch) as f64,
            usize::try_from(frames).unwrap_or(usize::MAX),
        ),
        Metric::of_reps(
            "sched.waits",
            "count",
            &values(&all, |r| r.tally.waits as f64),
        ),
        // Steady where the server is busy, not where it naps: 92 or
        // 132 us per task on `paced` from one ten-run set to the next.
        Metric::single(
            "server_cpu_us_per_task",
            "us",
            cpu_s * 1e6 / tasks.max(1) as f64,
            all.len(),
        ),
        Metric::of_reps(
            "cli.spawn_to_listen_ms",
            "ms",
            &values(&all, |r| r.spawn_to_listen_ms),
        ),
        // Exact, so it reads the same on every run: no bound to carry.
        Metric::of_reps(
            "wire_bytes_per_task",
            "B",
            &values(&all, |r| {
                (r.tally.bytes_sent + r.tally.bytes_received) as f64 / r.nodes as f64
            }),
        ),
        Metric::of_reps("drain_ms", "ms", &values(&all, |r| r.drain_ms)),
        Metric::of_reps(
            "drain.wait_tail_ms",
            "ms",
            &values(&all, |r| r.wait_tail_ms),
        ),
        // The workload-specific end-to-end numbers; 0 where the
        // workload does not define them.
        Metric::of_reps("efficiency", "ratio", &opt(|r| r.efficiency)),
        Metric::of_reps("recover_ms", "ms", &opt(|r| r.recover_ms)),
        Metric::of_reps(
            "audit_events_per_s",
            "1/s",
            &opt(|r| r.audit.map(|(n, wall)| n as f64 / wall.as_secs_f64())),
        ),
    ];
    // Span medians over every traced repetition.
    let mut by_name: std::collections::BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    for rec in recs {
        for (name, (durs, selfs)) in spans::by_name(rec.spans()) {
            let e = by_name.entry(name).or_default();
            e.0.extend(durs);
            e.1.extend(selfs);
        }
    }
    for (name, unit, scale, own) in SPAN_METRICS {
        let vals = by_name.get(name).map(|(d, s)| if *own { s } else { d });
        let scaled: Vec<f64> = vals
            .map(|v| v.iter().map(|ns| ns / scale).collect())
            .unwrap_or_default();
        let metric = if *own {
            format!("span.{name}.self_{unit}")
        } else {
            format!("span.{name}_{unit}")
        };
        out.push(Metric::single(
            &metric,
            unit,
            stats::median(&scaled).unwrap_or(0.0),
            scaled.len(),
        ));
    }
    out
}

/// Span name, unit, nanoseconds per unit, and whether the median is of
/// self time (duration minus children) instead of duration.
const SPAN_METRICS: &[(&str, &str, f64, bool)] = &[
    ("setup", "ms", 1e6, false),
    ("serve", "ms", 1e6, false),
    ("serve", "ms", 1e6, true),
    ("turnaround", "us", 1e3, false),
    ("turnaround", "us", 1e3, true),
    ("done_to_ack", "us", 1e3, false),
    ("request_to_assign", "us", 1e3, false),
    ("client.encode", "us", 1e3, true),
    ("client.decode", "us", 1e3, true),
    ("client.syscall", "us", 1e3, true),
    ("audit", "ms", 1e6, false),
    ("kill", "ms", 1e6, false),
    ("respawn", "ms", 1e6, false),
    ("replay", "ms", 1e6, false),
    ("first_assign", "ms", 1e6, false),
];

/// Run `w` once as the driver asks: `--trace 0` yields the end-to-end
/// metrics, `--trace 1` the per-layer ones.
pub fn run_workload(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> io::Result<RunResult> {
    let mut runner = Runner {
        env,
        w,
        seed,
        rng: XorShift64::new(seed),
        gate: Gate::open(env.dir.join("../host-speed")),
        extra_setups: if trace { 0 } else { EXTRA_SETUPS },
        setups_s: Vec::new(),
    };
    let t0 = Instant::now();
    let (warm, _) = runner.rep(false, false)?;
    let estimate = t0.elapsed().saturating_sub(runner.gate.waited);
    runner.setups_s.clear();
    if !warm.failures.is_empty() {
        // Not timed, but still wrong.
        return Ok(tally_result(Vec::new(), &[&warm]));
    }
    let budget = Duration::from_secs_f64(seconds);
    // A traced run spends half its time on the workload, traced and
    // untraced repetitions in turn, and the other half on the layers
    // timed in this process.
    let timed = runner.timed(if trace { budget / 2 } else { budget }, estimate, trace)?;
    let reps: Vec<&Rep> = timed.iter().map(|(rep, _)| rep).collect();
    let mut result = if trace {
        let plain: Vec<&Rep> = reps.iter().copied().step_by(2).collect();
        let traced: Vec<&Rep> = reps.iter().copied().skip(1).step_by(2).collect();
        let recs: Vec<&Recorder> = timed
            .iter()
            .skip(1)
            .step_by(2)
            .map(|(_, rec)| rec)
            .collect();
        if let Some(rec) = recs.last() {
            let path = env.dir.join(format!("../trace-{}.jsonl", w.name));
            std::fs::write(path, rec.to_jsonl())?;
        }
        let mut metrics = workload_layers(w, &plain, &traced, &recs);
        let (layer_metrics, budget_lines) = layers::measure(
            env,
            (budget + runner.gate.waited).saturating_sub(t0.elapsed()),
        )?;
        metrics.extend(layer_metrics);
        let mut result = tally_result(metrics, &reps);
        result.notes = budget_lines;
        result
    } else {
        tally_result(end_to_end(&reps, &runner.setups_s), &reps)
    };
    result.gate_waited = runner.gate.waited;
    Ok(result)
}

fn tally_result(metrics: Vec<Metric>, reps: &[&Rep]) -> RunResult {
    let failures: Vec<String> = reps
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    RunResult {
        metrics,
        attempted: reps.iter().map(|r| r.tally.tasks_assigned).sum(),
        failed: failures.len() as u64,
        failures,
        reps: reps.len(),
        notes: String::new(),
        gate_waited: Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            metrics: vec![
                Metric::of_reps("setup_s", "s", &[0.25, 0.5, 0.75]),
                Metric::single("assign_p50_us", "us", 12.5, 100),
            ],
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            reps: 3,
            notes: String::new(),
            gate_waited: Duration::ZERO,
        };
        let line = r.to_json_line();
        let v = ic_sim::json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&ic_sim::json::Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(10));
        assert_eq!(v.get("failed").and_then(|a| a.as_u64()), Some(0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.5)
        );
        assert_eq!(
            m.get("assign_p50_us")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("us")
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert!(r.render().contains("failed_share"));
    }
}
