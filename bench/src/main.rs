//! `ic-e2e`: the real-process end-to-end benchmark of `ic-prio serve`.
//!
//! ```text
//! ic-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ic-e2e --suite [--runs <r>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ic-e2e --compare <a.json> <b.json>
//! ic-e2e --smoke
//! ```
//!
//! Run from the repository root through `bench/run.sh`, which builds
//! `ic-prio` and this binary first. See `bench/README.md`.

mod client;
mod compare;
mod dags;
mod host;
mod layers;
mod procfs;
mod run;
mod server;
mod spans;
mod stats;
mod workloads;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Env, Workload, WORKLOADS};

/// Everything the benchmark writes goes under here.
const OUT_DIR: &str = "bench/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ic-e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
         ic-e2e --suite [--runs <r>] [--seed <n>] [--seconds <s>] [--trace <0|1>]\n  \
         ic-e2e --compare <a.json> <b.json>\n  ic-e2e --smoke",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    suite: bool,
    smoke: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut a = Args {
        seed: 1,
        seconds: 10.0,
        runs: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--suite" => a.suite = true,
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((it.next()?.clone(), it.next()?.clone())),
            "--workload" => a.workload = Some(it.next()?.clone()),
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--seconds" => a.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--runs" => a.runs = it.next()?.parse().ok().filter(|r| *r > 0)?,
            "--trace" => {
                a.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(a)
}

/// A fresh scratch directory under `bench/out/`, removed on drop: a
/// saturate trace is tens of megabytes and nobody reads it afterwards.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Scratch> {
        let dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn env() -> io::Result<(Env, Scratch)> {
    let scratch = Scratch::new()?;
    let env = Env {
        ic_prio: server::ic_prio_path()?,
        dir: scratch.0.clone(),
    };
    Ok((env, scratch))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload as the driver runs it; the result is the last line.
fn contract_run(w: &Workload, a: &Args) -> io::Result<ExitCode> {
    let (env, _scratch) = env()?;
    let result = run::run_workload(&env, w, a.seed, a.seconds, a.trace)?;
    println!("# {}: {}", w.name, w.why);
    println!(
        "# seed {} trace {}: {} timed repetitions ({:.1} s spent waiting for a disturbed machine), WAL on {} (host loopback, {} hardware threads)",
        a.seed,
        u8::from(a.trace),
        result.reps,
        result.gate_waited.as_secs_f64(),
        procfs::fs_type_of(&env.dir),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    print!("{}", result.render());
    println!("{}", result.to_json_line());
    Ok(exit_code(result.correct()))
}

/// Every workload, `runs` times each with consecutive seeds; the
/// end-to-end values land in `bench/out/results-<timestamp>.json`.
fn suite(a: &Args) -> io::Result<ExitCode> {
    let (env, _scratch) = env()?;
    let mut set = compare::Set::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for run in 0..a.runs {
            let seed = a.seed + run as u64;
            let result = run::run_workload(&env, w, seed, a.seconds, false)?;
            println!(
                "# {} seed {seed}: {} timed repetitions ({:.1} s spent waiting for a disturbed machine)",
                w.name,
                result.reps,
                result.gate_waited.as_secs_f64()
            );
            print!("{}", result.render());
            ok &= result.correct();
            let entry = set.entry(w.name.to_string()).or_default();
            for m in &result.metrics {
                entry
                    .entry(m.name.clone())
                    .or_insert_with(|| (m.unit.to_string(), Vec::new()))
                    .1
                    .push(m.value);
            }
        }
        if a.trace {
            let result = run::run_workload(&env, w, a.seed, a.seconds, true)?;
            println!("# {} traced: {} repetitions", w.name, result.reps);
            print!("{}", result.render());
            ok &= result.correct();
        }
    }
    if a.runs >= 2 {
        println!(
            "# spread = distance between the quartiles of the runs as a share of their median"
        );
        for (workload, metrics) in &set {
            for (metric, (unit, values)) in metrics {
                println!(
                    "{workload:<15} {metric:<24} median {:>13.4} {unit:<4} spread {:>5.1}%",
                    stats::median(values).unwrap_or(0.0),
                    stats::spread(values).unwrap_or(0.0) * 100.0
                );
            }
        }
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = Path::new(OUT_DIR).join(format!("results-{stamp}.json"));
    std::fs::write(&path, compare::to_json(&set, a.seconds, a.seed))?;
    println!("# results written to {}", path.display());
    Ok(exit_code(ok))
}

/// Every workload once over a small dag, checks on, numbers ignored.
fn smoke() -> io::Result<ExitCode> {
    let (env, _scratch) = env()?;
    let mut ok = true;
    for w in WORKLOADS.map(workloads::smoke_sized) {
        let mut rng = ic_dag::rng::XorShift64::new(1);
        let mut rec = spans::Recorder::new(true);
        let rep = workloads::run_rep(&env, &w, 1, &mut rng, &mut rec, true)?;
        println!(
            "smoke {:<15} {} {:>5} tasks {:>9.0} tasks/s {} spans{}",
            w.name,
            w.serve.family,
            rep.nodes,
            rep.tasks_per_s(),
            rec.spans().len(),
            if rep.failures.is_empty() {
                ""
            } else {
                "  FAILED"
            }
        );
        for f in &rep.failures {
            println!("  FAILED: {f}");
        }
        ok &= rep.failures.is_empty();
    }
    Ok(exit_code(ok))
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = compare::bounds(&read("BENCHMARK.json")?)?;
    let (sa, sb) = (
        compare::from_json(&read(a)?)?,
        compare::from_json(&read(b)?)?,
    );
    let (table, bad) = compare::compare(&sa, &sb, &bounds);
    print!("{table}");
    println!("# {bad} row(s) regressed or unresolved");
    Ok(exit_code(bad == 0))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare_files(a, b).map_err(io::Error::other)
    } else if args.smoke {
        smoke()
    } else if args.suite {
        suite(&args)
    } else if let Some(name) = &args.workload {
        match workloads::by_name(name) {
            Some(w) => contract_run(&w, &args),
            None => return usage(),
        }
    } else {
        return usage();
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ic-e2e: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sim::json::{self, Json};

    fn names(v: &Json, list: &str) -> Vec<String> {
        v.get(list)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; it must name what the code
    /// runs and prints.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = json::parse(&text).unwrap();
        let declared = v.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(declared.len(), WORKLOADS.len());
        for (d, w) in declared.iter().zip(&WORKLOADS) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(d.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200);
        }
        let printed: Vec<String> = run::end_to_end(&[], &[])
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names(&v, "end_to_end"), printed);
        let per_layer = names(&v, "per_layer");
        for m in run::workload_layers(&WORKLOADS[0], &[], &[], &[]) {
            assert!(per_layer.contains(&m.name), "{} is not declared", m.name);
        }
        assert!(compare::bounds(&text).unwrap().contains_key("setup_s"));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload paced --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("paced"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_none());
        assert!(parse_args(&["--bogus".to_string()]).is_none());
    }
}
