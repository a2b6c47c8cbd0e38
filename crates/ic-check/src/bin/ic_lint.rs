//! `ic-lint`: a zero-dependency source lint for the panic-prone
//! idioms the workspace bans in protocol code.
//!
//! The networked crates (`ic-net`, `ic-sim`, `ic-fed`) must never
//! bring a coordinator down on a malformed frame or a lost invariant
//! — every error has to travel as a typed message or a `Result`.
//! Clippy has no offline-friendly lint for "no unwraps in these
//! crates only", so this binary greps for the banned forms itself:
//!
//! * `.unwrap()` — panics on `None`/`Err`;
//! * `.expect("` — ditto with a message (the string-literal form;
//!   parser methods named `expect` take non-string arguments and are
//!   fine);
//! * `panic!(` — explicit panic;
//! * ` as u8` / `u16` / `u32` / `i8` / `i16` / `i32` — silently
//!   truncating numeric narrowing (use `try_from`);
//! * `thread::spawn` — the reactor owns every connection on one
//!   thread; spawning in protocol code reintroduces the
//!   thread-per-connection model the event loop replaced.
//!
//! Test code is exempt: `#[cfg(test)]` modules are skipped by brace
//! tracking, and a line carrying a `lint:allow` marker is skipped
//! with the reason shown in `--verbose` mode. Only *inline* test
//! modules are exempt — an out-of-line `tests.rs` would be linted as
//! protocol code. Prints how many files it scanned (`scripts/verify.sh`
//! checks that against `find`) and exits non-zero if any violation is
//! found.
//!
//! ```text
//! ic-lint [--verbose] [DIR ...]   # default: ic-net, ic-sim and ic-fed src dirs
//! ```

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The banned forms, as (needle, rule name, advice).
const RULES: &[(&str, &str, &str)] = &[
    (".unwrap()", "no-unwrap", "return a typed error instead"),
    (".expect(\"", "no-expect", "return a typed error instead"),
    ("panic!(", "no-panic", "protocol code must not panic"),
    (" as u8", "no-narrowing", "use u8::try_from"),
    (" as u16", "no-narrowing", "use u16::try_from"),
    (" as u32", "no-narrowing", "use u32::try_from"),
    (" as i8", "no-narrowing", "use i8::try_from"),
    (" as i16", "no-narrowing", "use i16::try_from"),
    (" as i32", "no-narrowing", "use i32::try_from"),
    (
        "thread::spawn",
        "no-spawn",
        "the reactor owns all connections on one thread",
    ),
];

/// One finding.
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    advice: &'static str,
    text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.file.display(),
            self.line,
            self.rule,
            self.text.trim(),
            self.advice
        )
    }
}

/// Strip line comments and the contents of string literals so the
/// needles only match real code. A cheap single-pass scanner: it
/// understands `//` comments, `"…"` strings with escapes, and
/// lifetime/char tokens well enough for this codebase's style.
/// String *contents* are blanked but the delimiting quotes stay, so
/// `.expect("` still matches on the quote following the paren.
fn strip_noise(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push('"');
            }
            _ => out.push(c),
        }
    }
    out
}

/// A `lint:allow`-suppressed line, reported under `--verbose`.
struct Allowed {
    file: PathBuf,
    line: usize,
    reason: String,
}

/// Lint one file, appending findings. Skips `#[cfg(test)]` blocks by
/// tracking the brace depth of the item that follows the attribute.
fn lint_file(path: &Path, src: &str, findings: &mut Vec<Finding>, allowed: &mut Vec<Allowed>) {
    let mut skip_depth: Option<i64> = None; // brace depth at cfg(test) entry
    let mut depth: i64 = 0;
    let mut pending_test_attr = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = strip_noise(raw);
        let trimmed = line.trim();
        if skip_depth.is_none() {
            if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
                pending_test_attr = true;
            } else if pending_test_attr && trimmed.contains('{') {
                skip_depth = Some(depth);
                pending_test_attr = false;
            } else if pending_test_attr && !trimmed.starts_with("#[") && !trimmed.is_empty() {
                // Attribute applied to a braceless item (e.g. a
                // `use`): nothing to skip.
                pending_test_attr = false;
            }
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(d) = skip_depth {
            if depth <= d {
                skip_depth = None;
            }
            continue;
        }
        if let Some(at) = raw.find("lint:allow") {
            let reason = raw[at + "lint:allow".len()..]
                .trim_start_matches([':', ' ', '-'])
                .trim();
            allowed.push(Allowed {
                file: path.to_path_buf(),
                line: idx + 1,
                reason: if reason.is_empty() {
                    "(no reason given)".to_string()
                } else {
                    reason.to_string()
                },
            });
            continue;
        }
        let doc = trimmed.starts_with("///") || trimmed.starts_with("//!");
        if doc {
            continue;
        }
        for &(needle, rule, advice) in RULES {
            if line.contains(needle) {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    rule,
                    advice,
                    text: raw.to_string(),
                });
            }
        }
    }
}

/// Collect `.rs` files under `dir`, skipping `tests/` and `benches/`
/// directories (integration tests may unwrap freely).
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "tests" && name != "benches" {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let verbose = args.iter().any(|a| a == "--verbose");
    args.retain(|a| a != "--verbose");
    let dirs: Vec<PathBuf> = if args.is_empty() {
        vec![
            PathBuf::from("crates/ic-net/src"),
            PathBuf::from("crates/ic-sim/src"),
            PathBuf::from("crates/ic-fed/src"),
            PathBuf::from("crates/ic-check/src"),
        ]
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let mut files = Vec::new();
    for d in &dirs {
        if !d.exists() {
            eprintln!("ic-lint: no such directory: {}", d.display());
            return ExitCode::from(2);
        }
        collect(d, &mut files);
    }

    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    for f in &files {
        match fs::read_to_string(f) {
            Ok(src) => lint_file(f, &src, &mut findings, &mut allowed),
            Err(e) => {
                eprintln!("ic-lint: {}: {e}", f.display());
                return ExitCode::from(2);
            }
        }
    }

    if verbose {
        for a in &allowed {
            println!(
                "ic-lint: allowed {}:{}: {}",
                a.file.display(),
                a.line,
                a.reason
            );
        }
    }

    // Printed whatever the verdict: verify.sh holds this count against
    // `find`, so a source file can never drop out of the gate unseen.
    println!(
        "ic-lint: scanned {} files in {}",
        files.len(),
        dirs.iter()
            .map(|d| d.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    if findings.is_empty() {
        println!("ic-lint: clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("ic-lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}
