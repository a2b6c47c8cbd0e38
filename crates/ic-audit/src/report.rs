//! Audit reports and their text / JSON renderings.
//!
//! JSON is emitted by hand (the workspace builds with zero external
//! dependencies); the escaping covers everything our messages can
//! contain, including the paper's `§`, `▷`, and subscript glyphs.

use std::fmt::Write as _;

use crate::diag::{code_name, Diagnostic, Severity};

/// The audit outcome for one registered claim.
#[derive(Debug)]
pub struct ClaimResult {
    /// Registry key, e.g. `"mesh/out-mesh-5"`.
    pub id: &'static str,
    /// Paper location, e.g. `"Figs. 5–7, §4"`.
    pub source: &'static str,
    /// Human statement of the claim.
    pub title: &'static str,
    /// Instance size in nodes.
    pub nodes: usize,
    /// Whether the instance was certified exhaustively (lattice sweep)
    /// or only structurally.
    pub exhaustive: bool,
    /// Findings; empty means the claim holds.
    pub diagnostics: Vec<Diagnostic>,
}

impl ClaimResult {
    /// Did this claim pass (no error-severity findings)?
    pub fn passed(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }
}

/// The outcome of auditing the whole claims registry.
#[derive(Debug)]
pub struct AuditReport {
    /// One entry per registered claim, in registry order.
    pub results: Vec<ClaimResult>,
}

impl AuditReport {
    /// No error-severity findings anywhere?
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(ClaimResult::passed)
    }

    /// Total number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.results
            .iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Human-readable multi-line report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let status = if r.passed() { "ok" } else { "FAIL" };
            let mode = if r.exhaustive {
                "exhaustive"
            } else {
                "structural"
            };
            let _ = writeln!(
                out,
                "{status:<4} {:<28} {:>4} nodes  {mode:<10} {} \u{2014} {}",
                r.id, r.nodes, r.source, r.title
            );
            for d in &r.diagnostics {
                let _ = writeln!(out, "       {d}");
            }
        }
        let passed = self.results.iter().filter(|r| r.passed()).count();
        let _ = writeln!(
            out,
            "{passed}/{} claims hold, {} error(s)",
            self.results.len(),
            self.error_count()
        );
        out
    }

    /// Machine-readable JSON report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"claims\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"source\": {}, \"nodes\": {}, \"mode\": {}, \
                 \"passed\": {}, \"diagnostics\": {}}}{}",
                json_string(r.id),
                json_string(r.source),
                r.nodes,
                json_string(if r.exhaustive {
                    "exhaustive"
                } else {
                    "structural"
                }),
                r.passed(),
                diagnostics_json(&r.diagnostics),
                if i + 1 < self.results.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "  ],\n  \"passed\": {},\n  \"errors\": {}\n}}\n",
            self.is_clean(),
            self.error_count()
        );
        out
    }
}

/// Render a list of diagnostics as a JSON array: the `--dag` audit
/// path's whole answer, and each claim's list in
/// [`AuditReport::render_json`].
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"code\": {}, \"name\": {}, \"severity\": {}, \"message\": {}}}",
            if i > 0 { ", " } else { "" },
            json_string(d.code),
            json_string(code_name(d.code)),
            json_string(&d.severity.to_string()),
            json_string(&d.message)
        );
    }
    out.push(']');
    out
}

/// Escape a string as a JSON string literal — the workspace's one
/// escaper, re-exported so `ic_audit::report::json_string` stays a path.
pub use ic_sim::json::json_string;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::NOT_A_TOPOLOGICAL_ORDER;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{00a7}4 \u{25b7}"), "\"\u{00a7}4 \u{25b7}\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn report_renders_status_lines() {
        let report = AuditReport {
            results: vec![
                ClaimResult {
                    id: "x/good",
                    source: "Fig. 0",
                    title: "fine",
                    nodes: 3,
                    exhaustive: true,
                    diagnostics: vec![],
                },
                ClaimResult {
                    id: "x/bad",
                    source: "Fig. 0",
                    title: "broken",
                    nodes: 3,
                    exhaustive: true,
                    diagnostics: vec![Diagnostic::error(NOT_A_TOPOLOGICAL_ORDER, "boom")],
                },
            ],
        };
        assert!(!report.is_clean());
        assert_eq!(report.error_count(), 1);
        let text = report.render_text();
        assert!(text.contains("ok   x/good"));
        assert!(text.contains("FAIL x/bad"));
        assert!(text.contains("1/2 claims hold, 1 error(s)"));
        let json = report.render_json();
        assert!(json.contains("\"code\": \"IC0101\""));
        assert!(json.contains("\"passed\": false"));
    }
}
