//! Plain-text edge-list serialization — the dual of `ic-cli`'s parser.
//!
//! Format, one item per line: `node NAME` declarations for every task
//! (named by its label when present, else `tN`), then `A -> B` arcs.
//! Deterministic output (nodes and arcs in id order), suitable for
//! diffing and for round-tripping through the `ic-prio` tool.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::dag::Dag;

/// The display name used for node `v` in the edge-list format: its
/// label with whitespace/`#` replaced by `_`, or `tN` when unlabeled.
/// Names are deduplicated with an `.N` suffix when labels collide,
/// skipping any suffixed name another node already has.
fn names(dag: &Dag) -> Vec<String> {
    let mut taken = HashSet::new();
    // Per base name, the last suffix tried.
    let mut suffix = HashMap::new();
    dag.node_ids()
        .map(|v| {
            let base = {
                let l = dag.label(v);
                if l.is_empty() {
                    format!("t{}", v.index())
                } else {
                    l.chars()
                        .map(|c| {
                            if c.is_whitespace() || c == '#' {
                                '_'
                            } else {
                                c
                            }
                        })
                        .collect()
                }
            };
            let mut name = base.clone();
            while taken.contains(&name) {
                let k = suffix.entry(base.clone()).or_insert(0usize);
                *k += 1;
                name = format!("{base}.{k}");
            }
            taken.insert(name.clone());
            name
        })
        .collect()
}

/// Serialize `dag` to the edge-list format.
///
/// ```
/// use ic_dag::{builder::from_arcs, serialize::to_edge_list};
/// let g = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
/// let text = to_edge_list(&g);
/// assert!(text.contains("t0 -> t1"));
/// ```
pub fn to_edge_list(dag: &Dag) -> String {
    let names = names(dag);
    let mut out = String::new();
    for v in dag.node_ids() {
        let _ = writeln!(out, "node {}", names[v.index()]);
    }
    for (u, v) in dag.arcs() {
        let _ = writeln!(out, "{} -> {}", names[u.index()], names[v.index()]);
    }
    out
}

/// The node names [`to_edge_list`] would use, indexed by id — for
/// callers that need to correlate ids with the serialized text.
pub fn edge_list_names(dag: &Dag) -> Vec<String> {
    names(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_arcs;
    use crate::DagBuilder;

    #[test]
    fn serializes_unlabeled_dags() {
        let g = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let text = to_edge_list(&g);
        assert!(text.contains("node t0"));
        assert!(text.contains("t2 -> t3"));
        assert_eq!(text.lines().count(), 4 + 4);
    }

    #[test]
    fn labels_are_sanitized() {
        let mut b = DagBuilder::new();
        let u = b.add_node("build step #1");
        let v = b.add_node("test");
        b.add_arc(u, v).unwrap();
        let g = b.build().unwrap();
        let text = to_edge_list(&g);
        assert!(text.contains("node build_step__1"));
        assert!(!text.trim_start_matches("node build_step__1").contains(" #"));
    }

    #[test]
    fn duplicate_labels_are_suffixed() {
        let mut b = DagBuilder::new();
        let u = b.add_node("x");
        let v = b.add_node("x");
        b.add_arc(u, v).unwrap();
        let g = b.build().unwrap();
        let n = edge_list_names(&g);
        assert_eq!(n, vec!["x".to_string(), "x.1".to_string()]);
    }

    #[test]
    fn suffixes_skip_names_already_taken() {
        for (labels, want) in [
            (["a", "a", "a.1"], ["a", "a.1", "a.1.1"]),
            (["a.1", "a", "a"], ["a.1", "a", "a.2"]),
        ] {
            let mut b = DagBuilder::new();
            for l in labels {
                b.add_node(l);
            }
            assert_eq!(edge_list_names(&b.build().unwrap()), want);
        }
    }

    #[test]
    fn output_is_deterministic() {
        let g = from_arcs(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        assert_eq!(to_edge_list(&g), to_edge_list(&g));
    }
}
