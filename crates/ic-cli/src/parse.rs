//! The edge-list dag format and the `--family` spec shared by
//! `serve`, `sim`, and `audit`.

use std::collections::HashMap;
use std::fmt;

use ic_dag::{Dag, DagBuilder, NodeId};

/// A parsed dag with its task names.
#[derive(Debug, Clone)]
pub struct NamedDag {
    /// The dag; node labels carry the task names.
    pub dag: Dag,
    /// Task name → node id.
    pub by_name: HashMap<String, NodeId>,
}

impl NamedDag {
    /// The name of node `v`.
    pub fn name(&self, v: NodeId) -> &str {
        self.dag.label(v)
    }

    /// Wrap a constructed dag (e.g. a paper-family instance), naming
    /// its nodes exactly as [`ic_dag::serialize::to_edge_list`] would —
    /// so names round-trip between in-memory use and serialized files.
    pub fn from_dag(dag: Dag) -> NamedDag {
        let names = ic_dag::serialize::edge_list_names(&dag);
        let by_name: HashMap<String, NodeId> =
            dag.node_ids().zip(names).map(|(v, n)| (n, v)).collect();
        NamedDag { dag, by_name }
    }
}

/// Parse errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line that is neither a comment, a `node` declaration, nor an
    /// arc.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A `node` declaration re-used an existing name.
    DuplicateNode {
        /// 1-based line number.
        line: usize,
        /// The duplicated name.
        name: String,
    },
    /// An arc from a task to itself.
    SelfLoop {
        /// 1-based line number.
        line: usize,
        /// The task name.
        name: String,
    },
    /// The arcs form a cycle — not a valid computation-dag.
    Cycle,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine { line, text } => {
                write!(
                    f,
                    "line {line}: cannot parse {text:?} (expected `node NAME` or `A -> B`)"
                )
            }
            ParseError::DuplicateNode { line, name } => {
                write!(f, "line {line}: task {name:?} declared twice")
            }
            ParseError::SelfLoop { line, name } => {
                write!(f, "line {line}: task {name:?} depends on itself")
            }
            ParseError::Cycle => write!(f, "the dependencies contain a cycle"),
        }
    }
}

impl std::error::Error for ParseError {}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Parse the edge-list format (see the crate docs). Task names may
/// contain any non-whitespace characters except `#`; undeclared arc
/// endpoints are created on first mention, in order of appearance.
pub fn parse_dag(text: &str) -> Result<NamedDag, ParseError> {
    let mut b = DagBuilder::new();
    let mut by_name: HashMap<String, NodeId> = HashMap::new();
    let mut declared: HashMap<String, usize> = HashMap::new();

    let intern =
        |b: &mut DagBuilder, by_name: &mut HashMap<String, NodeId>, name: &str| match by_name
            .get(name)
        {
            Some(&v) => v,
            None => {
                let v = b.add_node(name);
                by_name.insert(name.to_string(), v);
                v
            }
        };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["node", name] => {
                if declared.insert((*name).to_string(), lineno).is_some() {
                    return Err(ParseError::DuplicateNode {
                        line: lineno,
                        name: (*name).to_string(),
                    });
                }
                intern(&mut b, &mut by_name, name);
            }
            [from, "->", to] => {
                if from == to {
                    return Err(ParseError::SelfLoop {
                        line: lineno,
                        name: (*from).to_string(),
                    });
                }
                let u = intern(&mut b, &mut by_name, from);
                let v = intern(&mut b, &mut by_name, to);
                b.add_arc(u, v)
                    .expect("interned ids are valid; self-loops rejected above");
            }
            _ => {
                return Err(ParseError::BadLine {
                    line: lineno,
                    text: line.to_string(),
                });
            }
        }
    }
    let dag = b.build().map_err(|_| ParseError::Cycle)?;
    Ok(NamedDag { dag, by_name })
}

/// A *raw* parse of the edge-list format: names interned in order of
/// first mention, arcs kept verbatim — duplicates, self-loops, and
/// cycles included. This is the input the `audit` subcommand feeds to
/// `ic-audit`'s graph passes, which exist precisely to flag the defects
/// [`parse_dag`] would reject (or silently dedup).
#[derive(Debug, Clone)]
pub struct RawDag {
    /// Task names, indexed by interned id.
    pub names: Vec<String>,
    /// Every arc as written, as `(from, to)` index pairs.
    pub arcs: Vec<(usize, usize)>,
}

/// Parse the edge-list format without validation (see [`RawDag`]).
/// Only *syntax* errors are rejected; structural defects are the
/// auditor's job.
pub fn parse_raw(text: &str) -> Result<RawDag, ParseError> {
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut arcs: Vec<(usize, usize)> = Vec::new();
    let intern = |names: &mut Vec<String>, index: &mut HashMap<String, usize>, name: &str| {
        *index.entry(name.to_string()).or_insert_with(|| {
            names.push(name.to_string());
            names.len() - 1
        })
    };
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["node", name] => {
                intern(&mut names, &mut index, name);
            }
            [from, "->", to] => {
                let u = intern(&mut names, &mut index, from);
                let v = intern(&mut names, &mut index, to);
                arcs.push((u, v));
            }
            _ => {
                return Err(ParseError::BadLine {
                    line: lineno,
                    text: line.to_string(),
                });
            }
        }
    }
    Ok(RawDag { names, arcs })
}

/// Parse a `--family` spec (`mesh:11`, `outtree:2:5`, `butterfly:3`,
/// ...) into a label, the dag, and — when the family carries one — its
/// closed-form IC-optimal schedule from the paper. Shared by `serve`,
/// `sim`, and `audit` so every subcommand accepts the same specs.
pub fn family_dag(spec: &str) -> Result<(String, Dag, Option<ic_sched::Schedule>), String> {
    const MAX_NODES: usize = 1 << 20;
    let parts: Vec<&str> = spec.split(':').collect();
    let arg = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("family spec {spec:?}: expected a positive integer parameter"))
    };
    // Reject oversized specs from the closed-form node count *before*
    // constructing the dag — `outtree:10:9` must error, not attempt a
    // ~10^9-node allocation. `None` means the count overflows usize.
    let cap = |count: Option<usize>| -> Result<(), String> {
        match count {
            Some(n) if n <= MAX_NODES => Ok(()),
            _ => Err(format!(
                "family {spec:?} would have {} nodes; the server caps at {MAX_NODES}",
                count.map_or_else(|| "over 2^64".to_string(), |n| n.to_string())
            )),
        }
    };
    // Complete-tree node count: sum of arity^l for l in 0..=depth.
    let tree_nodes = |arity: usize, depth: usize| -> Option<usize> {
        let mut count = 1usize;
        let mut level = 1usize;
        for _ in 0..depth {
            level = level.checked_mul(arity)?;
            count = count.checked_add(level)?;
        }
        Some(count)
    };
    let mesh_nodes = |levels: usize| {
        levels
            .checked_add(1)
            .and_then(|p| levels.checked_mul(p))
            .map(|v| v / 2)
    };
    let butterfly_nodes = |d: usize| {
        1usize
            .checked_shl(u32::try_from(d).ok()?)
            .and_then(|rows| rows.checked_mul(d + 1))
    };
    let (dag, sched) = match (parts.first().copied(), parts.len()) {
        (Some("mesh"), 2) => {
            let l = arg(1)?;
            cap(mesh_nodes(l))?;
            let mesh = ic_families::mesh::out_mesh(l);
            let s = ic_families::mesh::out_mesh_schedule(&mesh);
            (mesh, Some(s))
        }
        (Some("inmesh"), 2) => {
            let l = arg(1)?;
            cap(mesh_nodes(l))?;
            let mesh = ic_families::mesh::in_mesh(l);
            let s = ic_families::mesh::in_mesh_schedule(&mesh).ok();
            (mesh, s)
        }
        (Some("outtree"), 3) => {
            let (a, d) = (arg(1)?, arg(2)?);
            cap(tree_nodes(a, d))?;
            let t = ic_families::trees::complete_out_tree(a, d);
            let s = ic_families::trees::out_tree_schedule(&t);
            (t, Some(s))
        }
        (Some("intree"), 3) => {
            let (a, d) = (arg(1)?, arg(2)?);
            cap(tree_nodes(a, d))?;
            let t = ic_families::trees::complete_in_tree(a, d);
            let s = ic_families::trees::in_tree_schedule(&t).ok();
            (t, s)
        }
        (Some("butterfly"), 2) => {
            let d = arg(1)?;
            cap(butterfly_nodes(d))?;
            (
                ic_families::butterfly::butterfly(d),
                Some(ic_families::butterfly::butterfly_schedule(d)),
            )
        }
        _ => {
            return Err(format!(
                "unknown family spec {spec:?} (try mesh:L, inmesh:L, outtree:A:D, \
                 intree:A:D, or butterfly:D)"
            ))
        }
    };
    debug_assert!(dag.num_nodes() <= MAX_NODES);
    Ok((spec.to_string(), dag, sched))
}

/// A `--family` spec as a [`NamedDag`] (names as the serializer would
/// write them) — what `sim --family` runs and `audit --family` lints.
pub fn named_family_dag(
    spec: &str,
) -> Result<(String, NamedDag, Option<ic_sched::Schedule>), String> {
    let (label, dag, sched) = family_dag(spec)?;
    Ok((label, NamedDag::from_dag(dag), sched))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_family_dags_have_unique_serializer_names() {
        let (label, nd, sched) = named_family_dag("mesh:4").unwrap();
        assert_eq!(label, "mesh:4");
        assert_eq!(nd.by_name.len(), nd.dag.num_nodes());
        let sched = sched.expect("out-meshes carry a closed-form schedule");
        for &v in sched.order() {
            let name = nd
                .dag
                .node_ids()
                .zip(ic_dag::serialize::edge_list_names(&nd.dag))
                .find(|&(u, _)| u == v)
                .map(|(_, n)| n)
                .unwrap();
            assert_eq!(nd.by_name[&name], v, "names must round-trip");
        }
    }

    #[test]
    fn raw_parse_keeps_defects() {
        let raw = parse_raw("a -> b\na -> b\nx -> x\nb -> a\nnode lone\n").unwrap();
        assert_eq!(raw.names, ["a", "b", "x", "lone"]);
        assert_eq!(raw.arcs, [(0, 1), (0, 1), (2, 2), (1, 0)]);
        assert!(parse_raw("a -> ").is_err());
    }

    #[test]
    fn parses_the_doc_example() {
        let text = "\
# a tiny build pipeline
node build_a
node build_b
build_a -> test_a
build_b -> test_b
test_a -> package
test_b -> package
";
        let nd = parse_dag(text).unwrap();
        assert_eq!(nd.dag.num_nodes(), 5);
        assert_eq!(nd.dag.num_arcs(), 4);
        assert_eq!(nd.dag.num_sources(), 2);
        assert_eq!(nd.dag.num_sinks(), 1);
        let pkg = nd.by_name["package"];
        assert_eq!(nd.name(pkg), "package");
        assert_eq!(nd.dag.in_degree(pkg), 2);
    }

    #[test]
    fn auto_creates_undeclared_tasks() {
        let nd = parse_dag("a -> b\nb -> c\n").unwrap();
        assert_eq!(nd.dag.num_nodes(), 3);
        assert!(nd.by_name.contains_key("c"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let nd = parse_dag("\n# hi\n  \na -> b # inline\n").unwrap();
        assert_eq!(nd.dag.num_arcs(), 1);
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(matches!(
            parse_dag("a -> ").unwrap_err(),
            ParseError::BadLine { line: 1, .. }
        ));
        assert!(matches!(
            parse_dag("a b c d").unwrap_err(),
            ParseError::BadLine { .. }
        ));
    }

    #[test]
    fn rejects_duplicates_self_loops_cycles() {
        assert!(matches!(
            parse_dag("node x\nnode x\n").unwrap_err(),
            ParseError::DuplicateNode { line: 2, .. }
        ));
        assert!(matches!(
            parse_dag("x -> x\n").unwrap_err(),
            ParseError::SelfLoop { .. }
        ));
        assert_eq!(
            parse_dag("a -> b\nb -> a\n").unwrap_err(),
            ParseError::Cycle
        );
    }

    #[test]
    fn duplicate_arcs_are_deduped() {
        let nd = parse_dag("a -> b\na -> b\n").unwrap();
        assert_eq!(nd.dag.num_arcs(), 1);
    }

    /// A generated `.N` suffix must not reuse a name another node
    /// already has, whether that name came from a label or a suffix.
    #[test]
    fn edge_list_names_round_trip_when_a_suffix_collides_with_a_label() {
        for labels in [["a", "a", "a.1"], ["a.1", "a", "a"]] {
            let mut b = DagBuilder::new();
            let ids = labels.map(|l| b.add_node(l));
            b.add_arc(ids[0], ids[1]).unwrap();
            b.add_arc(ids[1], ids[2]).unwrap();
            let g = b.build().unwrap();
            let text = ic_dag::serialize::to_edge_list(&g);
            let nd = parse_dag(&text).unwrap_or_else(|e| panic!("{labels:?}: {e}\n{text}"));
            assert_eq!(
                nd.dag.arcs().collect::<Vec<_>>(),
                g.arcs().collect::<Vec<_>>()
            );
            assert_eq!(ic_dag::serialize::to_edge_list(&nd.dag), text);
            let named = NamedDag::from_dag(g);
            assert_eq!(named.by_name.len(), 3, "{labels:?}: a node lost its name");
        }
    }
}
