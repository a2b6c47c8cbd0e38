//! The dag shapes the workloads serve, built by the code
//! `ic-prio serve --family` builds them with, and the work/span floor
//! no scheduler beats.

use ic_dag::Dag;
use ic_sched::Schedule;

/// A family instance with its closed-form IC-optimal schedule.
pub struct Family {
    pub dag: Dag,
    pub schedule: Schedule,
}

/// `mesh:<levels>` or `butterfly:<dimension>` — the two families the
/// workloads use, in the spec syntax of `ic-prio serve --family`.
fn parse(spec: &str) -> (&str, usize) {
    let (name, arg) = spec.split_once(':').expect("family spec is name:size");
    let n: usize = arg.parse().expect("family size is a positive integer");
    assert!(
        matches!(name, "mesh" | "butterfly"),
        "the benchmark serves mesh and butterfly dags, not {name:?}"
    );
    (name, n)
}

/// Build the family instance `spec` names, through the parser
/// `ic-prio serve --family` itself uses.
pub fn family(spec: &str) -> Family {
    let (_, dag, schedule) =
        ic_cli::parse::family_dag(spec).expect("a spec `ic-prio serve --family` accepts");
    Family {
        dag,
        schedule: schedule.expect("mesh and butterfly carry a closed-form schedule"),
    }
}

/// Node count of a family spec in closed form (no dag is built).
pub fn node_count(spec: &str) -> usize {
    match parse(spec) {
        ("mesh", n) => n * (n + 1) / 2,
        (_, n) => (n + 1) << n,
    }
}

/// The work/span floor in unit tasks: with `workers` workers no
/// schedule finishes `work` tasks whose longest chain is `span` in
/// fewer than `max(work / workers, span)` task times.
pub fn floor_tasks(work: usize, span: usize, workers: usize) -> f64 {
    (work as f64 / workers as f64).max(span as f64)
}

/// Span of a family spec in closed form: a mesh has one node of every
/// diagonal on its longest chain, a butterfly one of every level.
pub fn span(spec: &str) -> usize {
    match parse(spec) {
        ("mesh", n) => n,
        (_, n) => n + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_agree_with_ic_dag_depth() {
        for (spec, nodes, floor) in [
            ("butterfly:8", 2304, 1152.0),
            ("mesh:150", 11325, 5662.5),
            ("butterfly:4", 80, 40.0),
            ("mesh:40", 820, 410.0),
        ] {
            let f = family(spec);
            assert_eq!(f.dag.num_nodes(), nodes, "{spec}");
            assert_eq!(node_count(spec), nodes, "{spec}");
            assert_eq!(span(spec), ic_dag::traversal::height(&f.dag), "{spec}");
            assert_eq!(floor_tasks(nodes, span(spec), 2), floor, "{spec}");
            assert_eq!(f.schedule.len(), nodes, "{spec}");
        }
        // A chain-dominated shape: the span is the floor.
        assert_eq!(floor_tasks(6, 5, 2), 5.0);
    }
}
