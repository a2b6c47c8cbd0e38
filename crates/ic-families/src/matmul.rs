//! The matrix-multiplication dag `M` (§7, Fig. 17).
//!
//! Multiplying 2×2 (block) matrices
//! `(A B; C D) × (E F; G H) = (AE+BG  AF+BH; CE+DG  CF+DH)`
//! yields a dag with 8 input tasks, 8 product tasks, and 4 sum tasks.
//! The products `{AE, CE, CF, AF}` with their operands `{A, E, C, F}`
//! form a bipartite cycle-dag `C₄` (each operand feeds the two products
//! adjacent to it around the cycle `A–E–C–F`), and likewise
//! `{BG, DG, DH, BH}` with `{B, G, D, H}`; the four sums are `Λ`s. So
//! `M` is composite of type `C₄ ⇑ C₄ ⇑ Λ ⇑ Λ ⇑ Λ ⇑ Λ`, and
//! `C₄ ▷ C₄ ▷ Λ ▷ Λ` makes it ▷-linear (Theorem 2.1).
//!
//! Because (7.1) never invokes commutativity, the same dag drives the
//! recursive block algorithm for `n × n` matrices;
//! [`recursive_matmul`] expands each product into a sub-`M` to any
//! depth, the paper's granularity-refinement knob.

use ic_dag::{Dag, DagBuilder, NodeId};
use ic_sched::Schedule;

/// Node ids of [`matmul_dag`], in construction order.
pub mod nodes {
    /// The eight input (block) operands, cycle-1 then cycle-2 order.
    pub const INPUTS: [&str; 8] = ["A", "E", "C", "F", "B", "G", "D", "H"];
    /// The eight products, cycle-1 then cycle-2 order.
    pub const PRODUCTS: [&str; 8] = ["AE", "CE", "CF", "AF", "BG", "DG", "DH", "BH"];
    /// The four sums (result blocks), row-major.
    pub const SUMS: [&str; 4] = ["AE+BG", "AF+BH", "CE+DG", "CF+DH"];
}

/// The 20-node dag `M` of Fig. 17. Ids: inputs `0..8`
/// (`A,E,C,F,B,G,D,H`), products `8..16`
/// (`AE,CE,CF,AF,BG,DG,DH,BH`), sums `16..20`.
pub fn matmul_dag() -> Dag {
    let mut b = DagBuilder::with_capacity(20);
    let inputs: Vec<NodeId> = nodes::INPUTS.iter().map(|l| b.add_node(*l)).collect();
    let products: Vec<NodeId> = nodes::PRODUCTS.iter().map(|l| b.add_node(*l)).collect();
    let sums: Vec<NodeId> = nodes::SUMS.iter().map(|l| b.add_node(*l)).collect();
    let (a, e, c, f, bb, g, d, h) = (
        inputs[0], inputs[1], inputs[2], inputs[3], inputs[4], inputs[5], inputs[6], inputs[7],
    );
    // Cycle 1: AE <- {A,E}, CE <- {E,C}, CF <- {C,F}, AF <- {F,A}.
    for (p, (x, y)) in products[..4].iter().zip([(a, e), (e, c), (c, f), (f, a)]) {
        b.add_arc(x, *p).expect("valid");
        b.add_arc(y, *p).expect("valid");
    }
    // Cycle 2: BG <- {B,G}, DG <- {G,D}, DH <- {D,H}, BH <- {H,B}.
    for (p, (x, y)) in products[4..].iter().zip([(bb, g), (g, d), (d, h), (h, bb)]) {
        b.add_arc(x, *p).expect("valid");
        b.add_arc(y, *p).expect("valid");
    }
    // Sums: AE+BG, AF+BH, CE+DG, CF+DH.
    for (s, (p, q)) in sums.iter().zip([(0usize, 4), (3, 7), (1, 5), (2, 6)]) {
        b.add_arc(products[p], *s).expect("valid");
        b.add_arc(products[q], *s).expect("valid");
    }
    b.build().expect("M is acyclic")
}

/// The product order the paper states in §7.2: `AE, CE, CF, AF, BG, DG,
/// DH, BH` — cycle 1's products, then cycle 2's — preceded by the
/// operands in cyclic order and followed by the sums.
pub fn paper_schedule() -> Schedule {
    let mut order: Vec<NodeId> = (0..20).map(NodeId::new).collect();
    let _ = &mut order; // ids are already in the paper's order
    Schedule::new_unchecked(order)
}

/// The Theorem 2.1 order for the `C₄ ⇑ C₄ ⇑ Λ⁴` decomposition: operands
/// in cyclic order (both cycles), then each `Λ`'s two product sources
/// consecutively (`AE, BG, AF, BH, CE, DG, CF, DH`), then the sums.
pub fn theorem_schedule() -> Schedule {
    let mut order: Vec<NodeId> = (0..8).map(NodeId::new).collect();
    // Products by Λ: (AE=8, BG=12), (AF=11, BH=15), (CE=9, DG=13), (CF=10, DH=14).
    for &p in &[8u32, 12, 11, 15, 9, 13, 10, 14] {
        order.push(NodeId(p));
    }
    order.extend((16..20).map(NodeId::new));
    Schedule::new_unchecked(order)
}

/// Recursively refined block-multiplication dag: at `depth = 0` each
/// product is a single task ([`matmul_dag`] shape); at depth `k > 0`,
/// each product `X·Y` becomes: 8 *split* tasks (the four sub-blocks of
/// each operand), a recursive sub-multiplication dag, and a *combine*
/// task gathering the four sub-results.
pub fn recursive_matmul(depth: usize) -> Dag {
    let mut b = DagBuilder::new();
    let inputs: Vec<NodeId> = nodes::INPUTS.iter().map(|l| b.add_node(*l)).collect();
    let outs = build_level(&mut b, &inputs, depth, "");
    let _ = outs;
    b.build().expect("recursive M is acyclic")
}

/// Number of nodes of [`recursive_matmul`] at the given depth:
/// `f(0) = 20`; each deeper level replaces 8 product nodes with
/// `8 + (f(d-1) - 8) + 1` nodes each (splits + sub-dag minus its reused
/// inputs + combine).
pub fn recursive_matmul_nodes(depth: usize) -> usize {
    // Inner multiplication cost: nodes added by one product expansion.
    fn product_cost(depth: usize) -> usize {
        if depth == 0 {
            1
        } else {
            // 8 splits + recursive inner structure + 1 combine:
            // inner = 8 products' costs + 4 sums, fed by the splits.
            8 + 8 * product_cost(depth - 1) + 4 + 1
        }
    }
    8 + 8 * product_cost(depth) + 4
}

fn build_level(b: &mut DagBuilder, inputs: &[NodeId], depth: usize, tag: &str) -> [NodeId; 4] {
    let (a, e, c, f, bb, g, d, h) = (
        inputs[0], inputs[1], inputs[2], inputs[3], inputs[4], inputs[5], inputs[6], inputs[7],
    );
    let pairs = [
        (a, e, "AE"),
        (e, c, "CE"),
        (c, f, "CF"),
        (f, a, "AF"),
        (bb, g, "BG"),
        (g, d, "DG"),
        (d, h, "DH"),
        (h, bb, "BH"),
    ];
    let mut products = Vec::with_capacity(8);
    for (x, y, name) in pairs {
        products.push(build_product(b, x, y, depth, &format!("{tag}{name}")));
    }
    let sums = [
        ("AE+BG", 0usize, 4),
        ("AF+BH", 3, 7),
        ("CE+DG", 1, 5),
        ("CF+DH", 2, 6),
    ];
    let mut out = [NodeId(0); 4];
    for (i, (name, p, q)) in sums.into_iter().enumerate() {
        let s = b.add_node(format!("{tag}{name}"));
        b.add_arc(products[p], s).expect("valid");
        b.add_arc(products[q], s).expect("valid");
        out[i] = s;
    }
    out
}

fn build_product(b: &mut DagBuilder, x: NodeId, y: NodeId, depth: usize, tag: &str) -> NodeId {
    if depth == 0 {
        let p = b.add_node(tag);
        b.add_arc(x, p).expect("valid");
        b.add_arc(y, p).expect("valid");
        return p;
    }
    // Split each operand into its four blocks.
    let mut sub_inputs = [NodeId(0); 8];
    // Sub-problem operands A,E,C,F,B,G,D,H = (X11,Y11,X21,Y12, X12,Y21,X22,Y22).
    let split_specs = [
        (x, "11"),
        (y, "11"),
        (x, "21"),
        (y, "12"),
        (x, "12"),
        (y, "21"),
        (x, "22"),
        (y, "22"),
    ];
    for (i, (src, blk)) in split_specs.into_iter().enumerate() {
        let s = b.add_node(format!("{tag}/split{blk}"));
        b.add_arc(src, s).expect("valid");
        sub_inputs[i] = s;
    }
    let sub_sums = build_level(b, &sub_inputs, depth - 1, &format!("{tag}/"));
    let combine = b.add_node(format!("{tag}/combine"));
    for s in sub_sums {
        b.add_arc(s, combine).expect("valid");
    }
    combine
}

/// Registered paper claims for the matrix-multiplication dag (Fig. 17,
/// \u{00a7}7): the Theorem 2.1 order over C\u{2084} \u{21d1} C\u{2084} \u{21d1} \u{039b}\u{2074} is IC-optimal;
/// the paper's own \u{00a7}7.2 product order is kept as a structural claim
/// (its profile is dominated \u{2014} see EXPERIMENTS.md, F17).
pub fn claims() -> Vec<crate::claims::Claim> {
    use crate::claims::{Claim, Guarantee};
    use crate::primitives::{cycle_dag, ic_schedule, lambda};
    let c4_chain: Vec<(Dag, Schedule)> = vec![cycle_dag(4), cycle_dag(4), lambda(), lambda()]
        .into_iter()
        .map(|g| {
            let s = ic_schedule(&g);
            (g, s)
        })
        .collect();
    vec![
        Claim::new(
            "matmul/theorem-order",
            "Fig. 17, \u{00a7}7",
            "the Theorem 2.1 order for C\u{2084} \u{21d1} C\u{2084} \u{21d1} \u{039b}\u{2074} is IC-optimal; C\u{2084} \u{25b7} C\u{2084} \u{25b7} \u{039b}",
            matmul_dag(),
            theorem_schedule(),
            Guarantee::IcOptimal,
        )
        .with_priority_chain(c4_chain),
        Claim::new(
            "matmul/paper-order",
            "\u{00a7}7.2",
            "the paper's product order is a valid execution order (dominated profile; reproduction note)",
            matmul_dag(),
            paper_schedule(),
            Guarantee::ValidOrder,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{cycle_dag, ic_schedule, lambda};
    use ic_sched::optimal::{is_ic_optimal, optimal_envelope};
    use ic_sched::priority::has_priority;

    #[test]
    fn m_dag_counts() {
        let m = matmul_dag();
        assert_eq!(m.num_nodes(), 20);
        assert_eq!(m.num_arcs(), 16 + 8);
        assert_eq!(m.num_sources(), 8);
        assert_eq!(m.num_sinks(), 4);
        // Every product has 2 parents and 1 child; every input 2 children.
        for i in 0..8 {
            assert_eq!(m.out_degree(NodeId(i)), 2, "input {i}");
        }
        for i in 8..16 {
            assert_eq!(m.in_degree(NodeId(i)), 2, "product {i}");
            assert_eq!(m.out_degree(NodeId(i)), 1, "product {i}");
        }
    }

    #[test]
    fn section_7_priority_chain() {
        // C₄ ▷ C₄ ▷ Λ ▷ Λ.
        let c4 = cycle_dag(4);
        let l = lambda();
        let (sc, sl) = (ic_schedule(&c4), ic_schedule(&l));
        assert!(has_priority(&c4, &sc, &c4, &sc));
        assert!(has_priority(&c4, &sc, &l, &sl));
        assert!(has_priority(&l, &sl, &l, &sl));
    }

    #[test]
    fn theorem_schedule_is_ic_optimal() {
        let m = matmul_dag();
        let s = theorem_schedule();
        assert!(ic_dag::traversal::is_topological(&m, s.order()));
        assert!(is_ic_optimal(&m, &s).unwrap());
    }

    #[test]
    fn paper_schedule_is_valid_and_compare_profiles() {
        // REPRODUCTION NOTE: the paper's §7.2 product order (AE, CE, CF,
        // AF, BG, DG, DH, BH) delays the sums: no Λ completes until the
        // second cycle's products start. Under the pointwise definition
        // of IC-optimality its profile is dominated by the Theorem 2.1
        // (Λ-paired) order at steps 10-15 — see EXPERIMENTS.md (F17).
        let m = matmul_dag();
        let paper = paper_schedule();
        assert!(ic_dag::traversal::is_topological(&m, paper.order()));
        let envelope = optimal_envelope(&m).unwrap();
        let p_paper = paper.profile(&m);
        let p_theorem = theorem_schedule().profile(&m);
        assert_eq!(p_theorem, envelope, "Theorem order attains the envelope");
        assert!(
            ic_sched::quality::dominates(&p_theorem, &p_paper),
            "theorem order must dominate the paper's literal order"
        );
        assert_ne!(
            p_paper, envelope,
            "paper's literal product order is suboptimal"
        );
    }

    #[test]
    fn recursive_depth0_matches_m() {
        let r = recursive_matmul(0);
        let m = matmul_dag();
        assert_eq!(r.num_nodes(), m.num_nodes());
        assert_eq!(r.num_arcs(), m.num_arcs());
        assert_eq!(recursive_matmul_nodes(0), 20);
    }

    #[test]
    fn recursive_depth1_counts() {
        let r = recursive_matmul(1);
        assert_eq!(r.num_nodes(), recursive_matmul_nodes(1));
        // 8 + 8 * (8 + 8 + 4 + 1) + 4 = 180.
        assert_eq!(r.num_nodes(), 180);
        assert_eq!(r.num_sources(), 8);
        assert_eq!(r.num_sinks(), 4);
    }

    #[test]
    fn recursive_depth2_is_well_formed() {
        let r = recursive_matmul(2);
        assert_eq!(r.num_nodes(), recursive_matmul_nodes(2));
        assert_eq!(r.num_sources(), 8);
        assert_eq!(r.num_sinks(), 4);
        // Heuristics can schedule it.
        use ic_sched::heuristics::{schedule_with, Policy};
        let s = schedule_with(&r, &Policy::Fifo);
        assert_eq!(s.len(), r.num_nodes());
    }
}
