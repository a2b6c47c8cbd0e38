//! Auditing the paper-claims registry (IC02xx, IC03xx, plus reuse of
//! the graph and order passes).
//!
//! [`audit_claim`] machine-checks one [`Claim`] from
//! [`ic_families::claims`]; [`run_all_claims`] walks the whole registry
//! and produces an [`AuditReport`]. Small
//! instances are certified *exhaustively* (down-set lattice sweep);
//! instances above [`EXHAUSTIVE_LIMIT`] nodes get structural checks
//! only — which is exactly what their `Guarantee::ValidOrder`
//! registration asserts.

use ic_dag::{dual, iso::are_isomorphic, Dag};
use ic_families::claims::{Claim, Guarantee};
use ic_sched::duality::dual_schedule;
use ic_sched::optimal::{admits_ic_optimal, is_ic_optimal};
use ic_sched::priority::has_priority;
use ic_sched::Schedule;

use crate::diag::{Diagnostic, DUALITY_MISMATCH, ENVELOPE_GAP, PRIORITY_CHAIN_BROKEN};
use crate::order::{audit_envelope, audit_order, EXHAUSTIVE_LIMIT};
use crate::report::{AuditReport, ClaimResult};

/// Machine-check one registered claim. Returns every diagnostic found
/// (empty means the claim holds as far as this build can check it).
pub fn audit_claim(claim: &Claim) -> Vec<Diagnostic> {
    let dag = &claim.dag;
    let schedule = &claim.schedule;
    let mut diags = crate::graph::audit_dag(dag);

    // Order validity gates everything downstream: a non-order has no
    // meaningful profile.
    let order_diags = audit_order(dag, schedule.order());
    let order_ok = order_diags.is_empty();
    diags.extend(order_diags);

    if order_ok {
        match claim.guarantee {
            Guarantee::IcOptimal => {
                if let Some(gap) = audit_envelope(dag, schedule.order()) {
                    diags.extend(gap);
                }
            }
            Guarantee::NoIcOptimal => {
                if dag.num_nodes() <= EXHAUSTIVE_LIMIT
                    && admits_ic_optimal(dag).expect("n <= 22 < 64")
                {
                    diags.push(Diagnostic::error(
                        ENVELOPE_GAP,
                        "claim asserts no IC-optimal schedule exists, but the lattice \
                         search found one"
                            .to_string(),
                    ));
                }
            }
            Guarantee::ValidOrder => {} // order validity was the whole claim
        }

        if let Some(expected) = &claim.expected_nonsink_profile {
            let actual = schedule.nonsink_profile(dag);
            if &actual != expected {
                diags.push(Diagnostic::error(
                    ENVELOPE_GAP,
                    format!(
                        "nonsink profile {actual:?} disagrees with the closed-form \
                         profile {expected:?} asserted by the paper"
                    ),
                ));
            }
        }
    }

    diags.extend(audit_priority_chain(&claim.priority_chain));
    if claim.check_duality {
        diags.extend(audit_duality(dag, schedule));
    }
    diags
}

/// Check a claimed ▷-linear chain (IC0201): every adjacent pair must
/// satisfy `G_i ▷ G_{i+1}` via the exhaustive nonsink-profile test.
pub fn audit_priority_chain(chain: &[(Dag, Schedule)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, w) in chain.windows(2).enumerate() {
        let (g1, s1) = &w[0];
        let (g2, s2) = &w[1];
        if !has_priority(g1, s1, g2, s2) {
            diags.push(Diagnostic::error(
                PRIORITY_CHAIN_BROKEN,
                format!(
                    "chain stage {i} ({} nodes) does not have \u{25b7}-priority over \
                     stage {} ({} nodes)",
                    g1.num_nodes(),
                    i + 1,
                    g2.num_nodes()
                ),
            ));
        }
    }
    diags
}

/// Check the Theorem 2.2 duality properties on an instance (IC0301):
/// `dual(dual(G))` must be isomorphic to `G`, and the reversed-packet
/// dual of an IC-optimal schedule must be IC-optimal on `dual(G)`.
pub fn audit_duality(dag: &Dag, schedule: &Schedule) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let dd = dual(&dual(dag));
    if !are_isomorphic(&dd, dag) {
        diags.push(Diagnostic::error(
            DUALITY_MISMATCH,
            "dual(dual(G)) is not isomorphic to G".to_string(),
        ));
    }
    if dag.num_nodes() <= EXHAUSTIVE_LIMIT {
        let gd = dual(dag);
        match dual_schedule(dag, schedule) {
            Ok(sd) => {
                if !is_ic_optimal(&gd, &sd).expect("n <= 22 < 64") {
                    diags.push(Diagnostic::error(
                        DUALITY_MISMATCH,
                        "the reversed-packet schedule is not IC-optimal on dual(G), \
                         contradicting Theorem 2.2"
                            .to_string(),
                    ));
                }
            }
            Err(e) => {
                diags.push(Diagnostic::error(
                    DUALITY_MISMATCH,
                    format!("packet reversal failed: {e:?}"),
                ));
            }
        }
    }
    diags
}

/// Audit every claim in the `ic-families` registry.
pub fn run_all_claims() -> AuditReport {
    let mut results = Vec::new();
    for claim in ic_families::claims::all() {
        let diagnostics = audit_claim(&claim);
        results.push(ClaimResult {
            id: claim.id,
            source: claim.source,
            title: claim.title,
            nodes: claim.dag.num_nodes(),
            exhaustive: claim.dag.num_nodes() <= EXHAUSTIVE_LIMIT,
            diagnostics,
        });
    }
    AuditReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_families::primitives::{ic_schedule, lambda, n_dag, vee};

    #[test]
    fn the_whole_registry_is_clean() {
        let report = run_all_claims();
        assert!(report.results.len() >= 12);
        for r in &report.results {
            assert!(
                r.diagnostics.is_empty(),
                "claim {} failed: {:?}",
                r.id,
                r.diagnostics
            );
        }
        assert!(report.is_clean());
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn broken_chain_is_ic0201() {
        // Λ ▷ V is false (V ▷ Λ is the true direction).
        let l = lambda();
        let v = vee();
        let chain = vec![(l.clone(), ic_schedule(&l)), (v.clone(), ic_schedule(&v))];
        let diags = audit_priority_chain(&chain);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, PRIORITY_CHAIN_BROKEN);
        assert!(diags[0].message.contains("stage 0"));
    }

    #[test]
    fn duality_holds_on_primitives() {
        for g in [vee(), lambda(), n_dag(3)] {
            let s = ic_schedule(&g);
            assert!(audit_duality(&g, &s).is_empty());
        }
    }
}
