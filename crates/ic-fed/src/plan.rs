//! From a [`Partition`] to runnable per-shard plans.
//!
//! Each [`ShardPlan`] carries everything one shard server needs:
//!
//! * its **local sub-dag**, which contains the shard's own nodes plus
//!   a *stub* node for every remote predecessor — stubs are always
//!   sources locally (their own ancestry stays on the owning shard)
//!   and are claimed by the federation at header time, so a node with
//!   unmet remote predecessors is simply not yet ELIGIBLE until the
//!   owning shard's `remote-done` executes the stub;
//! * the local↔global id maps stamped into the shard's trace header
//!   (so `ic-prio merge` can reassemble the global run);
//! * the **notify map**: which peer shards must hear about each local
//!   completion.
//!
//! Every node has exactly one owner shard: a cut-edge source completes
//! there, and its owner sends one `remote-done` to each consumer shard.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ic_dag::builder::DagBuilder;
use ic_dag::{Dag, NodeId};
use ic_net::FedConfig;
use ic_sched::Schedule;
use ic_sim::trace::FedMeta;

use crate::partition::Partition;

/// Everything one shard server needs to join a federated run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// This shard's index.
    pub shard: u64,
    /// Total shard count.
    pub shards: u64,
    /// Node count of the global dag.
    pub global_nodes: usize,
    /// The shard's local sub-dag (own nodes + stubs).
    pub dag: Dag,
    /// Local node id → global node id.
    pub to_global: Vec<u64>,
    /// Local ids of stub nodes (gated on remote completions).
    pub stubs: Vec<u32>,
    /// Local task id → peer shards to notify when a real completion
    /// of that task lands here.
    pub notify: HashMap<u64, Vec<u64>>,
}

impl ShardPlan {
    /// The federation metadata stamped into this shard's trace header.
    pub fn meta(&self) -> FedMeta {
        FedMeta {
            shard: self.shard,
            shards: self.shards,
            global_nodes: self.global_nodes,
            to_global: self.to_global.clone(),
            stubs: self.stubs.clone(),
        }
    }

    /// What the reactor needs beside [`ShardPlan::meta`]: every
    /// peer's `(shard, addr)` and this shard's notify map.
    pub fn fed_config(&self, peers: Vec<(u64, String)>) -> FedConfig {
        FedConfig {
            peers,
            notify: self.notify.clone(),
            sever_link_after: None,
        }
    }

    /// Project a *global* schedule order onto this shard: present
    /// nodes keep their relative global order. Returns `None` if the
    /// projection is not topological for the local sub-dag (it always
    /// is when the global order was topological for the global dag).
    pub fn schedule_from_global(&self, order: &[NodeId]) -> Option<Schedule> {
        let mut rank: HashMap<u64, usize> = HashMap::with_capacity(order.len());
        for (i, v) in order.iter().enumerate() {
            rank.insert(u64::try_from(v.index()).unwrap_or(u64::MAX), i);
        }
        let mut local: Vec<NodeId> = (0..self.dag.num_nodes()).map(NodeId::new).collect();
        local.sort_by_key(|v| {
            self.to_global
                .get(v.index())
                .and_then(|g| rank.get(g).copied())
                .unwrap_or(usize::MAX)
        });
        Schedule::new(&self.dag, local).ok()
    }
}

/// Split `dag` along `part` into one [`ShardPlan`] per shard.
pub fn plan(dag: &Dag, part: &Partition) -> Vec<ShardPlan> {
    let n = dag.num_nodes();
    let shards = usize::try_from(part.shards()).unwrap_or(1).max(1);
    let shard_of = part.shard_of();

    // Allocatable (non-stub) global ids per shard: the nodes it owns.
    let mut allocatable: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); shards];
    for (i, &s) in shard_of.iter().enumerate() {
        if let Ok(s) = usize::try_from(s) {
            allocatable[s].insert(i);
        }
    }

    // Stubs: parents of allocatable nodes not themselves allocatable
    // on that shard.
    let mut stubs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); shards];
    for (s, alloc) in allocatable.iter().enumerate() {
        for &g in alloc {
            for &p in dag.parents(NodeId::new(g)) {
                if !alloc.contains(&p.index()) {
                    stubs[s].insert(p.index());
                }
            }
        }
    }

    // The owner of a task notifies every shard that holds it as a stub.
    let mut consumers: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for (s, st) in stubs.iter().enumerate() {
        let sid = u64::try_from(s).unwrap_or(0);
        for &g in st {
            consumers.entry(g).or_default().push(sid);
        }
    }

    (0..shards)
        .map(|s| {
            let sid = u64::try_from(s).unwrap_or(0);
            let present: Vec<usize> = allocatable[s].union(&stubs[s]).copied().collect();
            let to_global: Vec<u64> = present
                .iter()
                .map(|&g| u64::try_from(g).unwrap_or(u64::MAX))
                .collect();
            let local_of = |g: usize| -> Option<usize> { present.binary_search(&g).ok() };

            // Local arcs: every arc into an allocatable node (stub
            // sources keep no in-arcs — their ancestry is remote).
            let mut b = DagBuilder::new();
            b.add_nodes(present.len());
            for &g in &allocatable[s] {
                let Some(lv) = local_of(g) else { continue };
                for &p in dag.parents(NodeId::new(g)) {
                    let Some(lp) = local_of(p.index()) else {
                        debug_assert!(false, "parent of an allocatable node must be present");
                        continue;
                    };
                    let _ = b.add_arc(NodeId::new(lp), NodeId::new(lv));
                }
            }
            let local_dag = match b.build() {
                Ok(d) => d,
                Err(_) => {
                    // A sub-dag of a dag cannot contain a cycle; fall
                    // back to an arc-free dag of the same size (whose
                    // build is infallible) rather than panic.
                    debug_assert!(false, "a sub-dag of a dag is acyclic");
                    loop {
                        let mut empty = DagBuilder::new();
                        empty.add_nodes(present.len());
                        if let Ok(d) = empty.build() {
                            break d;
                        }
                    }
                }
            };

            let stubs_local: Vec<u32> = stubs[s]
                .iter()
                .filter_map(|&g| local_of(g).and_then(|l| u32::try_from(l).ok()))
                .collect();

            let mut notify: HashMap<u64, Vec<u64>> = HashMap::new();
            for &g in &allocatable[s] {
                if let (Some(dests), Some(l)) = (consumers.get(&g), local_of(g)) {
                    notify.insert(u64::try_from(l).unwrap_or(u64::MAX), dests.clone());
                }
            }

            ShardPlan {
                shard: sid,
                shards: part.shards(),
                global_nodes: n,
                dag: local_dag,
                to_global,
                stubs: stubs_local,
                notify,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;
    use ic_families::mesh::{out_mesh, out_mesh_schedule};

    fn chain3() -> (Dag, Partition) {
        // 0 -> 1 -> 2 across three shards.
        let dag = from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let part = Partition::level_cut(&dag, 3);
        assert_eq!(part.shard_of(), &[0, 1, 2]);
        (dag, part)
    }

    #[test]
    fn plans_build_stub_gated_sub_dags() {
        let (dag, part) = chain3();
        let plans = plan(&dag, &part);
        assert_eq!(plans.len(), 3);

        // Shard 0: just node 0, no stubs, notifies shard 1.
        assert_eq!(plans[0].dag.num_nodes(), 1);
        assert!(plans[0].stubs.is_empty());
        assert_eq!(plans[0].notify.get(&0), Some(&vec![1]));

        // Shard 1: stub 0 -> own 1, notifies shard 2.
        assert_eq!(plans[1].dag.num_nodes(), 2);
        assert_eq!(plans[1].stubs, vec![0]);
        assert_eq!(plans[1].to_global, vec![0, 1]);
        assert!(plans[1].dag.has_arc(NodeId::new(0), NodeId::new(1)));
        assert_eq!(plans[1].notify.get(&1), Some(&vec![2]));
        assert!(!plans[1].notify.contains_key(&0), "stubs never notify");

        // Shard 2: stub 1 -> own 2, notifies no one.
        assert_eq!(plans[2].stubs, vec![0]);
        assert_eq!(plans[2].to_global, vec![1, 2]);
        assert!(plans[2].notify.is_empty());
        let _ = dag;
    }

    #[test]
    fn union_of_plans_covers_the_global_dag() {
        let mesh = out_mesh(8); // 36 nodes
        let part = Partition::level_cut(&mesh, 3);
        let plans = plan(&mesh, &part);
        // Every global node is allocatable on exactly one shard.
        let mut host_count = vec![0usize; mesh.num_nodes()];
        for p in &plans {
            for local in 0..p.dag.num_nodes() {
                let l32 = u32::try_from(local).unwrap();
                if p.stubs.contains(&l32) {
                    continue;
                }
                host_count[usize::try_from(p.to_global[local]).unwrap()] += 1;
            }
        }
        assert!(host_count.iter().all(|&c| c == 1));
        // Every local arc maps to a global arc, and every global arc
        // appears on some shard.
        let mut covered: BTreeSet<(usize, usize)> = BTreeSet::new();
        for p in &plans {
            for (u, v) in p.dag.arcs() {
                let gu = usize::try_from(p.to_global[u.index()]).unwrap();
                let gv = usize::try_from(p.to_global[v.index()]).unwrap();
                assert!(
                    mesh.has_arc(NodeId::new(gu), NodeId::new(gv)),
                    "phantom arc {gu}->{gv}"
                );
                covered.insert((gu, gv));
            }
        }
        for (u, v) in mesh.arcs() {
            assert!(
                covered.contains(&(u.index(), v.index())),
                "lost arc {u}->{v}"
            );
        }
    }

    #[test]
    fn global_schedule_projects_onto_every_shard() {
        let mesh = out_mesh(8);
        let sched = out_mesh_schedule(&mesh);
        let part = Partition::level_cut(&mesh, 3);
        for p in plan(&mesh, &part) {
            let local = p
                .schedule_from_global(sched.order())
                .expect("projection of a topological order is topological");
            assert_eq!(local.len(), p.dag.num_nodes());
        }
    }
}
