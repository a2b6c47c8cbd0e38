//! Differential oracle: one lease protocol over two lease tables.
//!
//! [`LeaseMachine`] is generic over where it keeps its leases. Every
//! driver runs it over the indexed slab (`ic-net/src/lease_table.rs`);
//! the contract of that slab is that it answers exactly what a `Vec`
//! scanned linearly would, in the same order — the indices change
//! complexity, never behavior. [`crate::reference::ScanTable`] *is*
//! that `Vec`, and this module pins the contract by *dual-driving* the
//! machine over both tables with one randomized event script and
//! demanding, at every step:
//!
//! * the two `Vec<Effect>` return values are equal (`Effect` compares
//!   structurally down to every trace field and reply frame);
//! * trace-bearing effects also serialize to byte-identical JSON
//!   lines, so float formatting and field order are covered too;
//! * the `expired()` sets agree whenever the clock jumps;
//! * lease-table views (in table order — the order-fidelity claim),
//!   fingerprints, and run summaries agree at the end.
//!
//! What that cross-checks, byte for byte: every [`Leases`] operation
//! and the order its results are emitted in (forfeits, revocations, a
//! resume's held list, expiry sweeps, the straggler scan); the
//! `stealable` running total and its early-out against a count; the
//! two-slot holder pair against `any`; and — because the reference
//! side is built by [`LeaseMachine::with_table`], which leaves the
//! pool unindexed — the rank heap against the policy's own `choose`.
//!
//! What it does *not* check is anything outside the table, because
//! both sides now run the same code for it. Two lookups used to have a
//! second, naive implementation in a hand-maintained twin of the whole
//! machine and no longer do: the resume-token `HashMap` (against a
//! linear probe of the slots) and the `node_from_raw` bounds check
//! (against `node_ids().find`). Each has a direct unit test in
//! `ic-net/src/machine/mod.rs` instead. For everything else the
//! checks are the model checker, the auditor, and
//! [`DiffOutcome::digest`], which `tests/differential.rs` pins: any
//! change to an emitted byte on its fixed scripts moves one constant.
//!
//! Scripts are adversarial, not protocol-polite: besides the normal
//! hello / request / done / heartbeat traffic they sever connections
//! mid-lease, resume with rotated (and garbage) tokens, say `hello`
//! with a protocol older than the server speaks, deliver stale
//! `Sever` epochs, jump the clock past lease deadlines, duplicate and
//! reorder federation `remote-done`s, and occasionally fire events
//! for workers and tasks that do not exist. Any event sequence is a
//! valid differential test — both machines see the same bytes — so
//! chaos costs nothing and reaches the defensive paths.

use ic_dag::rng::XorShift64;
use ic_dag::Dag;
use ic_net::machine::{Effect, Event, LeaseMachine, Leases, SeededBugs};
use ic_net::wire::Message;
use ic_net::ServerConfig;
use ic_sched::heuristics::Policy;
use ic_sched::policy::AllocationPolicy;
use ic_sched::Schedule;
use ic_sim::trace::FedMeta;

use crate::reference::{ReferenceMachine, ScanTable};

/// Coverage counters from one differential case, so a test suite can
/// assert that the scripts actually reached the interesting paths
/// (steals, resumes, expiries, remote completions) instead of
/// silently comparing two idle machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOutcome {
    /// Events driven through both machines.
    pub events: usize,
    /// Tasks completed by workers.
    pub completions: usize,
    /// Speculative drain-barrier steals granted.
    pub steals: usize,
    /// Resume handshakes accepted.
    pub resumes: usize,
    /// Lease expiries fed back as [`Event::Expire`].
    pub expiries: usize,
    /// Duplicate leases revoked.
    pub revokes: usize,
    /// Remote completions applied (federation cases only).
    pub remote: usize,
    /// Whether the dag fully executed within the event budget.
    pub complete: bool,
    /// FNV-1a over every byte the candidate machine emitted, in step
    /// order: `to_json_line()` of each header and trace event,
    /// `to_json()` of each reply and registration frame.
    pub digest: u64,
}

/// The 64-bit FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Fold one step's effects into `h` as the bytes a driver would write.
fn fold_effects(h: u64, fx: &[Effect]) -> u64 {
    fx.iter().fold(h, |h, e| {
        let line = match e {
            Effect::Header(x) => x.to_json_line(),
            Effect::Trace(x) => x.to_json_line(),
            Effect::Reply(msg) => msg.to_json(),
        };
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    })
}

/// One scripted worker as the driver tracks it (enough state to keep
/// generating plausible traffic; the machines are the truth).
#[derive(Debug, Clone, Default)]
struct SimWorker {
    slot: usize,
    epoch: u64,
    token: Option<String>,
    held: Vec<u64>,
    registered: bool,
    live: bool,
    drained: bool,
}

/// The actions the script generator chooses among each step.
enum Act {
    Spawn,
    Resume(usize),
    BadResume,
    Request(usize),
    Done(usize, bool),
    Heartbeat(usize),
    Sever(usize),
    StaleSever(usize),
    Jump,
    Remote,
    Chaos,
}

fn pick(rng: &mut XorShift64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    usize::try_from(rng.next_u64() % (n as u64)).unwrap_or(0)
}

/// Compare one step's effect vectors, including byte-level JSON for
/// the trace-bearing effects.
fn same_effects(fr: &[Effect], fi: &[Effect]) -> Result<(), String> {
    if fr != fi {
        let at = fr
            .iter()
            .zip(fi.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(fr.len().min(fi.len()));
        return Err(format!(
            "effect vectors diverge at index {at}:\n  reference: {:?}\n  candidate: {:?}",
            fr.get(at),
            fi.get(at)
        ));
    }
    for (a, b) in fr.iter().zip(fi.iter()) {
        let (ja, jb) = match (a, b) {
            (Effect::Trace(x), Effect::Trace(y)) => (x.to_json_line(), y.to_json_line()),
            (Effect::Header(x), Effect::Header(y)) => (x.to_json_line(), y.to_json_line()),
            _ => continue,
        };
        if ja != jb {
            return Err(format!(
                "structurally equal effects serialize differently:\n  reference: {ja}\n  candidate: {jb}"
            ));
        }
    }
    Ok(())
}

/// The machine as every driver builds it: indexed lease table, pool
/// indexed by rank where the policy has one. The candidate of every
/// case that is not testing the oracle itself.
pub fn indexed<'a, 'd>(
    dag: &'d Dag,
    policy: &'a dyn AllocationPolicy,
    cfg: ServerConfig,
) -> LeaseMachine<'a, 'd> {
    LeaseMachine::new(dag, policy, cfg)
}

/// Drive the machine `candidate` builds and the reference machine
/// through one randomized scripted fleet over `dag` and return the
/// coverage counters, or a description of the first divergence.
/// Deterministic in `(dag, seed)`. `candidate` is [`indexed`], or a
/// deliberately wrong table when the test is of the oracle.
pub fn run_case<L: Leases>(
    dag: &Dag,
    seed: u64,
    candidate: impl for<'a, 'd> Fn(
        &'d Dag,
        &'a dyn AllocationPolicy,
        ServerConfig,
    ) -> LeaseMachine<'a, 'd, L>,
) -> Result<DiffOutcome, String> {
    let mut rng = XorShift64::new(seed ^ 0xD1FF_0C75);
    let lease_ms = [0u64, 2, 20][pick(&mut rng, 3)];
    let mut cb = ServerConfig::builder()
        .lease_ms(lease_ms)
        .backoff_base_ms([0u64, 1][pick(&mut rng, 2)])
        .wait_ms(1)
        .batch([1usize, 3][pick(&mut rng, 2)])
        .expect_workers([0usize, 2][pick(&mut rng, 2)])
        .seed(rng.next_u64());
    if rng.next_u64().is_multiple_of(2) {
        cb = cb.steal_after(0);
    }
    let cfg = cb.build();
    let policy: Box<dyn AllocationPolicy> = match rng.next_u64() % 3 {
        0 => Box::new(Policy::Fifo),
        1 => Box::new(Policy::Random(seed)),
        _ => Box::new(Schedule::in_id_order(dag)),
    };
    let mut idx = candidate(dag, policy.as_ref(), cfg.clone());
    let mut refm = ReferenceMachine::with_table(dag, policy.as_ref(), cfg, ScanTable::default());

    let mut bugs = SeededBugs::default();
    match rng.next_u64() % 8 {
        0 => bugs.orphan_on_request = true,
        1 => bugs.double_completion_event = true,
        2 => bugs.honor_stale_gone = true,
        _ => {}
    }
    idx.seed_bugs(bugs);
    refm.seed_bugs(bugs);

    // Half the cases run as one shard of a federation: a few sources
    // become stubs (completable only remotely). The remote-done
    // schedule is shuffled and contains duplicates.
    let mut remote_plan: Vec<u64> = Vec::new();
    if rng.next_u64().is_multiple_of(2) {
        let stubs: Vec<u32> = dag
            .sources()
            .filter(|_| rng.next_u64().is_multiple_of(3))
            .map(|v| u32::try_from(v.index()).unwrap_or_default())
            .collect();
        if !stubs.is_empty() {
            for &s in &stubs {
                remote_plan.push(u64::from(s));
                if rng.next_u64().is_multiple_of(3) {
                    remote_plan.push(u64::from(s)); // duplicate delivery
                }
            }
            // Fisher–Yates shuffle: peer links carry no ordering.
            for i in (1..remote_plan.len()).rev() {
                remote_plan.swap(i, pick(&mut rng, i + 1));
            }
            let meta = FedMeta {
                shard: 0,
                shards: 2,
                global_nodes: dag.num_nodes(),
                to_global: (0..dag.num_nodes() as u64).collect(),
                stubs,
            };
            idx.set_fed(meta.clone());
            refm.set_fed(meta);
        }
    }

    let mut out = DiffOutcome {
        digest: FNV_OFFSET,
        ..DiffOutcome::default()
    };
    let mut now: u64 = 1;
    let mut workers: Vec<SimWorker> = Vec::new();
    let max_workers = 2 + pick(&mut rng, 3);

    let fi = idx.boot(now);
    same_effects(&refm.boot(now), &fi).map_err(|e| format!("boot: {e}"))?;
    out.digest = fold_effects(out.digest, &fi);

    let budget = 2_500;
    for step in 0..budget {
        if refm.is_complete() != idx.is_complete() {
            return Err(format!(
                "completion disagrees at step {step}: reference {} vs candidate {}",
                refm.is_complete(),
                idx.is_complete()
            ));
        }
        let done_running = idx.is_complete() && workers.iter().all(|w| !w.live || w.drained);
        if done_running && remote_plan.is_empty() {
            break;
        }

        // Enumerate the enabled actions (weighted by duplication).
        let mut acts: Vec<Act> = Vec::new();
        if workers.len() < max_workers {
            acts.push(Act::Spawn);
            acts.push(Act::Spawn);
        }
        for (i, w) in workers.iter().enumerate() {
            if w.registered && w.live && !w.drained {
                acts.push(Act::Request(i));
                acts.push(Act::Request(i));
                if !w.held.is_empty() {
                    acts.push(Act::Done(i, true));
                    acts.push(Act::Done(i, true));
                    acts.push(Act::Done(i, false));
                    acts.push(Act::Heartbeat(i));
                }
                acts.push(Act::Sever(i));
            }
            if w.registered && !w.live && w.token.is_some() {
                acts.push(Act::Resume(i));
                acts.push(Act::Resume(i));
            }
            if w.registered {
                acts.push(Act::StaleSever(i));
            }
        }
        acts.push(Act::Jump);
        if !remote_plan.is_empty() {
            acts.push(Act::Remote);
            acts.push(Act::Remote);
        }
        acts.push(Act::Chaos);
        acts.push(Act::BadResume);

        now += 1 + rng.next_u64() % 3;
        let chosen = pick(&mut rng, acts.len());
        let mut acting: Option<usize> = None;
        let ev = match acts[chosen] {
            Act::Spawn => {
                let n = workers.len();
                workers.push(SimWorker::default());
                acting = Some(n);
                Event::Hello {
                    id: format!("w{n}"),
                    speed: 1.0,
                    proto: 2,
                    resume: None,
                    now_us: now,
                }
            }
            Act::Resume(i) => {
                acting = Some(i);
                Event::Hello {
                    id: format!("w{i}+"),
                    speed: 1.0,
                    proto: 2,
                    resume: workers[i].token.clone(),
                    now_us: now,
                }
            }
            Act::BadResume => Event::Hello {
                id: "ghost".into(),
                speed: 1.0,
                proto: 2,
                resume: Some("feedfacefeedface".into()),
                now_us: now,
            },
            Act::Request(i) => {
                acting = Some(i);
                Event::Request {
                    worker: workers[i].slot,
                    max: 1 + rng.next_u64() % 3,
                    now_us: now,
                }
            }
            Act::Done(i, ok) => {
                acting = Some(i);
                let held = &mut workers[i].held;
                let at = pick(&mut rng, held.len());
                let task = held.swap_remove(at);
                Event::Done {
                    worker: workers[i].slot,
                    task,
                    ok,
                    now_us: now,
                }
            }
            Act::Heartbeat(i) => {
                let held = &workers[i].held;
                let task = held[pick(&mut rng, held.len())];
                acting = Some(i);
                Event::Heartbeat {
                    worker: workers[i].slot,
                    task,
                    now_us: now,
                }
            }
            Act::Sever(i) => {
                workers[i].live = false;
                Event::Sever {
                    worker: workers[i].slot,
                    epoch: workers[i].epoch,
                    now_us: now,
                }
            }
            Act::StaleSever(i) => Event::Sever {
                worker: workers[i].slot,
                epoch: workers[i].epoch.wrapping_sub(1),
                now_us: now,
            },
            Act::Jump => {
                now = now
                    .saturating_add(lease_ms.saturating_mul(1_000))
                    .saturating_add(1 + rng.next_u64() % 7);
                let er = refm.expired(now);
                let ei = idx.expired(now);
                if er != ei {
                    return Err(format!(
                        "expired() disagrees at step {step}:\n  reference: {er:?}\n  candidate: {ei:?}"
                    ));
                }
                for (worker, task) in ei {
                    out.expiries += 1;
                    let ev = Event::Expire {
                        worker,
                        task,
                        now_us: now,
                    };
                    out.events += 1;
                    let fi = idx.step(ev.clone());
                    same_effects(&refm.step(ev), &fi)
                        .map_err(|e| format!("step {step} (expire): {e}"))?;
                    out.digest = fold_effects(out.digest, &fi);
                }
                continue;
            }
            Act::Remote => {
                let at = pick(&mut rng, remote_plan.len());
                let task = remote_plan.swap_remove(at);
                Event::RemoteDone { task, now_us: now }
            }
            Act::Chaos => match rng.next_u64() % 5 {
                0 => Event::Done {
                    worker: pick(&mut rng, 8),
                    task: rng.next_u64() % 64,
                    ok: true,
                    now_us: now,
                },
                1 => Event::Heartbeat {
                    worker: pick(&mut rng, 8),
                    task: rng.next_u64() % 64,
                    now_us: now,
                },
                2 => Event::Expire {
                    worker: pick(&mut rng, 8),
                    task: rng.next_u64() % 64,
                    now_us: now,
                },
                // A peer older than the protocol (`proto` absent on the
                // wire decodes as 1): refused at the door, token or not.
                3 => Event::Hello {
                    id: "old".into(),
                    speed: 1.0,
                    proto: u32::from(rng.next_u64().is_multiple_of(2)),
                    resume: rng
                        .next_u64()
                        .is_multiple_of(2)
                        .then(|| "feedfacefeedface".into()),
                    now_us: now,
                },
                _ => Event::RemoteDone {
                    task: rng.next_u64() % 64,
                    now_us: now,
                },
            },
        };

        out.events += 1;
        let fr = refm.step(ev.clone());
        let fi = idx.step(ev.clone());
        same_effects(&fr, &fi).map_err(|e| format!("step {step} ({ev:?}): {e}"))?;
        out.digest = fold_effects(out.digest, &fi);

        // Absorb the candidate machine's answers into the driver model.
        for fx in &fi {
            match fx {
                Effect::Reply(Message::Welcome {
                    worker,
                    resume,
                    tasks,
                    ..
                }) => {
                    if let Some(i) = acting {
                        let w = &mut workers[i];
                        w.slot = usize::try_from(*worker).unwrap_or_default();
                        w.epoch = idx.worker_epoch(w.slot).unwrap_or_default();
                        w.token = resume.clone();
                        w.held = tasks.clone();
                        w.registered = true;
                        w.live = true;
                        w.drained = false;
                        if !tasks.is_empty() {
                            out.resumes += 1;
                        }
                    }
                }
                Effect::Reply(Message::Assign { tasks }) => {
                    if let Some(i) = acting {
                        workers[i].held.extend_from_slice(tasks);
                    }
                }
                Effect::Reply(Message::Revoke { task }) => {
                    if let Some(i) = acting {
                        workers[i].held.retain(|&t| t != *task);
                    }
                }
                Effect::Reply(Message::Drain) => {
                    if let Some(i) = acting {
                        workers[i].drained = true;
                        workers[i].held.clear();
                    }
                }
                // A refused hello (bad token, old proto) leaves the
                // ghost unregistered; a spawned worker retries later.
                _ => {}
            }
        }

        // Order-sensitive state probes every few steps: lease views in
        // table order are exactly the order-fidelity claim.
        if step % 8 == 0 {
            let lr = refm.lease_views();
            let li = idx.lease_views();
            if lr != li {
                return Err(format!(
                    "lease tables diverge at step {step}:\n  reference: {lr:?}\n  candidate: {li:?}"
                ));
            }
        }
    }

    if refm.fingerprint() != idx.fingerprint() {
        return Err("final fingerprints disagree".into());
    }
    if refm.summary(now) != idx.summary(now) {
        return Err(format!(
            "final summaries disagree:\n  reference: {:?}\n  candidate: {:?}",
            refm.summary(now),
            idx.summary(now)
        ));
    }
    if refm.lease_views() != idx.lease_views()
        || refm.deferred_tasks() != idx.deferred_tasks()
        || refm.pending_remote() != idx.pending_remote()
    {
        return Err("final queue state disagrees".into());
    }

    let r = idx.summary(now).registry;
    let count = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
    out.completions = count(r.completions);
    out.steals = count(r.steals);
    out.revokes = count(r.revokes);
    out.remote = count(r.remote_completions);
    out.complete = idx.is_complete();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::testgen;

    #[test]
    fn indexed_machine_matches_reference_on_random_fleets() {
        let mut totals = DiffOutcome::default();
        for (case, dag) in testgen::random_dags(0x5EED_D1FF, 24, 16, 30)
            .into_iter()
            .enumerate()
        {
            let out = run_case(&dag, 0xACE0 + case as u64, indexed)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            totals.events += out.events;
            totals.completions += out.completions;
            totals.steals += out.steals;
            totals.resumes += out.resumes;
            totals.expiries += out.expiries;
            totals.remote += out.remote;
        }
        // The suite must actually reach the interesting paths.
        assert!(totals.events > 1_000, "scripts too short: {totals:?}");
        assert!(totals.completions > 0, "no completions: {totals:?}");
    }
}
