//! Enumeration of *down-sets* — the reachable execution states of a dag.
//!
//! When a dag is executed task by task, the set of already-executed nodes
//! is always predecessor-closed (a *down-set*, or order ideal, of the
//! precedence order). Conversely, every down-set is reachable by some
//! valid execution prefix. The exhaustive IC-optimality checker in
//! `ic-sched` needs, for every execution length `t`, the maximum number
//! of ELIGIBLE nodes over all down-sets of size `t`; this module supplies
//! the state enumeration, bitmask-encoded for dags of up to 64 nodes.
//!
//! # Performance model
//!
//! The sweep is *incremental* and *layer-parallel*:
//!
//! * each visited state carries its eligible mask, and extending a
//!   down-set by node `b` updates that mask in `O(out-degree(b))` via
//!   [`IdealEnumerator::eligible_after`] instead of re-testing all `n`
//!   parent masks;
//! * each BFS layer (all down-sets of one size) is sharded across scoped
//!   worker threads; per-worker outputs are deduplicated locally, sorted,
//!   and merged at the layer barrier, so every layer is visited in
//!   ascending state order **regardless of thread count** — the eligible
//!   mask is a pure function of the state, so duplicate discoveries across
//!   workers carry identical payloads and dedup cannot lose information.
//!
//! The pre-overhaul from-scratch algorithm is retained as
//! [`IdealEnumerator::for_each_reference`] so differential tests can
//! compare against it in the same binary.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::dag::{Dag, NodeId};
use crate::error::DagError;

/// SplitMix64-finalizer hasher for `u64` state keys. The sweep's dedup
/// sets are the hot path of the whole enumeration; SipHash's keyed
/// strengths are wasted on bitmask keys we generate ourselves, and its
/// per-insert cost dominates the incremental eligible update.
#[derive(Default)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the sweep).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

type StateSet = HashSet<u64, BuildHasherDefault<StateHasher>>;

/// Visitor passed to [`IdealEnumerator::sweep`]: receives each sorted
/// BFS layer of `(state, eligible)` pairs and the layer's down-set
/// size; returns `false` to stop the sweep early.
type LayerVisitor<'a> = dyn FnMut(&[(u64, u64)], u32) -> bool + 'a;

/// Layers below this many states are expanded on the calling thread; the
/// fixed cost of spawning scoped workers dominates under it.
const PAR_MIN_LAYER: usize = 2048;

/// Smallest per-worker chunk worth a thread of its own.
const PAR_MIN_CHUNK: usize = 512;

/// Bitmask-based down-set enumerator for dags with at most 64 nodes.
pub struct IdealEnumerator {
    parent_masks: Vec<u64>,
    child_masks: Vec<u64>,
    n: usize,
    threads: usize,
}

impl IdealEnumerator {
    /// Precompute parent and child masks. Errors with
    /// [`DagError::TooLarge`] for dags of more than 64 nodes.
    pub fn new(dag: &Dag) -> Result<Self, DagError> {
        let n = dag.num_nodes();
        if n > 64 {
            return Err(DagError::TooLarge(n));
        }
        let parent_masks = (0..n)
            .map(|i| {
                dag.parents(NodeId::new(i))
                    .iter()
                    .fold(0u64, |m, p| m | (1u64 << p.index()))
            })
            .collect();
        let child_masks = (0..n)
            .map(|i| {
                dag.children(NodeId::new(i))
                    .iter()
                    .fold(0u64, |m, c| m | (1u64 << c.index()))
            })
            .collect();
        let threads = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
            .min(8);
        Ok(IdealEnumerator {
            parent_masks,
            child_masks,
            n,
            threads,
        })
    }

    /// Override the number of worker threads used for layer expansion
    /// (defaults to `available_parallelism()`, capped at 8). Results are
    /// identical for every thread count; this exists for benchmarks and
    /// determinism tests. Values below 1 are clamped to 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of nodes in the underlying dag.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The ELIGIBLE nodes for the execution state `executed`: unexecuted
    /// nodes all of whose parents are executed. `O(n)` from scratch —
    /// the sweep itself uses [`IdealEnumerator::eligible_after`]; this
    /// entry point serves callers that land on an arbitrary state.
    #[inline]
    pub fn eligible_mask(&self, executed: u64) -> u64 {
        let mut e = 0u64;
        for (i, &pm) in self.parent_masks.iter().enumerate() {
            let bit = 1u64 << i;
            if executed & bit == 0 && pm & !executed == 0 {
                e |= bit;
            }
        }
        e
    }

    /// The eligible mask after extending the down-set `state` (whose
    /// eligible mask is `eligible`) by node index `b`. Only `b`'s
    /// children can become eligible, so this is `O(out-degree(b))`.
    ///
    /// `b` must be eligible in `state` (i.e. `eligible & (1 << b) != 0`);
    /// otherwise the result is meaningless.
    #[inline]
    pub fn eligible_after(&self, state: u64, eligible: u64, b: u32) -> u64 {
        let bit = 1u64 << b;
        let next = state | bit;
        let mut e = eligible & !bit;
        let mut kids = self.child_masks[b as usize];
        while kids != 0 {
            let cb = kids & kids.wrapping_neg();
            kids ^= cb;
            if self.parent_masks[cb.trailing_zeros() as usize] & !next == 0 {
                e |= cb;
            }
        }
        e
    }

    /// Visit every down-set exactly once, in nondecreasing size order and
    /// in ascending state order within each size (deterministic regardless
    /// of thread count). `f(executed_mask, size, eligible_mask)` is called
    /// per state, including the empty state.
    pub fn for_each(&self, mut f: impl FnMut(u64, u32, u64)) {
        self.sweep(u64::MAX, &mut |layer, size| {
            for &(state, elig) in layer {
                f(state, size, elig);
            }
            true
        });
    }

    /// Like [`IdealEnumerator::for_each`], but only grows states by
    /// eligible nodes inside `allowed` (a bitmask). Enumerates exactly
    /// the down-sets that are subsets of `allowed` — e.g. pass the
    /// nonsink mask to walk the execution states of "nonsinks-first"
    /// schedules.
    pub fn for_each_within(&self, allowed: u64, mut f: impl FnMut(u64, u32, u64)) {
        self.sweep(allowed, &mut |layer, size| {
            for &(state, elig) in layer {
                f(state, size, elig);
            }
            true
        });
    }

    /// Visit the down-sets one whole layer at a time: `f(size, layer)`
    /// where `layer` is the sorted slice of `(state, eligible)` pairs of
    /// that size. This is the zero-copy interface for exhaustive dynamic
    /// programs (`optimal_batches`, `min_regret_schedule`) that previously
    /// materialized all states and re-derived eligibility per state.
    pub fn for_each_layer(&self, mut f: impl FnMut(u32, &[(u64, u64)])) {
        self.sweep(u64::MAX, &mut |layer, size| {
            f(size, layer);
            true
        });
    }

    /// Total number of down-sets (execution states), including the empty
    /// and the full state. Counts layer lengths directly — no per-state
    /// callback.
    pub fn count(&self) -> u64 {
        let mut c = 0u64;
        self.sweep(u64::MAX, &mut |layer, _| {
            c += layer.len() as u64;
            true
        });
        c
    }

    /// Count down-sets, giving up once the running total exceeds `cap`:
    /// returns `Some(count)` when the lattice has at most `cap` states and
    /// `None` otherwise. A 64-node antichain has 2^64 down-sets, so
    /// callers that merely *report* the count (e.g. `ic-prio audit --dag`)
    /// must bound the enumeration.
    pub fn count_up_to(&self, cap: u64) -> Option<u64> {
        let mut c = 0u64;
        let mut overflow = false;
        self.sweep(u64::MAX, &mut |layer, _| {
            c = c.saturating_add(layer.len() as u64);
            if c > cap {
                overflow = true;
                return false;
            }
            true
        });
        if overflow {
            None
        } else {
            Some(c)
        }
    }

    /// The pre-overhaul reference enumeration: single-threaded hash-set
    /// BFS recomputing [`IdealEnumerator::eligible_mask`] from scratch per
    /// state. Visits every down-set exactly once in nondecreasing size
    /// order, with **unspecified** order within a size. Retained verbatim
    /// so differential tests can compare the incremental/parallel sweep
    /// against it in one binary.
    pub fn for_each_reference(&self, mut f: impl FnMut(u64, u32, u64)) {
        let mut layer: HashSet<u64> = HashSet::new();
        layer.insert(0);
        for size in 0..=self.n as u32 {
            if layer.is_empty() {
                break;
            }
            let mut next: HashSet<u64> = HashSet::with_capacity(layer.len() * 2);
            for &state in &layer {
                let elig = self.eligible_mask(state);
                f(state, size, elig);
                let mut rest = elig;
                while rest != 0 {
                    let bit = rest & rest.wrapping_neg();
                    rest ^= bit;
                    next.insert(state | bit);
                }
            }
            layer = next;
        }
    }

    /// Layered sweep driver. Calls `visit(layer, size)` per BFS layer
    /// (sorted by state); `visit` returns `false` to stop early.
    fn sweep(&self, allowed: u64, visit: &mut LayerVisitor) {
        let mut layer = vec![(0u64, self.eligible_mask(0))];
        let mut size = 0u32;
        loop {
            if !visit(&layer, size) {
                return;
            }
            let next = self.expand_layer(&layer, allowed);
            if next.is_empty() {
                return;
            }
            layer = next;
            size += 1;
        }
    }

    /// Expand one layer into the next: every state grows by each of its
    /// eligible nodes inside `allowed`. Sharded across scoped threads when
    /// the layer is large enough; the merged result is sorted by state and
    /// duplicate-free, so downstream order never depends on thread count.
    fn expand_layer(&self, layer: &[(u64, u64)], allowed: u64) -> Vec<(u64, u64)> {
        let workers = self
            .threads
            .min(layer.len() / PAR_MIN_CHUNK)
            .clamp(1, layer.len().max(1));
        if workers <= 1 || layer.len() < PAR_MIN_LAYER {
            return self.expand_chunk(layer, allowed);
        }
        let chunk = layer.len().div_ceil(workers);
        let mut parts: Vec<Vec<(u64, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = layer
                .chunks(chunk)
                .map(|ch| s.spawn(move || self.expand_chunk(ch, allowed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lattice sweep worker panicked"))
                .collect()
        });
        // Pairwise merge keeps each element on O(log workers) passes.
        while parts.len() > 1 {
            let mut merged = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => merged.push(merge_dedup(a, b)),
                    None => merged.push(a),
                }
            }
            parts = merged;
        }
        parts.pop().unwrap_or_default()
    }

    /// Sequential expansion of a slice of states: locally deduplicated
    /// (the eligible mask is computed once per distinct successor) and
    /// sorted by state.
    fn expand_chunk(&self, states: &[(u64, u64)], allowed: u64) -> Vec<(u64, u64)> {
        let mut seen = StateSet::with_capacity_and_hasher(states.len() * 2, Default::default());
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(states.len() * 2);
        for &(state, elig) in states {
            let mut rest = elig & allowed;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest ^= bit;
                let nstate = state | bit;
                if seen.insert(nstate) {
                    out.push((
                        nstate,
                        self.eligible_after(state, elig, bit.trailing_zeros()),
                    ));
                }
            }
        }
        out.sort_unstable_by_key(|&(s, _)| s);
        out
    }
}

/// Merge two sorted, duplicate-free `(state, eligible)` runs into one,
/// dropping cross-run duplicates. Equal states always carry equal eligible
/// masks (the mask is a function of the state), so either copy may win.
fn merge_dedup(a: Vec<(u64, u64)>, b: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_arcs;

    #[test]
    fn chain_has_linear_ideals() {
        // A path of n nodes has exactly n + 1 down-sets (the prefixes).
        let g = from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        assert_eq!(e.count(), 6);
    }

    #[test]
    fn antichain_has_all_subsets() {
        // n isolated nodes: every subset is a down-set.
        let g = from_arcs(4, &[]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        assert_eq!(e.count(), 16);
    }

    #[test]
    fn vee_ideals() {
        // Vee: {}, {r}, {r,a}, {r,b}, {r,a,b} => 5 down-sets.
        let g = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        assert_eq!(e.count(), 5);
    }

    #[test]
    fn eligible_masks_are_correct() {
        let g = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        // Nothing executed: only the source eligible.
        assert_eq!(e.eligible_mask(0), 0b0001);
        // Source executed: both middles eligible.
        assert_eq!(e.eligible_mask(0b0001), 0b0110);
        // Source + one middle: the other middle only.
        assert_eq!(e.eligible_mask(0b0011), 0b0100);
        // All but sink: sink eligible.
        assert_eq!(e.eligible_mask(0b0111), 0b1000);
        // Everything executed: nothing.
        assert_eq!(e.eligible_mask(0b1111), 0);
    }

    #[test]
    fn eligible_after_matches_from_scratch() {
        let g = from_arcs(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        e.for_each(|state, _, elig| {
            let mut rest = elig;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest ^= bit;
                let b = bit.trailing_zeros();
                assert_eq!(
                    e.eligible_after(state, elig, b),
                    e.eligible_mask(state | bit),
                    "incremental update diverged at state {state:#b} + node {b}"
                );
            }
        });
    }

    #[test]
    fn states_visited_once_in_size_order() {
        let g = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut last_size = 0;
        e.for_each(|state, size, _| {
            assert!(seen.insert(state), "state visited twice");
            assert!(size >= last_size);
            last_size = size;
            assert_eq!(state.count_ones(), size);
        });
        // Diamond: {}, {0}, {0,1}, {0,2}, {0,1,2}, {0,1,2,3} => 6.
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn visitation_matches_reference_set() {
        // Same states, same eligible masks as the retained naive sweep.
        let g = from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (3, 5)]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        let mut fast = Vec::new();
        let mut naive = Vec::new();
        e.for_each(|s, z, el| fast.push((z, s, el)));
        e.for_each_reference(|s, z, el| naive.push((z, s, el)));
        naive.sort_unstable();
        // `for_each` already yields (size asc, state asc).
        assert_eq!(fast, naive);
    }

    #[test]
    fn layer_interface_agrees_with_per_state() {
        let g = from_arcs(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let e = IdealEnumerator::new(&g).unwrap();
        let mut flat = Vec::new();
        e.for_each_layer(|size, layer| {
            for &(s, el) in layer {
                flat.push((s, size, el));
            }
        });
        let mut per_state = Vec::new();
        e.for_each(|s, z, el| per_state.push((s, z, el)));
        assert_eq!(flat, per_state);
    }

    #[test]
    fn count_up_to_bounds_the_walk() {
        let g = from_arcs(4, &[]).unwrap(); // 16 down-sets
        let e = IdealEnumerator::new(&g).unwrap();
        assert_eq!(e.count_up_to(16), Some(16));
        assert_eq!(e.count_up_to(1 << 20), Some(16));
        assert_eq!(e.count_up_to(15), None);
        assert_eq!(e.count_up_to(0), None);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Wide antichain plus a few arcs: enough states (2^k-ish) to cross
        // the parallel threshold is not required — determinism must hold
        // below it too, where the sequential path runs.
        let g = from_arcs(12, &[(0, 10), (1, 10), (2, 11)]).unwrap();
        let collect = |threads: usize| {
            let e = IdealEnumerator::new(&g).unwrap().with_threads(threads);
            let mut v = Vec::new();
            e.for_each(|s, z, el| v.push((s, z, el)));
            v
        };
        let one = collect(1);
        assert_eq!(one, collect(2));
        assert_eq!(one, collect(7));
    }

    #[test]
    fn too_large_is_rejected() {
        let g = from_arcs(65, &[]).unwrap();
        assert!(matches!(
            IdealEnumerator::new(&g),
            Err(DagError::TooLarge(65))
        ));
    }
}
