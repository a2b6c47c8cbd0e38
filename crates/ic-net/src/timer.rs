//! A hierarchical timer wheel for lease expiry and peer-redial deadlines.
//!
//! Checking every lease's deadline on every loop iteration would be
//! an O(leases) scan per tick; the reactor uses this wheel instead:
//! O(1) amortized `schedule`, O(1) amortized `advance` per elapsed
//! tick, independent of how many timers are pending.
//!
//! # Lazy (non-cancelable) timers
//!
//! The wheel deliberately has **no cancel operation**. The lease
//! machine's `Event::Expire { worker, task, now_us }` is a guarded
//! no-op unless a matching lease exists with `deadline_us <= now_us`
//! (see `machine.rs`), so a stale timer — one whose lease was since
//! completed, forfeited, revoked, or renewed — fires harmlessly. The
//! reactor's obligation is only ever to *add* timers: one per grant (a
//! whole `assign` batch) and one per renewal, each at the new
//! deadline. That keeps the wheel a bag of `(deadline, item)` pairs
//! with no back-pointers into the lease table, which is what lets
//! `LeaseMachine` stay untouched.
//!
//! # Shape
//!
//! Deadlines are bucketed at [`TICK_US`] (~1 ms) granularity into
//! [`LEVELS`] levels of [`SLOTS`] slots each. Level 0 holds timers due
//! within the next `SLOTS` ticks at exact-tick resolution; each higher
//! level covers `SLOTS` times the span of the one below at
//! correspondingly coarser resolution, with entries *cascading* down a
//! level when time crosses their slot boundary. Timers past the
//! highest level land in an overflow list that is re-filed on the rare
//! level-3 boundary. Four levels at 64 slots and ~1 ms ticks cover
//! ~4.8 hours before overflow.

/// Microseconds per wheel tick: a power of two (~1.024 ms) so the
/// tick-of-deadline computation is a shift, not a division.
pub const TICK_US: u64 = 1 << 10;

/// Slots per level (a power of two, indexed by 6-bit fields of the
/// tick number).
pub const SLOTS: usize = 64;

/// Number of hierarchical levels.
pub const LEVELS: usize = 4;

const SLOT_BITS: u32 = SLOTS.trailing_zeros();

/// One pending timer: the absolute tick it is due, and its payload.
#[derive(Debug)]
struct Entry<T> {
    tick: u64,
    item: T,
}

/// A hierarchical timer wheel holding `(deadline_us, T)` pairs. See
/// the module docs for the lazy-timer contract.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// The last tick fully processed by [`advance`](TimerWheel::advance).
    now_tick: u64,
    /// The last microsecond time observed (construction or `advance`);
    /// finer-grained than `now_tick`, it decides whether a freshly
    /// scheduled deadline is already due.
    now_us: u64,
    /// `levels[l][slot]`: timers due when time reaches their tick.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Timers beyond the top level's horizon.
    overflow: Vec<Entry<T>>,
    /// Timers scheduled at or before `now_tick`: fire on next advance.
    due: Vec<T>,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel whose "now" is `now_us`.
    pub fn new(now_us: u64) -> TimerWheel<T> {
        let levels = (0..LEVELS)
            .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
            .collect();
        TimerWheel {
            now_tick: now_us >> TICK_US.trailing_zeros(),
            now_us,
            levels,
            overflow: Vec::new(),
            due: Vec::new(),
            len: 0,
        }
    }

    /// Number of pending timers (stale ones included — they leave the
    /// wheel only by firing).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` to fire once time reaches `deadline_us`.
    ///
    /// The deadline is rounded **up** to the next tick boundary, so
    /// when the timer fires the clock reads at least `deadline_us` —
    /// the lease machine must observe a real expiry, never an early
    /// one it would ignore (and that nobody would ever re-arm).
    pub fn schedule(&mut self, deadline_us: u64, item: T) {
        self.len += 1;
        // A deadline at or before the last observed time is already
        // due — it must fire on the next advance even if the clock
        // never moves again (a frozen deterministic driver).
        if deadline_us <= self.now_us {
            self.due.push(item);
            return;
        }
        let shift = TICK_US.trailing_zeros();
        // Ceiling division by the tick size, saturating at the top.
        // `deadline_us > now_us` guarantees the resulting tick is
        // strictly beyond `now_tick`.
        let tick = match deadline_us.checked_add(TICK_US - 1) {
            Some(v) => v >> shift,
            None => u64::MAX >> shift,
        };
        self.place(Entry { tick, item });
    }

    /// File an entry (strictly in the future) into the correct level.
    fn place(&mut self, e: Entry<T>) {
        debug_assert!(e.tick > self.now_tick);
        let delta = e.tick - self.now_tick;
        for level in 0..LEVELS {
            let span_bits = SLOT_BITS * (u32::try_from(level).unwrap_or(0) + 1);
            if span_bits < 64 && delta >> span_bits != 0 {
                continue;
            }
            let slot_bits = SLOT_BITS * u32::try_from(level).unwrap_or(0);
            let slot = usize::try_from((e.tick >> slot_bits) & (SLOTS as u64 - 1)).unwrap_or(0);
            self.levels[level][slot].push(e);
            return;
        }
        self.overflow.push(e);
    }

    /// Advance the wheel to `now_us`, appending every fired payload to
    /// `fired` in firing order (entries due at the same tick fire in
    /// insertion order). Clock regressions are ignored: the wheel only
    /// moves forward.
    pub fn advance(&mut self, now_us: u64, fired: &mut Vec<T>) {
        self.len -= self.due.len();
        fired.append(&mut self.due);

        self.now_us = self.now_us.max(now_us);
        let target = now_us >> TICK_US.trailing_zeros();
        while self.now_tick < target {
            let t = self.now_tick + 1;
            self.now_tick = t;
            // Everything in the level-0 slot for `t` is due exactly
            // now: level-0 entries are placed within SLOTS ticks, so
            // slot index collisions across wraps cannot occur.
            let slot = usize::try_from(t & (SLOTS as u64 - 1)).unwrap_or(0);
            for e in self.levels[0][slot].drain(..) {
                debug_assert!(e.tick == t);
                self.len -= 1;
                fired.push(e.item);
            }
            // Cascade a higher level's slot each time `t` crosses that
            // level's boundary: its entries are now within the span of
            // a lower level (or due immediately).
            for level in 1..LEVELS {
                let boundary_bits = SLOT_BITS * u32::try_from(level).unwrap_or(0);
                if t & ((1u64 << boundary_bits) - 1) != 0 {
                    break;
                }
                let slot = usize::try_from((t >> boundary_bits) & (SLOTS as u64 - 1)).unwrap_or(0);
                let moved: Vec<Entry<T>> = self.levels[level][slot].drain(..).collect();
                self.refile(moved, fired);
            }
            // The overflow list is re-filed on the top-level boundary.
            let top_bits = SLOT_BITS * u32::try_from(LEVELS).unwrap_or(0);
            if top_bits < 64 && t & ((1u64 << top_bits) - 1) == 0 {
                let moved: Vec<Entry<T>> = std::mem::take(&mut self.overflow);
                self.refile(moved, fired);
            }
        }
    }

    fn refile(&mut self, entries: Vec<Entry<T>>, fired: &mut Vec<T>) {
        for e in entries {
            if e.tick <= self.now_tick {
                self.len -= 1;
                fired.push(e.item);
            } else {
                self.place(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel<u32>, now_us: u64) -> Vec<u32> {
        let mut fired = Vec::new();
        wheel.advance(now_us, &mut fired);
        fired
    }

    #[test]
    fn a_past_deadline_fires_on_the_next_advance_even_without_clock_motion() {
        let mut w = TimerWheel::new(10_000_000);
        w.schedule(5, 1); // long past
        w.schedule(10_000_000, 2); // exactly now
        assert_eq!(w.len(), 2);
        // The clock has not moved at all — a frozen ManualClock — yet
        // both timers must still fire.
        assert_eq!(drain(&mut w, 10_000_000), vec![1, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn fires_at_or_after_the_deadline_never_before() {
        let mut w = TimerWheel::new(0);
        let deadline = 3 * TICK_US + 17; // mid-tick
        w.schedule(deadline, 7);
        // One microsecond before the deadline: nothing.
        assert_eq!(drain(&mut w, deadline - 1), Vec::<u32>::new());
        // At the deadline's rounded-up tick: fires, and the observed
        // clock is >= the requested deadline.
        assert_eq!(drain(&mut w, 4 * TICK_US), vec![7]);
    }

    #[test]
    fn level0_slots_fire_in_tick_order() {
        let mut w = TimerWheel::new(0);
        for i in 1..=32u64 {
            w.schedule(i * TICK_US, u32::try_from(i).unwrap());
        }
        let fired = drain(&mut w, 32 * TICK_US);
        assert_eq!(fired, (1..=32).collect::<Vec<u32>>());
    }

    #[test]
    fn cascade_at_the_level1_boundary() {
        let mut w = TimerWheel::new(0);
        // Just inside level 0, exactly on the boundary, just beyond.
        w.schedule(63 * TICK_US, 63);
        w.schedule(64 * TICK_US, 64);
        w.schedule(65 * TICK_US, 65);
        assert_eq!(drain(&mut w, 62 * TICK_US), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 63 * TICK_US), vec![63]);
        assert_eq!(drain(&mut w, 64 * TICK_US), vec![64]);
        assert_eq!(drain(&mut w, 65 * TICK_US), vec![65]);
    }

    #[test]
    fn cascade_at_the_level2_boundary() {
        let span = 64 * 64; // ticks covered by levels 0+1
        let mut w = TimerWheel::new(0);
        w.schedule((span - 1) * TICK_US, 1);
        w.schedule(span * TICK_US, 2);
        w.schedule((span + 1) * TICK_US, 3);
        // A single big jump straight past all three.
        assert_eq!(drain(&mut w, (span + 1) * TICK_US), vec![1, 2, 3]);
    }

    #[test]
    fn overflow_beyond_the_top_level_still_fires() {
        let horizon = 64u64 * 64 * 64 * 64; // ticks beyond LEVELS
        let mut w = TimerWheel::new(0);
        w.schedule((horizon + 5) * TICK_US, 9);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, horizon * TICK_US), Vec::<u32>::new());
        assert_eq!(drain(&mut w, (horizon + 5) * TICK_US), vec![9]);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_schedules_and_advances_never_lose_or_duplicate() {
        // Deterministic pseudo-random soak: every scheduled timer
        // fires exactly once, never before its deadline.
        let mut w = TimerWheel::new(0);
        let mut state = 0x1C5EEDu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut scheduled: Vec<(u64, u32)> = Vec::new();
        let mut fired_at: Vec<(u64, u32)> = Vec::new();
        for i in 0..2_000u32 {
            let delay = rng() % (200 * TICK_US);
            let deadline = now + delay;
            w.schedule(deadline, i);
            scheduled.push((deadline, i));
            now += rng() % (8 * TICK_US);
            let mut fired = Vec::new();
            w.advance(now, &mut fired);
            fired_at.extend(fired.into_iter().map(|id| (now, id)));
        }
        let mut tail = Vec::new();
        now += 300 * TICK_US;
        w.advance(now, &mut tail);
        fired_at.extend(tail.into_iter().map(|id| (now, id)));
        assert!(w.is_empty());
        assert_eq!(fired_at.len(), scheduled.len());
        for (deadline, id) in scheduled {
            let (at, _) = fired_at
                .iter()
                .find(|(_, f)| *f == id)
                .copied()
                .unwrap_or((0, 0));
            assert!(at >= deadline, "timer {id} fired at {at} < {deadline}");
            // Never more than one tick late relative to when time
            // actually reached it (lateness from advance() being
            // called sparsely is the caller's poll granularity).
        }
    }

    #[test]
    fn renewal_races_are_resolved_by_laziness_not_cancellation() {
        // Model the expiry-vs-renewal race: a lease granted at t=0
        // with deadline d1 is renewed to d2 > d1. Both timers stay in
        // the wheel; the d1 firing is the stale one. The wheel's only
        // job is to deliver both, in order, at-or-after their
        // deadlines — the machine's `deadline_us <= now_us` guard does
        // the rest.
        let mut w = TimerWheel::new(0);
        let d1 = 10 * TICK_US;
        let d2 = 30 * TICK_US;
        w.schedule(d1, 1);
        w.schedule(d2, 1); // same payload: (worker, task) pair
        assert_eq!(drain(&mut w, d1), vec![1]); // stale fire: no-op upstream
        assert_eq!(drain(&mut w, d2), vec![1]); // real expiry
        assert!(w.is_empty());
    }
}
