//! The deadline queue behind lease expiry and peer-redial deadlines.
//!
//! Every deadline the reactor schedules is `now + lease_ms` (a grant, a
//! resume, a heartbeat renewal, a restored lease) or a peer redial at
//! `now` or `now + REDIAL_MS`. Time only moves forward, so lease timers
//! append to the back of one queue and `advance` pops from the front;
//! only a redial, after a lost peer link, can land earlier and is
//! inserted by binary search. The type keeps the name `TimerWheel`
//! because the end-to-end benchmark's layer probes import it.
//!
//! # Lazy (non-cancelable) timers
//!
//! There is **no cancel operation**. The machine's `Event::Expire` is a
//! guarded no-op unless a matching lease exists with `deadline_us <=
//! now_us`, so a stale timer — its lease since completed, forfeited,
//! revoked, or renewed — fires harmlessly. The reactor only ever *adds*
//! timers: one per grant (a whole `assign` batch) and one per renewal,
//! so the queue holds no back-pointers into the lease table.

use std::collections::VecDeque;

/// `(deadline_us, T)` pairs in deadline order, equal deadlines in the
/// order they were scheduled. See the module docs for the lazy-timer
/// contract.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// The latest time observed (construction or `advance`).
    now_us: u64,
    queue: VecDeque<(u64, T)>,
}

impl<T> TimerWheel<T> {
    /// An empty queue whose "now" is `now_us`.
    pub fn new(now_us: u64) -> TimerWheel<T> {
        TimerWheel {
            now_us,
            queue: VecDeque::new(),
        }
    }

    /// Number of pending timers (stale ones included — they leave the
    /// queue only by firing).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The earliest pending deadline, if any (a stale timer's included).
    pub fn next_due(&self) -> Option<u64> {
        self.queue.front().map(|&(d, _)| d)
    }

    /// Schedule `item` to fire once time reaches `deadline_us`: never
    /// earlier, so the lease machine observes a real expiry and not an
    /// early one it would ignore (and that nobody would ever re-arm).
    /// A deadline already past fires on the next advance, even if the
    /// clock never moves again (a frozen deterministic driver).
    pub fn schedule(&mut self, deadline_us: u64, item: T) {
        if self.queue.back().is_none_or(|&(d, _)| d <= deadline_us) {
            self.queue.push_back((deadline_us, item));
        } else {
            let at = self.queue.partition_point(|&(d, _)| d <= deadline_us);
            self.queue.insert(at, (deadline_us, item));
        }
    }

    /// Advance to `now_us`, appending every payload due by then to
    /// `fired` in deadline order. Clock regressions are ignored: the
    /// queue's time only moves forward.
    pub fn advance(&mut self, now_us: u64, fired: &mut Vec<T>) {
        self.now_us = self.now_us.max(now_us);
        while self.queue.front().is_some_and(|&(d, _)| d <= self.now_us) {
            fired.extend(self.queue.pop_front().map(|(_, item)| item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spacing for the deadlines below. The queue compares raw
    /// microseconds, so the value only has to keep them apart.
    const STEP_US: u64 = 1 << 10;

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
        let deadline = 3 * STEP_US + 17; // between two steps
        w.schedule(deadline, 7);
        // One microsecond before the deadline: nothing.
        assert_eq!(drain(&mut w, deadline - 1), Vec::<u32>::new());
        // Any advance past the deadline fires it.
        assert_eq!(drain(&mut w, 4 * STEP_US), vec![7]);
    }

    /// Deadlines scheduled in ascending order append to the back; one
    /// advance past them all fires them front to back.
    #[test]
    fn appended_deadlines_fire_in_deadline_order() {
        let mut w = TimerWheel::new(0);
        for i in 1..=32u64 {
            w.schedule(i * STEP_US, u32::try_from(i).unwrap());
        }
        let fired = drain(&mut w, 32 * STEP_US);
        assert_eq!(fired, (1..=32).collect::<Vec<u32>>());
    }

    /// Deadlines one step apart: each advance fires exactly the timer
    /// due by then, none of the later ones.
    #[test]
    fn each_advance_fires_only_what_is_due() {
        let mut w = TimerWheel::new(0);
        w.schedule(63 * STEP_US, 63);
        w.schedule(64 * STEP_US, 64);
        w.schedule(65 * STEP_US, 65);
        assert_eq!(drain(&mut w, 62 * STEP_US), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 63 * STEP_US), vec![63]);
        assert_eq!(drain(&mut w, 64 * STEP_US), vec![64]);
        assert_eq!(drain(&mut w, 65 * STEP_US), vec![65]);
    }

    /// Three adjacent deadlines far from the start.
    #[test]
    fn one_jump_past_several_deadlines_fires_them_in_order() {
        let span = 64 * 64;
        let mut w = TimerWheel::new(0);
        w.schedule((span - 1) * STEP_US, 1);
        w.schedule(span * STEP_US, 2);
        w.schedule((span + 1) * STEP_US, 3);
        // A single big jump straight past all three.
        assert_eq!(drain(&mut w, (span + 1) * STEP_US), vec![1, 2, 3]);
    }

    /// A deadline hours away (2^34 µs) stays pending until it is
    /// reached, however far that is.
    #[test]
    fn a_distant_deadline_waits_and_then_fires() {
        let horizon = 64u64 * 64 * 64 * 64;
        let mut w = TimerWheel::new(0);
        w.schedule((horizon + 5) * STEP_US, 9);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, horizon * STEP_US), Vec::<u32>::new());
        assert_eq!(drain(&mut w, (horizon + 5) * STEP_US), vec![9]);
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
            let delay = rng() % (200 * STEP_US);
            let deadline = now + delay;
            w.schedule(deadline, i);
            scheduled.push((deadline, i));
            now += rng() % (8 * STEP_US);
            let mut fired = Vec::new();
            w.advance(now, &mut fired);
            fired_at.extend(fired.into_iter().map(|id| (now, id)));
        }
        let mut tail = Vec::new();
        now += 300 * STEP_US;
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
            // How late it fired is the caller's: `advance` runs only
            // as often as the caller polls.
        }
    }

    #[test]
    fn renewal_races_are_resolved_by_laziness_not_cancellation() {
        // Model the expiry-vs-renewal race: a lease granted at t=0
        // with deadline d1 is renewed to d2 > d1. Both timers stay in
        // the queue; the d1 firing is the stale one. The queue's only
        // job is to deliver both, in order, at-or-after their
        // deadlines — the machine's `deadline_us <= now_us` guard does
        // the rest.
        let mut w = TimerWheel::new(0);
        let d1 = 10 * STEP_US;
        let d2 = 30 * STEP_US;
        w.schedule(d1, 1);
        w.schedule(d2, 1); // same payload: (worker, task) pair
        assert_eq!(drain(&mut w, d1), vec![1]); // stale fire: no-op upstream
        assert_eq!(drain(&mut w, d2), vec![1]); // real expiry
        assert!(w.is_empty());
    }

    #[test]
    fn an_earlier_deadline_is_inserted_ahead_and_ties_keep_their_order() {
        // Lease timers append; a redial after a lost peer link can
        // land before them, and equal deadlines fire as scheduled.
        let mut w = TimerWheel::new(0);
        w.schedule(500, 1);
        w.schedule(500, 2);
        w.schedule(900, 3);
        w.schedule(100, 4); // the redial
        w.schedule(500, 5);
        assert_eq!(drain(&mut w, 99), Vec::<u32>::new());
        assert_eq!(w.next_due(), Some(100));
        assert_eq!(drain(&mut w, 500), vec![4, 1, 2, 5]);
        assert_eq!(w.next_due(), Some(900));
        assert_eq!(drain(&mut w, 10), Vec::<u32>::new(), "time never runs back");
        assert_eq!(drain(&mut w, 900), vec![3]);
    }
}
