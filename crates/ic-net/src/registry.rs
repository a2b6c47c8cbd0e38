//! The run's registry: what a server decided and what its poll rounds
//! did, counted where it happens and always on.
//!
//! One [`Registry`] travels with each [`LeaseMachine`](crate::LeaseMachine),
//! which counts its decisions (completions, reallocations, allocations,
//! resumes, steals, revokes) at the one site its trace events pass,
//! replayed ones included. The [`ServerCore`](crate::ServerCore) around
//! it counts frames and peer-link traffic into it, the
//! [`Reactor`](crate::Reactor) counts rounds and times their phases,
//! and the [`Poller`](crate::Poller) adds its syscalls at drain
//! ([`Poller::tally`](crate::Poller::tally)). A run's
//! [`ServeReport`](crate::ServeReport) is that registry and what only
//! the run's end knows. The counts of a run on a
//! [`ManualClock`](crate::ManualClock) and a
//! [`LoopbackPoller`](crate::LoopbackPoller) are exact and repeat run
//! to run; the phase times are wall-clock nanoseconds and do not.

use std::time::Instant;

/// Declares [`Registry`] and [`Registry::fields`] from one list of
/// documented `u64` readings, so a reading is named once.
macro_rules! registry {
    ($($(#[doc = $doc:literal])+ $field:ident,)+) => {
        /// Decision counts, round counts and phase times of one
        /// serving run.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        #[non_exhaustive]
        pub struct Registry {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl Registry {
            /// Every reading as `(name, value)`, counts first: the one
            /// list a report renders from.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),+]
            }
        }
    };
}

registry! {
    /// Tasks completed by this server's workers (equals the dag's node
    /// count on a standalone success).
    completions,
    /// Reallocation events: lease expiries, worker-reported failures,
    /// and forfeits by a worker that asked again while holding leases
    /// (including forfeited duplicates).
    failures,
    /// Allocation decisions made (primary leases only; speculative
    /// duplicates count under `steals`).
    allocations,
    /// Successful reconnects: a worker presented a valid resume token
    /// and kept its slot (and any held leases). After a crash restart
    /// this is a lower bound: the WAL records a resume by the leases it
    /// kept, so one that held none left no evidence to recover.
    resumes,
    /// Speculative duplicate leases granted at the drain barrier.
    steals,
    /// Stale duplicate leases cancelled after a winning completion.
    revokes,
    /// Federated runs only: stub completions applied from peer shards'
    /// `remote-done` notifications.
    remote_completions,
    /// Poll rounds after the boot round: one [`Poller::poll`](crate::Poller::poll) each.
    polls,
    /// Polls that returned no event.
    idle_polls,
    /// Polls that slept before scanning ([`TcpPoller`](crate::TcpPoller)).
    naps,
    /// Empty zero-timeout rounds after which the loop yielded its
    /// thread, spinning for an owed frame.
    yields,
    /// `accept` calls, the one that found no connection included.
    accepts,
    /// `read` calls on connections.
    reads,
    /// Reads that returned bytes.
    data_reads,
    /// `write` calls on connections.
    writes,
    /// Frames decoded from connections.
    frames_in,
    /// Frames encoded for connections.
    frames_out,
    /// Rounds that handed the poller output to flush.
    flushes,
    /// Frames sent on federation peer links.
    peer_tx,
    /// Frames received on established peer links.
    peer_rx,
    /// Peer links established to a peer that had been linked before.
    peer_reconnects,
    /// Nanoseconds in `poll`, its naps excluded.
    poll_ns,
    /// Nanoseconds napping inside `poll`.
    nap_ns,
    /// Nanoseconds stepping what a poll returned through the core and
    /// performing the output (the step phase).
    step_ns,
    /// Nanoseconds firing due timers and checking the drain.
    timer_ns,
    /// Nanoseconds in the trace sink's per-round flush.
    sink_ns,
    /// Nanoseconds in the poller's per-round flush (the socket writes).
    flush_ns,
}

/// Nanoseconds since `mark`, which moves to now: one clock read per
/// phase boundary.
pub(crate) fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*mark).as_nanos();
    *mark = now;
    u64::try_from(ns).unwrap_or(u64::MAX)
}
