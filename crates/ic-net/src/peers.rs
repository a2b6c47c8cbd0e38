//! Peer links between shard servers: the federation's side of a
//! [`ServerCore`].
//!
//! [`Peers`] is what one shard knows of the others — links up, the
//! backlog of completions they were told, who has drained (the frame
//! tallies go to the run's [`Registry`](crate::Registry)) — and the
//! `ServerCore` methods here are the core's six ways into it:
//! `dial_target`/`dialed` (a `Redial` fired; the shell dials),
//! `peer_frame`, `link_down`, `recorded` (a local task finished) and
//! `peers_drained` (the dag did). A standalone server is a federation of
//! one ([`Peers::standalone`]), so the serve path has one shape. The
//! shard with the larger index dials a link and owns its reconnects.
//! Which shard this is, of how many, and the local↔global id map come
//! from the trace header's [`FedMeta`]; [`FedConfig`] adds only what
//! that does not say. Every launcher redials at the one [`REDIAL_MS`].

use std::collections::{HashMap, HashSet};

use crate::machine::Event;
use crate::reactor::{ConnId, ConnState, Deadline, ServerCore};
use crate::wire::{Message, PROTO_V3};
use ic_sim::trace::{EventKind, FedMeta, TraceEvent, FED_CLIENT};

/// Delay between reconnect attempts for dialer-owned links.
const REDIAL_MS: u64 = 100;

/// After completing, keep serving peers for at most this long while
/// waiting for every peer's `peer-drain` (safety valve against a
/// partner that died mid-federation).
const LINGER_MS: u64 = 5_000;

/// What one shard's reactor must know beyond its [`FedMeta`]: where
/// the peers listen and which local completions they must hear about.
/// Built by `ic-fed` from a partition plan; pass both to
/// [`Reactor::set_fed`](crate::reactor::Reactor::set_fed).
#[derive(Debug, Clone, Default)]
pub struct FedConfig {
    /// Every other shard's `(shard, addr)`. The reactor dials peers
    /// with a smaller shard index and owns their reconnects; peers
    /// with a larger index dial us.
    pub peers: Vec<(u64, String)>,
    /// Local task id → peer shards to notify when a real (non-remote)
    /// completion of that task lands here.
    pub notify: HashMap<u64, Vec<u64>>,
    /// Test hook: after this many `remote-done` sends, sever every
    /// peer link once (reconnects then replay the backlog).
    pub sever_link_after: Option<usize>,
}

/// One shard's peer links: its identity from the [`FedMeta`], its
/// [`FedConfig`], and the live state beside them.
#[derive(Default, Clone)]
pub(crate) struct Peers {
    /// This reactor's shard index.
    shard: u64,
    /// Total shard count in the federation.
    shards: u64,
    /// Node count of the *global* (pre-partition) dag; peers
    /// cross-check it in `peer-hello` to refuse mismatched plans.
    global_nodes: u64,
    /// Local task id → global task id, for outgoing `remote-done`.
    to_global: Vec<u64>,
    /// Its inverse, for incoming `remote-done`.
    from_global: HashMap<u64, u64>,
    cfg: FedConfig,
    /// Peer shard → live connection, if the link is up.
    links: HashMap<u64, ConnId>,
    /// Peers that have been linked at least once: a fresh link to one
    /// of them counts as a reconnect.
    linked_once: HashSet<u64>,
    /// Peers that have sent `peer-drain`.
    drained: HashSet<u64>,
    /// Local ids of real completions already notified — replayed to a
    /// (re)connecting peer so no notification is ever lost. Receivers
    /// treat duplicates as no-ops, so replay is idempotent.
    sent_log: Vec<u64>,
    /// `remote-done` frames sent, for the sever hook (which disarms
    /// itself by leaving `cfg.sever_link_after` empty once it fired).
    remote_sends: usize,
    /// `peer-drain` was broadcast after local completion.
    drain_sent: bool,
}

impl Peers {
    /// A federation of one: no peer to dial, notify or wait for.
    pub(crate) fn standalone() -> Peers {
        Peers {
            shards: 1,
            ..Peers::default()
        }
    }

    /// The peer state of shard `meta.shard`.
    pub(crate) fn new(meta: &FedMeta, cfg: FedConfig) -> Peers {
        let locals = 0..meta.to_global.len() as u64;
        Peers {
            shard: meta.shard,
            shards: meta.shards,
            global_nodes: u64::try_from(meta.global_nodes).unwrap_or(u64::MAX),
            from_global: meta.to_global.iter().copied().zip(locals).collect(),
            to_global: meta.to_global.clone(),
            cfg,
            ..Peers::default()
        }
    }

    /// The `remote-done` frame announcing local task `local`.
    fn remote_done(&self, local: u64) -> Message {
        let global = usize::try_from(local)
            .ok()
            .and_then(|i| self.to_global.get(i).copied());
        Message::RemoteDone {
            task: global.unwrap_or(local),
            shard: self.shard,
        }
    }
}

impl ServerCore<'_, '_> {
    /// A `Redial` timer fired for `peer`: the address the shell should
    /// dial, unless its link came up meanwhile (timers are lazy). A
    /// peer with no address tries again in [`REDIAL_MS`].
    pub(crate) fn dial_target(&mut self, peer: u64, now_us: u64) -> Option<(u64, String)> {
        if self.peers.links.contains_key(&peer) {
            return None;
        }
        match self.peers.cfg.peers.iter().find(|&&(p, _)| p == peer) {
            Some((_, addr)) => Some((peer, addr.clone())),
            None => {
                self.redial_later(peer, now_us);
                None
            }
        }
    }

    /// The shell dialed `peer`: `Some(conn)` is the new link; on failure
    /// — or a poller that cannot dial — try again in [`REDIAL_MS`].
    pub(crate) fn dialed(&mut self, now_us: u64, peer: u64, conn: Option<ConnId>) {
        match conn {
            Some(id) => {
                self.conns.insert(id, ConnState::default());
                self.link_up(id, peer, now_us);
            }
            None => self.redial_later(peer, now_us),
        }
    }

    fn redial_later(&mut self, peer: u64, now_us: u64) {
        let at = now_us.saturating_add(REDIAL_MS * 1000);
        self.out.timers.push((at, Deadline::Redial { peer }));
    }

    /// A frame on peer link `id`, or the `peer-hello` that makes an
    /// anonymous connection one. A `remote-done` steps the machine; a
    /// protocol error (worker traffic on a peer link, a hello that does
    /// not match our plan) drops the connection.
    pub(crate) fn peer_frame(&mut self, id: ConnId, msg: Message, now_us: u64) {
        let linked = self.conns.get(&id).is_some_and(|st| st.peer.is_some());
        self.machine.reg.peer_rx += u64::from(linked);
        let peers = &mut self.peers;
        match msg {
            Message::PeerHello {
                shard,
                shards,
                nodes,
                proto,
            } if !linked => {
                // An inbound link (the peer with the larger shard
                // index dialed us): accept only a hello that matches
                // our own plan exactly.
                let matches = proto == PROTO_V3
                    && shards == peers.shards
                    && nodes == peers.global_nodes
                    && shard < shards
                    && shard != peers.shard;
                if matches {
                    self.link_up(id, shard, now_us);
                } else {
                    self.refuse(id, "peer-hello does not match this shard", now_us);
                }
            }
            // A duplicate hello on an established link: harmless.
            Message::PeerHello { .. } => {}
            // Map the global id into this shard's sub-dag; a task we
            // neither host nor consume is ignored (replayed backlog
            // can overshoot after a plan-side filter).
            Message::RemoteDone { task, .. } => {
                if let Some(&task) = peers.from_global.get(&task) {
                    self.step(Event::RemoteDone { task, now_us }, now_us, None);
                }
            }
            Message::PeerDrain { shard } => {
                if shard < peers.shards && shard != peers.shard {
                    peers.drained.insert(shard);
                }
            }
            _ => self.drop_conn(id, now_us),
        }
    }

    /// Connection `id` is now the link to `peer` (dialed or accepted):
    /// send our `peer-hello`, replay the full completed-boundary
    /// backlog (the receiver ignores duplicates), and re-announce the
    /// drain if this shard already finished.
    fn link_up(&mut self, id: ConnId, peer: u64, now_us: u64) {
        if let Some(st) = self.conns.get_mut(&id) {
            st.peer = Some(peer);
        }
        if let Some(old) = self.peers.links.insert(peer, id) {
            if old != id {
                self.cut(old); // a replaced link: forget the stale socket
            }
        }
        let peers = &mut self.peers;
        self.machine.reg.peer_reconnects += u64::from(!peers.linked_once.insert(peer));
        let shard = peers.shard;
        let hello = Message::PeerHello {
            shard,
            shards: peers.shards,
            nodes: peers.global_nodes,
            proto: PROTO_V3,
        };
        let wanted = |v: &u64| peers.cfg.notify.get(v).is_some_and(|d| d.contains(&peer));
        let backlog = peers.sent_log.iter().filter(|v| wanted(v));
        let msgs: Vec<Message> = std::iter::once(hello)
            .chain(backlog.map(|&v| peers.remote_done(v)))
            .chain(peers.drain_sent.then_some(Message::PeerDrain { shard }))
            .collect();
        for m in &msgs {
            self.peer_send(id, m, now_us);
        }
    }

    /// Peer link `id` to `peer` dropped: forget it and, when this
    /// shard owns the link (smaller peer index), schedule a redial.
    pub(crate) fn link_down(&mut self, id: ConnId, peer: u64, now_us: u64) {
        if self.peers.links.get(&peer) == Some(&id) {
            self.peers.links.remove(&peer);
        }
        if peer < self.peers.shard {
            self.redial_later(peer, now_us);
        }
    }

    /// Send one frame on a peer link, counting it, and fire the sever
    /// test hook once the configured number of `remote-done` frames
    /// has gone out: cut every peer link, exactly once. Each link's
    /// dialer redials, and the backlog replay on reconnect restores
    /// every lost notification.
    fn peer_send(&mut self, id: ConnId, msg: &Message, now_us: u64) {
        self.send(id, msg);
        self.machine.reg.peer_tx += 1;
        let peers = &mut self.peers;
        peers.remote_sends += usize::from(matches!(msg, Message::RemoteDone { .. }));
        let sent = peers.remote_sends;
        if peers.cfg.sever_link_after.take_if(|n| sent >= *n).is_some() {
            let links: Vec<(u64, ConnId)> = peers.links.drain().collect();
            for (peer, id) in links {
                self.cut(id);
                self.link_down(id, peer, now_us);
            }
        }
    }

    /// A trace event was recorded. When it is a worker's completion of
    /// a task peers must hear about, send `remote-done` to every linked
    /// destination, logging it for backlog replay either way.
    /// Remote-driven completions (client [`FED_CLIENT`]) never
    /// re-notify: their shard already told everyone.
    pub(crate) fn recorded(&mut self, ev: &TraceEvent, now_us: u64) {
        let real = ev.kind == EventKind::Completed && ev.client != FED_CLIENT;
        let Some(task) = ev.task.filter(|_| real) else {
            return;
        };
        let local = u64::try_from(task.index()).unwrap_or(u64::MAX);
        let peers = &mut self.peers;
        let Some(dests) = peers.cfg.notify.get(&local) else {
            return;
        };
        let targets: Vec<ConnId> = dests
            .iter()
            .filter_map(|d| peers.links.get(d).copied())
            .collect();
        peers.sent_log.push(local);
        let msg = peers.remote_done(local);
        for id in targets {
            self.peer_send(id, &msg, now_us);
        }
    }

    /// This shard's dag completed `waited_us` ago: tell every linked
    /// peer its boundary is fully delivered (once), and say whether
    /// every peer has announced the same or the linger ran out.
    pub(crate) fn peers_drained(&mut self, waited_us: u64, now_us: u64) -> bool {
        if !self.peers.drain_sent {
            self.peers.drain_sent = true;
            let drain = Message::PeerDrain {
                shard: self.peers.shard,
            };
            let targets: Vec<ConnId> = self.peers.links.values().copied().collect();
            for id in targets {
                self.peer_send(id, &drain, now_us);
            }
        }
        let all = self.peers.drained.len() as u64 + 1 >= self.peers.shards;
        all || waited_us >= LINGER_MS * 1000
    }
}
