//! The Totem-style membership state machine with Extended Virtual Synchrony
//! configuration delivery.
//!
//! [`MembershipDaemon`] wraps an ordering [`Participant`] and takes it
//! through the four Totem membership states:
//!
//! * **Operational** — the ordering protocol runs; token loss and foreign
//!   messages are the failure detectors.
//! * **Gather** — exchange join messages until consensus on a
//!   (processes, failed) pair.
//! * **Commit** — circulate the commit token twice around the forming ring
//!   so every member learns every member's recovery information.
//! * **Recover** — flood messages of dissolving rings so every transitional
//!   member holds the same set, deliver them in the transitional
//!   configuration, then install the new ring.
//!
//! Like the ordering protocol, the daemon is sans-IO: inputs are messages
//! and timer expiries (with an explicit `now` in nanoseconds), outputs are
//! sends, deliveries, and configuration changes.

use std::collections::{BTreeMap, BTreeSet};

use accelring_core::{
    Action, DataMessage, Delivery, Participant, ParticipantId, ProtocolConfig, QueueFullError,
    RecoverySnapshot, Ring, RingId, Seq, Service, Token,
};
use bytes::Bytes;

use crate::config::MembershipConfig;
use crate::msg::{CommitToken, ControlMessage, MemberInfo};

/// Which membership state the daemon is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// Ordering protocol active.
    Operational,
    /// Exchanging join messages.
    Gather,
    /// Commit token circulating.
    Commit,
    /// Exchanging old-ring messages before installing the new ring.
    Recover,
}

/// Timers the daemon arms; the runtime fires them back via
/// [`Input::Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// No token received for too long (Operational).
    TokenLoss,
    /// Retransmit the last sent token (Operational).
    TokenRetransmit,
    /// Rebroadcast the join message (Gather).
    JoinRebroadcast,
    /// Give up on silent processes (Gather).
    Consensus,
    /// Commit token lost (Commit).
    Commit,
    /// Recovery barrier incomplete (Recover).
    Recovery,
    /// Rebroadcast recovery flood and barrier (Recover).
    RecoveryRebroadcast,
    /// Broadcast the presence beacon (Operational).
    Presence,
    /// The join sets have been stable long enough to evaluate consensus
    /// (Gather).
    Settle,
}

/// An input to the daemon.
#[derive(Debug, Clone)]
pub enum Input {
    /// A token received on the token socket.
    Token(Token),
    /// A data message received on the data socket.
    Data(DataMessage),
    /// A membership control message.
    Control(ControlMessage),
    /// A timer previously armed by the daemon has expired.
    Timer(TimerKind),
}

/// An effect the runtime must carry out.
#[derive(Debug, Clone)]
pub enum Output {
    /// Multicast a data message to the ring.
    Multicast(DataMessage),
    /// Send the token to this participant.
    SendToken {
        /// Destination (the ring successor, or ourselves on a singleton
        /// ring).
        to: ParticipantId,
        /// The token.
        token: Token,
    },
    /// Deliver a message to the application.
    Deliver(Delivery),
    /// Send a control message; `to: None` means broadcast.
    SendControl {
        /// Unicast destination, or `None` for broadcast.
        to: Option<ParticipantId>,
        /// The control message.
        msg: ControlMessage,
    },
    /// Deliver a configuration change to the application (EVS).
    ConfigChange(ConfigChange),
}

/// An EVS configuration-change notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigChange {
    /// Id of the configuration (for a transitional configuration, the id of
    /// the dissolving ring it closes).
    pub ring_id: RingId,
    /// Members of the configuration.
    pub members: Vec<ParticipantId>,
    /// Whether this is a transitional configuration.
    pub transitional: bool,
}

/// Counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// Times the daemon entered Gather.
    pub gathers: u64,
    /// Regular configurations installed.
    pub rings_formed: u64,
    /// Tokens retransmitted by the token-retransmit timer.
    pub tokens_retransmitted: u64,
    /// New-ring messages stashed while not yet operational.
    pub stashed: u64,
}

#[derive(Debug, Clone)]
enum Stashed {
    Token(Token),
    Data(DataMessage),
}

#[derive(Debug)]
struct PendingRecovery {
    new_ring: Ring,
    floor: Seq,
    collected: BTreeMap<Seq, DataMessage>,
    done: BTreeSet<ParticipantId>,
    peers: Vec<ParticipantId>,
    /// Seqs above the floor we held when recovery began — advertised on
    /// our RecoveryDone so peers know what equality requires. Frozen at
    /// entry so rebroadcasts are idempotent.
    my_holds: Vec<Seq>,
    /// Union of the holds advertised by same-old-ring peers' barriers.
    /// Recovery may only complete once every one of these is in
    /// `collected` or in our own snapshot; a bare done-bit barrier would
    /// let a member whose flood packets were lost install the transitional
    /// configuration with a hole, breaking virtual synchrony.
    needed: BTreeSet<Seq>,
}

const MAX_STASH: usize = 4096;
const MAX_EARLY_FLOODS: usize = 65536;

/// A complete group-communication endpoint: ordering protocol plus
/// membership.
///
/// # Examples
///
/// A single node forms a singleton ring after its consensus timeout:
///
/// ```
/// use accelring_membership::{Input, MembershipConfig, MembershipDaemon, Output, StateKind, TimerKind};
/// use accelring_core::{ParticipantId, ProtocolConfig};
///
/// let mut d = MembershipDaemon::new(
///     ParticipantId::new(0),
///     ProtocolConfig::default(),
///     MembershipConfig::for_simulation(),
/// );
/// let mut out = Vec::new();
/// d.start(0, &mut out);
/// assert_eq!(d.state(), StateKind::Gather);
///
/// let cfg = MembershipConfig::for_simulation();
/// d.handle(cfg.gather_settle, Input::Timer(TimerKind::Settle), &mut out);
/// d.handle(cfg.consensus_timeout, Input::Timer(TimerKind::Consensus), &mut out);
/// assert_eq!(d.state(), StateKind::Operational);
/// assert!(out.iter().any(|o| matches!(o, Output::ConfigChange(c) if !c.transitional)));
/// ```
#[derive(Debug)]
pub struct MembershipDaemon {
    pid: ParticipantId,
    proto_cfg: ProtocolConfig,
    cfg: MembershipConfig,
    state: StateKind,
    participant: Participant,
    started: bool,
    timers: BTreeMap<TimerKind, u64>,
    last_sent_token: Option<Token>,
    // Gather state.
    my_proc: BTreeSet<ParticipantId>,
    my_fail: BTreeSet<ParticipantId>,
    joins: BTreeMap<ParticipantId, (BTreeSet<ParticipantId>, BTreeSet<ParticipantId>)>,
    max_ring_counter: u64,
    consensus_timeout_fired: bool,
    /// Whether the gather-settle period has elapsed (consensus may only be
    /// evaluated afterwards, so in-flight join chatter cannot race a
    /// forming ring).
    settled: bool,
    // Snapshot of the dissolving ring.
    snapshot: Option<RecoverySnapshot>,
    pending: Option<PendingRecovery>,
    stash: Vec<Stashed>,
    /// RecoveryDone barriers that arrived before we entered Recover
    /// ourselves (e.g. while the commit token was still on its way to us),
    /// keyed by the forming ring; each sender maps to the old ring it is
    /// recovering from and the seqs it advertised holding.
    early_dones: BTreeMap<RingId, BTreeMap<ParticipantId, (RingId, Vec<Seq>)>>,
    /// Recovery floods that arrived before we entered Recover.
    early_floods: Vec<(RingId, DataMessage)>,
    /// Our gather-attempt counter, carried on our joins.
    gather_epoch: u64,
    /// The last join content (epoch, proc set, fail set) seen from each
    /// peer, across state changes. Outside Gather, a join identical to the
    /// last one seen from its sender is stale chatter from a straggler and
    /// must not restart membership formation (otherwise in-flight join
    /// rebroadcasts knock committed nodes back to Gather in an endless
    /// storm). The epoch distinguishes a fresh attempt whose sets happen
    /// to repeat an old epoch's sets.
    seen_joins: BTreeMap<ParticipantId, (u64, BTreeSet<ParticipantId>, BTreeSet<ParticipantId>)>,
    stats: MembershipStats,
}

impl MembershipDaemon {
    /// Creates a daemon that is not yet participating; call
    /// [`MembershipDaemon::start`] to begin gathering.
    pub fn new(
        pid: ParticipantId,
        proto_cfg: ProtocolConfig,
        cfg: MembershipConfig,
    ) -> MembershipDaemon {
        let ring = Ring::new(RingId::new(pid, 0), vec![pid]).expect("singleton ring");
        let participant =
            Participant::new(pid, ring, proto_cfg).expect("member of its own singleton ring");
        MembershipDaemon {
            pid,
            proto_cfg,
            cfg,
            state: StateKind::Gather,
            participant,
            started: false,
            timers: BTreeMap::new(),
            last_sent_token: None,
            my_proc: BTreeSet::new(),
            my_fail: BTreeSet::new(),
            joins: BTreeMap::new(),
            max_ring_counter: 0,
            consensus_timeout_fired: false,
            settled: false,
            snapshot: None,
            pending: None,
            stash: Vec::new(),
            early_dones: BTreeMap::new(),
            early_floods: Vec::new(),
            gather_epoch: 0,
            seen_joins: BTreeMap::new(),
            stats: MembershipStats::default(),
        }
    }

    /// This daemon's participant id.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// Current membership state.
    pub fn state(&self) -> StateKind {
        self.state
    }

    /// The ring currently installed in the ordering participant (the last
    /// regular configuration).
    pub fn ring(&self) -> &Ring {
        self.participant.ring()
    }

    /// The wrapped ordering participant (read-only).
    pub fn participant(&self) -> &Participant {
        &self.participant
    }

    /// Membership counters.
    pub fn stats(&self) -> &MembershipStats {
        &self.stats
    }

    /// The protocol configuration in force.
    pub fn protocol_config(&self) -> &ProtocolConfig {
        &self.proto_cfg
    }

    /// The highest ring counter this daemon has used or observed. Totem
    /// stores this on stable storage so that a recovered daemon never
    /// reuses a ring id (EVS requires configuration identifiers to be
    /// unique); a runtime restarting a daemon should persist this value
    /// and hand it back via [`MembershipDaemon::restore_ring_counter`].
    pub fn max_ring_counter(&self) -> u64 {
        self.max_ring_counter
    }

    /// Restores the stable-storage ring counter after a restart (see
    /// [`MembershipDaemon::max_ring_counter`]). Only ever raises the
    /// counter.
    pub fn restore_ring_counter(&mut self, counter: u64) {
        self.max_ring_counter = self.max_ring_counter.max(counter);
    }

    /// Whether a waiting token should be read before waiting data (Section
    /// III-D of the paper); runtimes use this to order their socket reads.
    pub fn token_has_priority(&self) -> bool {
        self.participant.token_has_priority()
    }

    /// The gather state (proc set, fail set, join senders heard), for
    /// observability and debugging.
    pub fn gather_view(&self) -> (Vec<ParticipantId>, Vec<ParticipantId>, Vec<ParticipantId>) {
        (
            self.my_proc.iter().copied().collect(),
            self.my_fail.iter().copied().collect(),
            self.joins.keys().copied().collect(),
        )
    }

    /// The earliest armed timer, if any: `(deadline_ns, kind)`. The runtime
    /// should call [`MembershipDaemon::handle`] with [`Input::Timer`] when
    /// the deadline passes.
    pub fn next_timer(&self) -> Option<(u64, TimerKind)> {
        self.timers.iter().map(|(&k, &d)| (d, k)).min()
    }

    /// Queues an application message; it is multicast once the daemon is
    /// operational and the token allows, surviving configuration changes.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the send queue is at capacity.
    pub fn submit(&mut self, payload: Bytes, service: Service) -> Result<(), QueueFullError> {
        self.participant.submit(payload, service)
    }

    /// Begins participating: enters Gather and broadcasts a join.
    pub fn start(&mut self, now: u64, out: &mut Vec<Output>) {
        self.started = true;
        self.shift_to_gather(now, out);
    }

    /// Announces a clean departure from the ring.
    ///
    /// Broadcasts a join message that lists this process in its own fail
    /// set. By Totem's reciprocity rule peers cannot keep a processor that
    /// has failed them, so every receiver immediately fails the sender and
    /// regathers — the survivors reform after one gather-settle plus
    /// consensus round instead of waiting out the full token-loss timeout.
    /// No new control-message kind is needed; the departure rides the
    /// ordinary join exchange.
    ///
    /// Only meaningful while Operational (a daemon mid-formation just
    /// exits and lets the exchange converge without it); a no-op in any
    /// other state. The caller should flush the outputs and then stop
    /// feeding the daemon: it is left in a departed state and must not be
    /// reused.
    pub fn announce_leave(&mut self, out: &mut Vec<Output>) {
        if !self.started || self.state != StateKind::Operational {
            return;
        }
        self.gather_epoch += 1;
        self.max_ring_counter = self
            .max_ring_counter
            .max(self.participant.ring().id().counter());
        let mut proc_set: BTreeSet<ParticipantId> =
            self.participant.ring().members().iter().copied().collect();
        proc_set.insert(self.pid);
        let mut fail_set = BTreeSet::new();
        fail_set.insert(self.pid);
        out.push(Output::SendControl {
            to: None,
            msg: ControlMessage::Join {
                sender: self.pid,
                proc_set,
                fail_set,
                ring_counter: self.max_ring_counter,
                epoch: self.gather_epoch,
            },
        });
    }

    /// Processes one input at time `now` (nanoseconds, same clock as the
    /// timer deadlines), appending effects to `out`.
    pub fn handle(&mut self, now: u64, input: Input, out: &mut Vec<Output>) {
        assert!(self.started, "call start() before handle()");
        match input {
            Input::Timer(kind) => self.handle_timer(now, kind, out),
            Input::Token(token) => self.handle_token(now, token, out),
            Input::Data(msg) => self.handle_data(now, msg, out),
            Input::Control(msg) => self.handle_control(now, msg, out),
        }
    }

    // ----- timers ---------------------------------------------------------

    fn handle_timer(&mut self, now: u64, kind: TimerKind, out: &mut Vec<Output>) {
        match self.timers.get(&kind) {
            Some(&deadline) if deadline <= now => {
                self.timers.remove(&kind);
            }
            _ => return, // stale or cancelled timer
        }
        match (self.state, kind) {
            (StateKind::Operational, TimerKind::TokenLoss) => self.shift_to_gather(now, out),
            (StateKind::Operational, TimerKind::Presence) => {
                out.push(Output::SendControl {
                    to: None,
                    msg: ControlMessage::Presence {
                        sender: self.pid,
                        ring_id: self.participant.ring().id(),
                    },
                });
                self.timers
                    .insert(TimerKind::Presence, now + self.cfg.presence_interval);
            }
            (StateKind::Operational, TimerKind::TokenRetransmit) => {
                if let Some(token) = self.last_sent_token.clone() {
                    self.stats.tokens_retransmitted += 1;
                    let to = self.participant.ring().successor_of(self.pid);
                    out.push(Output::SendToken { to, token });
                    self.timers.insert(
                        TimerKind::TokenRetransmit,
                        now + self.cfg.token_retransmit_timeout,
                    );
                }
            }
            (StateKind::Gather, TimerKind::JoinRebroadcast) => {
                self.broadcast_join(out);
                self.timers
                    .insert(TimerKind::JoinRebroadcast, now + self.cfg.join_interval);
            }
            (StateKind::Gather, TimerKind::Settle) => {
                self.settled = true;
                self.check_consensus(now, out);
            }
            (StateKind::Gather, TimerKind::Consensus) => {
                self.consensus_timeout_fired = true;
                // Totem's rule: every member whose latest join does not
                // match our own sets has failed to reach consensus, be it
                // silent or stuck on a stale join (a member that stopped
                // mid-formation leaves one behind that never agrees).
                let disagreeing: Vec<ParticipantId> = self
                    .my_proc
                    .iter()
                    .copied()
                    .filter(|p| *p != self.pid && !self.my_fail.contains(p))
                    .filter(|p| {
                        self.joins
                            .get(p)
                            .is_none_or(|(ps, fs)| *ps != self.my_proc || *fs != self.my_fail)
                    })
                    .collect();
                if !disagreeing.is_empty() {
                    self.my_fail.extend(disagreeing);
                    self.broadcast_join(out);
                }
                self.timers
                    .insert(TimerKind::Consensus, now + self.cfg.consensus_timeout);
                self.check_consensus(now, out);
            }
            (StateKind::Commit, TimerKind::Commit) => self.shift_to_gather(now, out),
            (StateKind::Recover, TimerKind::Recovery) => self.shift_to_gather(now, out),
            (StateKind::Recover, TimerKind::RecoveryRebroadcast) => {
                self.rebroadcast_recovery(out);
                self.timers
                    .insert(TimerKind::RecoveryRebroadcast, now + self.cfg.join_interval);
            }
            _ => {} // timer no longer relevant in this state
        }
    }

    // ----- operational ----------------------------------------------------

    fn handle_token(&mut self, now: u64, token: Token, out: &mut Vec<Output>) {
        let current = self.participant.ring().id();
        if token.ring_id == current && self.state == StateKind::Operational {
            self.process_token(now, token, out);
        } else if self.is_pending_ring(token.ring_id) {
            self.stash_input(Stashed::Token(token));
        } else if token.ring_id.counter() > current.counter()
            && self.state == StateKind::Operational
        {
            // Foreign token from a newer configuration: something merged or
            // reformed without us.
            self.shift_to_gather(now, out);
        }
    }

    fn handle_data(&mut self, now: u64, msg: DataMessage, out: &mut Vec<Output>) {
        let current = self.participant.ring().id();
        if msg.ring_id == current && self.state == StateKind::Operational {
            let mut actions = Vec::new();
            self.participant.handle_data(msg, &mut actions);
            self.emit(actions, out);
        } else if self.is_pending_ring(msg.ring_id) {
            self.stash_input(Stashed::Data(msg));
        } else if msg.ring_id.counter() > current.counter() && self.state == StateKind::Operational
        {
            self.shift_to_gather(now, out);
        }
    }

    fn process_token(&mut self, now: u64, token: Token, out: &mut Vec<Output>) {
        let mut actions = Vec::new();
        self.participant.handle_token(token, &mut actions);
        self.emit(actions, out);
        self.timers
            .insert(TimerKind::TokenLoss, now + self.cfg.token_loss_timeout);
        if self.last_sent_token.is_some() {
            self.timers.insert(
                TimerKind::TokenRetransmit,
                now + self.cfg.token_retransmit_timeout,
            );
        }
    }

    fn emit(&mut self, actions: Vec<Action>, out: &mut Vec<Output>) {
        for action in actions {
            match action {
                Action::Multicast(m) => out.push(Output::Multicast(m)),
                Action::SendToken { to, token } => {
                    self.last_sent_token = Some(token.clone());
                    out.push(Output::SendToken { to, token });
                }
                Action::Deliver(d) => out.push(Output::Deliver(d)),
                Action::Discard { .. } => {}
            }
        }
    }

    // ----- gather ---------------------------------------------------------

    fn shift_to_gather(&mut self, now: u64, out: &mut Vec<Output>) {
        if self.state == StateKind::Operational || self.snapshot.is_none() {
            self.snapshot = Some(self.participant.recovery_snapshot());
        }
        self.stats.gathers += 1;
        self.gather_epoch += 1;
        self.state = StateKind::Gather;
        self.pending = None;
        self.stash.clear();
        self.early_dones.clear();
        self.early_floods.clear();
        self.last_sent_token = None;
        self.my_proc = self.participant.ring().members().iter().copied().collect();
        self.my_proc.insert(self.pid);
        self.my_fail.clear();
        self.joins.clear();
        self.consensus_timeout_fired = false;
        self.settled = false;
        self.max_ring_counter = self
            .max_ring_counter
            .max(self.participant.ring().id().counter());
        self.timers.clear();
        self.timers
            .insert(TimerKind::JoinRebroadcast, now + self.cfg.join_interval);
        self.timers
            .insert(TimerKind::Consensus, now + self.cfg.consensus_timeout);
        self.timers
            .insert(TimerKind::Settle, now + self.cfg.gather_settle);
        self.broadcast_join(out);
    }

    fn broadcast_join(&mut self, out: &mut Vec<Output>) {
        self.joins
            .insert(self.pid, (self.my_proc.clone(), self.my_fail.clone()));
        out.push(Output::SendControl {
            to: None,
            msg: ControlMessage::Join {
                sender: self.pid,
                proc_set: self.my_proc.clone(),
                fail_set: self.my_fail.clone(),
                ring_counter: self.max_ring_counter,
                epoch: self.gather_epoch,
            },
        });
    }

    fn handle_control(&mut self, now: u64, msg: ControlMessage, out: &mut Vec<Output>) {
        match msg {
            ControlMessage::Join {
                sender,
                proc_set,
                fail_set,
                ring_counter,
                epoch,
            } => {
                if sender == self.pid {
                    return; // our own broadcast looped back
                }
                if self.state != StateKind::Gather {
                    if self.seen_joins.get(&sender)
                        == Some(&(epoch, proc_set.clone(), fail_set.clone()))
                    {
                        // A straggler rebroadcasting information we already
                        // acted on: no reason to restart formation.
                        return;
                    }
                    // A join carrying news means membership is in flux:
                    // regather and absorb it.
                    self.shift_to_gather(now, out);
                }
                self.absorb_join(now, sender, epoch, proc_set, fail_set, ring_counter, out);
            }
            ControlMessage::Commit(ct) => self.handle_commit_token(now, ct, out),
            ControlMessage::Presence { sender, ring_id } => {
                // A beacon from a ring that is not ours and is not stale
                // means a reachable foreign ring exists: merge. The side
                // with the lower counter may ignore the other (stale-looking
                // beacons), but the higher side always triggers and its join
                // broadcasts pull the lower side in.
                if self.state == StateKind::Operational
                    && sender != self.pid
                    && ring_id != self.participant.ring().id()
                    && ring_id.counter() >= self.participant.ring().id().counter()
                {
                    self.shift_to_gather(now, out);
                }
            }
            ControlMessage::Recovery {
                old_ring,
                msg: data,
                ..
            } => match self.state {
                StateKind::Recover => {
                    if let (Some(snapshot), Some(pending)) = (&self.snapshot, &mut self.pending) {
                        if old_ring == snapshot.ring_id && data.seq > pending.floor {
                            pending.collected.entry(data.seq).or_insert(data);
                            // A flood can be the last missing piece once all
                            // barriers are already in.
                            self.check_recovery_complete(now, out);
                        }
                    }
                }
                StateKind::Gather | StateKind::Commit => {
                    // A peer is already recovering a ring we may be about to
                    // join; keep its flood until we know our floor.
                    if self.early_floods.len() < MAX_EARLY_FLOODS {
                        self.early_floods.push((old_ring, data));
                    }
                }
                StateKind::Operational => {}
            },
            ControlMessage::RecoveryDone {
                sender,
                new_ring,
                old_ring,
                holds,
            } => match self.state {
                StateKind::Recover => {
                    if let (Some(snapshot), Some(pending)) = (&self.snapshot, &mut self.pending) {
                        if new_ring == pending.new_ring.id() {
                            pending.done.insert(sender);
                            if old_ring == snapshot.ring_id {
                                pending.needed.extend(holds);
                            }
                            self.check_recovery_complete(now, out);
                        }
                    }
                }
                StateKind::Gather | StateKind::Commit => {
                    // The barrier can arrive before the commit token reaches
                    // us; remember it so we do not stall in Recover.
                    self.early_dones
                        .entry(new_ring)
                        .or_default()
                        .insert(sender, (old_ring, holds));
                }
                StateKind::Operational => {}
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn absorb_join(
        &mut self,
        now: u64,
        sender: ParticipantId,
        epoch: u64,
        proc_set: BTreeSet<ParticipantId>,
        fail_set: BTreeSet<ParticipantId>,
        ring_counter: u64,
        out: &mut Vec<Output>,
    ) {
        self.max_ring_counter = self.max_ring_counter.max(ring_counter);
        self.seen_joins
            .insert(sender, (epoch, proc_set.clone(), fail_set.clone()));
        let mut changed = false;
        if fail_set.contains(&self.pid) {
            // Totem's reciprocity rule: a processor that has given up on us
            // cannot be in our membership either. We must NOT merge its
            // fail set (it contains us), so we fail the sender instead and
            // let the two sides form separate rings; the presence beacon
            // merges them afterwards with fresh fail sets.
            changed = self.my_fail.insert(sender);
            self.joins.remove(&sender);
        } else {
            for p in &proc_set {
                changed |= self.my_proc.insert(*p);
            }
            for p in &fail_set {
                changed |= self.my_fail.insert(*p);
            }
            self.joins.insert(sender, (proc_set, fail_set));
        }
        if changed {
            // New information restarts the consensus and settle clocks and
            // must be spread.
            self.timers
                .insert(TimerKind::Consensus, now + self.cfg.consensus_timeout);
            self.timers
                .insert(TimerKind::Settle, now + self.cfg.gather_settle);
            self.settled = false;
            self.broadcast_join(out);
        }
        self.check_consensus(now, out);
    }

    fn check_consensus(&mut self, now: u64, out: &mut Vec<Output>) {
        if !self.settled {
            return; // wait out the join-exchange settle period
        }
        debug_assert!(
            !self.my_fail.contains(&self.pid),
            "reciprocity rule keeps us out of our own fail set"
        );
        let members: Vec<ParticipantId> = self
            .my_proc
            .iter()
            .copied()
            .filter(|p| !self.my_fail.contains(p))
            .collect();
        if members.is_empty() {
            return;
        }
        if members.len() == 1 && !self.consensus_timeout_fired {
            // Don't instantly declare a singleton ring at startup: give
            // peers one consensus period to answer.
            return;
        }
        let agreed = members.iter().all(|m| {
            self.joins
                .get(m)
                .is_some_and(|(p, f)| *p == self.my_proc && *f == self.my_fail)
        });
        if agreed {
            self.form_ring(now, members, out);
        }
    }

    fn member_info(&self) -> MemberInfo {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("snapshot taken when gathering began");
        MemberInfo {
            pid: self.pid,
            old_ring: snapshot.ring_id,
            local_aru: snapshot.local_aru,
            highest_held: snapshot.highest_held,
        }
    }

    fn form_ring(&mut self, now: u64, members: Vec<ParticipantId>, out: &mut Vec<Output>) {
        let rep = members[0];
        self.max_ring_counter += 4;
        let new_ring = RingId::new(rep, self.max_ring_counter);
        self.state = StateKind::Commit;
        self.timers.clear();
        self.timers
            .insert(TimerKind::Commit, now + self.cfg.commit_timeout);
        if rep == self.pid {
            let ct = CommitToken {
                new_ring,
                members: members.clone(),
                infos: vec![self.member_info()],
                hop: 0,
            };
            if members.len() == 1 {
                self.enter_recover(now, ct, out);
            } else {
                out.push(Output::SendControl {
                    to: Some(members[1]),
                    msg: ControlMessage::Commit(CommitToken { hop: 1, ..ct }),
                });
            }
        }
    }

    // ----- commit ---------------------------------------------------------

    fn handle_commit_token(&mut self, now: u64, mut ct: CommitToken, out: &mut Vec<Output>) {
        if !ct.members.contains(&self.pid) {
            return; // a ring forming without us; keep doing what we were doing
        }
        match self.state {
            StateKind::Gather | StateKind::Commit => {
                // The ring being formed must be newer than the ring we are
                // dissolving. A duplicated or reordered commit token from a
                // formation that already completed (its ring installed, then
                // dissolved again) would otherwise be accepted, and its infos
                // — whose old_ring fields predate our snapshot — would yield
                // an empty transitional membership.
                if let Some(snapshot) = &self.snapshot {
                    if ct.new_ring.counter() <= snapshot.ring_id.counter() {
                        return; // stale
                    }
                }
            }
            StateKind::Recover => return, // second-pass echo, already recovering
            StateKind::Operational => {
                if ct.new_ring.counter() <= self.participant.ring().id().counter() {
                    return; // stale
                }
                // A newer ring is forming that includes us but we missed the
                // gather: fall back to gathering.
                self.shift_to_gather(now, out);
                return;
            }
        }
        let n = ct.members.len() as u32;
        if ct.info_of(self.pid).is_none() {
            ct.infos.push(self.member_info());
        }
        let complete = ct.is_complete();
        let forward = ct.hop < 2 * n - 1;
        if forward {
            let my_idx = ct
                .members
                .iter()
                .position(|&m| m == self.pid)
                .expect("checked membership");
            let next = ct.members[(my_idx + 1) % ct.members.len()];
            let forwarded = CommitToken {
                hop: ct.hop + 1,
                ..ct.clone()
            };
            out.push(Output::SendControl {
                to: Some(next),
                msg: ControlMessage::Commit(forwarded),
            });
        }
        if complete {
            self.enter_recover(now, ct, out);
        } else {
            // First pass: stay in Commit waiting for the full token.
            self.state = StateKind::Commit;
            self.timers.clear();
            self.timers
                .insert(TimerKind::Commit, now + self.cfg.commit_timeout);
        }
    }

    // ----- recover --------------------------------------------------------

    fn enter_recover(&mut self, now: u64, ct: CommitToken, out: &mut Vec<Output>) {
        let ring = Ring::new(ct.new_ring, ct.members.clone()).expect("commit members are distinct");
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("snapshot taken when gathering began");
        let my_old = snapshot.ring_id;
        let peers: Vec<ParticipantId> = ct
            .infos
            .iter()
            .filter(|i| i.old_ring == my_old)
            .map(|i| i.pid)
            .collect();
        let floor = ct
            .infos
            .iter()
            .filter(|i| i.old_ring == my_old)
            .map(|i| i.local_aru)
            .min()
            .unwrap_or(Seq::ZERO);
        let my_holds: Vec<Seq> = snapshot
            .held
            .iter()
            .map(|m| m.seq)
            .filter(|s| *s > floor)
            .collect();
        let mut done = BTreeSet::new();
        let mut needed = BTreeSet::new();
        done.insert(self.pid);
        if let Some(early) = self.early_dones.remove(&ct.new_ring) {
            for (sender, (old_ring, holds)) in early {
                done.insert(sender);
                if old_ring == my_old {
                    needed.extend(holds);
                }
            }
        }
        self.early_dones.clear();
        let mut collected = BTreeMap::new();
        for (old_ring, data) in std::mem::take(&mut self.early_floods) {
            if old_ring == my_old && data.seq > floor {
                collected.entry(data.seq).or_insert(data);
            }
        }
        self.pending = Some(PendingRecovery {
            new_ring: ring,
            floor,
            collected,
            done,
            peers,
            my_holds,
            needed,
        });
        self.state = StateKind::Recover;
        self.timers.clear();
        self.timers
            .insert(TimerKind::Recovery, now + self.cfg.recovery_timeout);
        self.timers
            .insert(TimerKind::RecoveryRebroadcast, now + self.cfg.join_interval);
        self.rebroadcast_recovery(out);
        self.check_recovery_complete(now, out);
    }

    fn rebroadcast_recovery(&mut self, out: &mut Vec<Output>) {
        let Some(pending) = &self.pending else { return };
        let Some(snapshot) = &self.snapshot else {
            return;
        };
        // Flood only when a peer might be missing something: everything we
        // hold above the floor (= the minimum aru among transitional
        // members, below which everyone provably holds everything).
        if pending.peers.len() > 1 {
            for m in &snapshot.held {
                if m.seq > pending.floor {
                    out.push(Output::SendControl {
                        to: None,
                        msg: ControlMessage::Recovery {
                            sender: self.pid,
                            old_ring: snapshot.ring_id,
                            msg: m.clone(),
                        },
                    });
                }
            }
        }
        out.push(Output::SendControl {
            to: None,
            msg: ControlMessage::RecoveryDone {
                sender: self.pid,
                new_ring: pending.new_ring.id(),
                old_ring: snapshot.ring_id,
                holds: pending.my_holds.clone(),
            },
        });
    }

    fn check_recovery_complete(&mut self, now: u64, out: &mut Vec<Output>) {
        let Some(pending) = &self.pending else { return };
        let all_done = pending
            .new_ring
            .members()
            .iter()
            .all(|m| pending.done.contains(m));
        if !all_done {
            return;
        }
        // The barrier alone is not enough: a peer's RecoveryDone can arrive
        // while the flood packets it sent are lost. Wait until every seq any
        // same-old-ring peer advertised is actually in hand (the rebroadcast
        // timer refloods until then; the Recovery timeout bails us out if the
        // peer dies).
        if let Some(snapshot) = &self.snapshot {
            let have_all = pending.needed.iter().all(|s| {
                pending.collected.contains_key(s) || snapshot.held.iter().any(|m| m.seq == *s)
            });
            if !have_all {
                return;
            }
        }
        let pending = self.pending.take().expect("checked above");
        let snapshot = self.snapshot.take().expect("snapshot existed to recover");

        // 1. Transitional configuration closes the old ring (skipped for the
        //    cold-start pseudo-ring, which never delivered a regular
        //    configuration).
        if snapshot.ring_id.counter() != 0 {
            out.push(Output::ConfigChange(ConfigChange {
                ring_id: snapshot.ring_id,
                members: pending.peers.clone(),
                transitional: true,
            }));
            // 2. Deliver the old ring's recovered-but-undelivered messages in
            //    sequence order. Every transitional member holds the same set
            //    after the flood, so the orders agree.
            let mut all: BTreeMap<Seq, DataMessage> = pending.collected;
            for m in snapshot.held {
                all.entry(m.seq).or_insert(m);
            }
            for (seq, m) in all {
                if seq >= snapshot.next_delivery {
                    out.push(Output::Deliver(Delivery {
                        seq,
                        sender: m.pid,
                        round: m.round,
                        service: m.service,
                        payload: m.payload,
                    }));
                }
            }
        }

        // 3. The new regular configuration.
        out.push(Output::ConfigChange(ConfigChange {
            ring_id: pending.new_ring.id(),
            members: pending.new_ring.members().to_vec(),
            transitional: false,
        }));
        self.stats.rings_formed += 1;

        // 4. Install and go operational.
        self.participant
            .install_ring(pending.new_ring.clone(), Seq::ZERO);
        self.state = StateKind::Operational;
        self.last_sent_token = None;
        self.timers.clear();
        self.timers
            .insert(TimerKind::TokenLoss, now + self.cfg.token_loss_timeout);
        self.timers
            .insert(TimerKind::Presence, now + self.cfg.presence_interval);

        // 5. The representative starts the ring by processing the initial
        //    token directly.
        if pending.new_ring.members()[0] == self.pid {
            self.process_token(now, Token::initial(pending.new_ring.id()), out);
        }

        // 6. Replay anything that arrived for the new ring early.
        for stashed in std::mem::take(&mut self.stash) {
            match stashed {
                Stashed::Token(t) => self.process_token(now, t, out),
                Stashed::Data(d) => {
                    let mut actions = Vec::new();
                    self.participant.handle_data(d, &mut actions);
                    self.emit(actions, out);
                }
            }
        }
    }

    fn is_pending_ring(&self, ring_id: RingId) -> bool {
        matches!(self.state, StateKind::Commit | StateKind::Recover)
            && self
                .pending
                .as_ref()
                .is_some_and(|p| p.new_ring.id() == ring_id)
    }

    fn stash_input(&mut self, s: Stashed) {
        if self.stash.len() < MAX_STASH {
            self.stats.stashed += 1;
            self.stash.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon(pid: u16) -> MembershipDaemon {
        MembershipDaemon::new(
            ParticipantId::new(pid),
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        )
    }

    /// Drives a lone daemon through gather-settle and consensus timeout so
    /// it forms its singleton ring; returns the outputs of the forming
    /// step and the time it happened.
    fn form_singleton(d: &mut MembershipDaemon) -> (Vec<Output>, u64) {
        let cfg = MembershipConfig::for_simulation();
        let mut out = Vec::new();
        d.handle(cfg.gather_settle, Input::Timer(TimerKind::Settle), &mut out);
        out.clear();
        d.handle(
            cfg.consensus_timeout,
            Input::Timer(TimerKind::Consensus),
            &mut out,
        );
        (out, cfg.consensus_timeout)
    }

    #[test]
    fn starts_in_gather_and_broadcasts_join() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        assert_eq!(d.state(), StateKind::Gather);
        assert!(matches!(
            out[0],
            Output::SendControl {
                to: None,
                msg: ControlMessage::Join { .. }
            }
        ));
        assert!(d.next_timer().is_some());
    }

    #[test]
    #[should_panic(expected = "call start() before handle()")]
    fn handle_before_start_panics() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.handle(0, Input::Timer(TimerKind::Consensus), &mut out);
    }

    #[test]
    fn lone_node_forms_singleton_after_timeout() {
        let mut d = daemon(3);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let (out, _) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        let configs: Vec<&ConfigChange> = out
            .iter()
            .filter_map(|o| match o {
                Output::ConfigChange(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(
            configs.len(),
            1,
            "cold start delivers only the regular config"
        );
        assert!(!configs[0].transitional);
        assert_eq!(configs[0].members, vec![ParticipantId::new(3)]);
        // The representative started the token around its singleton ring.
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::SendToken { to, .. } if *to == ParticipantId::new(3))));
    }

    #[test]
    fn lone_node_does_not_form_instantly() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        // Before the consensus timeout the daemon must keep gathering.
        assert_eq!(d.state(), StateKind::Gather);
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        // TokenLoss is not armed in Gather; firing it must do nothing.
        d.handle(10, Input::Timer(TimerKind::TokenLoss), &mut out);
        assert!(out.is_empty());
        assert_eq!(d.state(), StateKind::Gather);
    }

    #[test]
    fn two_daemons_reach_consensus_via_joins() {
        let mut a = daemon(0);
        let mut b = daemon(1);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.start(0, &mut out_a);
        b.start(0, &mut out_b);

        // Exchange joins until both sides go quiet.
        for _ in 0..6 {
            let from_a: Vec<_> = std::mem::take(&mut out_a);
            for o in from_a {
                if let Output::SendControl { msg, .. } = o {
                    b.handle(1, Input::Control(msg), &mut out_b);
                }
            }
            let from_b: Vec<_> = std::mem::take(&mut out_b);
            for o in from_b {
                if let Output::SendControl { to, msg } = o {
                    if to.is_none() || to == Some(ParticipantId::new(0)) {
                        a.handle(1, Input::Control(msg), &mut out_a);
                    }
                }
            }
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
        }
        // After the settle period, both evaluate consensus and move on.
        let settle = MembershipConfig::for_simulation().gather_settle;
        a.handle(settle + 2, Input::Timer(TimerKind::Settle), &mut out_a);
        b.handle(settle + 2, Input::Timer(TimerKind::Settle), &mut out_b);
        assert_ne!(a.state(), StateKind::Gather);
        assert_ne!(b.state(), StateKind::Gather);
    }

    #[test]
    fn join_from_unknown_process_interrupts_operational() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let cfg = MembershipConfig::for_simulation();
        let (_, t0) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        let _ = t0;
        out.clear();
        d.handle(
            cfg.consensus_timeout + 1,
            Input::Control(ControlMessage::Join {
                sender: ParticipantId::new(9),
                proc_set: [ParticipantId::new(9)].into_iter().collect(),
                fail_set: BTreeSet::new(),
                ring_counter: 0,
                epoch: 1,
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
        assert!(d.stats().gathers >= 2);
    }

    #[test]
    fn announce_leave_broadcasts_self_failing_join() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let (_, _) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        out.clear();
        d.announce_leave(&mut out);
        let me = ParticipantId::new(0);
        assert!(
            out.iter().any(|o| matches!(
                o,
                Output::SendControl {
                    to: None,
                    msg: ControlMessage::Join { sender, fail_set, .. }
                } if *sender == me && fail_set.contains(&me)
            )),
            "leave must broadcast a join listing ourselves as failed"
        );
    }

    #[test]
    fn announce_leave_is_noop_while_gathering() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        assert_eq!(d.state(), StateKind::Gather);
        out.clear();
        d.announce_leave(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn peers_fail_a_clean_leaver_without_token_loss() {
        // A leaver's self-failing join makes an operational peer regather
        // and put the leaver in its fail set immediately (reciprocity),
        // without waiting for the token-loss timer.
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let (_, t0) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        out.clear();
        let leaver = ParticipantId::new(7);
        d.handle(
            t0 + 1,
            Input::Control(ControlMessage::Join {
                sender: leaver,
                proc_set: [ParticipantId::new(0), leaver].into_iter().collect(),
                fail_set: [leaver].into_iter().collect(),
                ring_counter: 0,
                epoch: 1,
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
        let (_, fail, _) = d.gather_view();
        assert!(fail.contains(&leaver), "reciprocity fails the leaver");
    }

    #[test]
    fn token_loss_triggers_gather() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let cfg = MembershipConfig::for_simulation();
        let (_, t0) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        out.clear();
        // Do not feed the token back; let the loss timer fire.
        d.handle(
            t0 + cfg.token_loss_timeout,
            Input::Timer(TimerKind::TokenLoss),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
    }

    #[test]
    fn token_retransmit_resends_last_token() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let cfg = MembershipConfig::for_simulation();
        let (_, t0) = form_singleton(&mut d);
        out.clear();
        d.handle(
            t0 + cfg.token_retransmit_timeout,
            Input::Timer(TimerKind::TokenRetransmit),
            &mut out,
        );
        assert!(
            out.iter().any(|o| matches!(o, Output::SendToken { .. })),
            "token must be retransmitted"
        );
        assert_eq!(d.stats().tokens_retransmitted, 1);
    }

    #[test]
    fn submissions_survive_membership_changes() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        d.submit(Bytes::from_static(b"queued"), Service::Agreed)
            .unwrap();
        let cfg = MembershipConfig::for_simulation();
        let (mut out, _) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        // Token circulates: feed the emitted token back until the queued
        // message is delivered (it may already be in this output batch,
        // since the representative processes the initial token directly).
        for _ in 0..4 {
            if out
                .iter()
                .any(|o| matches!(o, Output::Deliver(del) if del.payload == Bytes::from_static(b"queued")))
            {
                return;
            }
            let token = out
                .iter()
                .find_map(|o| match o {
                    Output::SendToken { token, .. } => Some(token.clone()),
                    _ => None,
                })
                .expect("token in flight");
            out.clear();
            d.handle(cfg.consensus_timeout + 10, Input::Token(token), &mut out);
        }
        panic!("queued message was never delivered");
    }

    #[test]
    fn commit_token_from_gather_is_joined() {
        // A commit token naming us forces us along even if our own gather
        // has not converged.
        let mut d = daemon(1);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        let ct = CommitToken {
            new_ring: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![MemberInfo {
                pid: ParticipantId::new(0),
                old_ring: RingId::new(ParticipantId::new(0), 0),
                local_aru: Seq::ZERO,
                highest_held: Seq::ZERO,
            }],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        // We appended our info (completing it) and entered Recover.
        assert_eq!(d.state(), StateKind::Recover);
        let forwarded = out
            .iter()
            .find_map(|o| match o {
                Output::SendControl {
                    to: Some(to),
                    msg: ControlMessage::Commit(ct),
                } => Some((*to, ct.clone())),
                _ => None,
            })
            .expect("commit token forwarded");
        assert_eq!(forwarded.0, ParticipantId::new(0));
        assert!(forwarded.1.is_complete());
        // And broadcast our recovery barrier.
        assert!(out.iter().any(|o| matches!(
            o,
            Output::SendControl {
                msg: ControlMessage::RecoveryDone { .. },
                ..
            }
        )));
    }

    #[test]
    fn commit_token_excluding_us_is_ignored() {
        let mut d = daemon(5);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        let ct = CommitToken {
            new_ring: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        assert_eq!(d.state(), StateKind::Gather);
        assert!(out.is_empty());
    }

    #[test]
    fn recovery_done_barrier_completes_two_member_ring() {
        let mut d = daemon(1);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        let ct = CommitToken {
            new_ring: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![MemberInfo {
                pid: ParticipantId::new(0),
                old_ring: RingId::new(ParticipantId::new(0), 0),
                local_aru: Seq::ZERO,
                highest_held: Seq::ZERO,
            }],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        assert_eq!(d.state(), StateKind::Recover);
        out.clear();
        d.handle(
            6,
            Input::Control(ControlMessage::RecoveryDone {
                sender: ParticipantId::new(0),
                new_ring: RingId::new(ParticipantId::new(0), 8),
                old_ring: RingId::new(ParticipantId::new(0), 0),
                holds: Vec::new(),
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Operational);
        let config = out
            .iter()
            .find_map(|o| match o {
                Output::ConfigChange(c) => Some(c.clone()),
                _ => None,
            })
            .expect("regular config delivered");
        assert!(!config.transitional);
        assert_eq!(
            config.members,
            vec![ParticipantId::new(0), ParticipantId::new(1)]
        );
        assert_eq!(d.ring().len(), 2);
    }
}
