//! The daemon runtime: one reactor thread that serves clients over one
//! or more rings. [`GroupDaemon`] runs it over a single [`GroupEngine`];
//! the multi-ring daemon (`accelring_multiring::MultiRingDaemon`) runs
//! the same reactor over R rings and a cross-ring merge. Everything the
//! two have in common lives here, once: the command channel and the
//! client call round trip, the session frontend ([`crate::frontend`]),
//! ring-event draining, backlog-aware submission, stats export,
//! supervision and shutdown. What differs sits behind [`DaemonEngine`].
//!
//! One thread does everything: with the session socket open it parks on
//! that socket with `ppoll` (via [`Poller`]), so a remote SUBMIT wakes it
//! the instant the datagram lands; in-process command channels and ring
//! events are drained on every wakeup, with a short tick bounding their
//! latency. Without a session socket it blocks in a channel select on the
//! commands and every ring's events. All client sessions — channel
//! adapters and remote sessions alike — live in one slab-indexed
//! [`SessionMux`], sharing fair egress, credit gating, and per-cause
//! shed accounting.
//!
//! Submissions a ring's bounded queue refuses
//! ([`SubmitError::Backlogged`]) are queued and replayed in FIFO order
//! under jittered backoff, never dropped: a large message's fragments
//! must all reach the ring, in order.
//!
//! The reactor supervises its transport nodes: when any node thread dies
//! (panic, kill switch, or plain exit) every connected client receives a
//! terminal [`ClientEvent::Disconnected`] instead of silently hanging on
//! an event channel that will never speak again. Clients can then
//! reconnect to a surviving daemon and resubmit in-flight messages with
//! session sequence numbers; the replicated engines drop the duplicates.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use accelring_core::{Backoff, Delivery, FrontendStats, RingIdx, Service};
use accelring_membership::ConfigChange;
use accelring_transport::{
    AppEvent, NodeHandle, Poller, SubmitError, TransportProbe, TransportStats,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender, TryRecvError};

use crate::engine::{ClientEvent, EngineError, EngineOptions, EngineOutput, GroupEngine};
use crate::frontend::{FrontendOptions, Ingress, SessionMux};
use crate::proto::GroupAction;

/// Liveness backstop for the reactor's select when there is no session
/// socket: everything interesting wakes the select through a channel, so
/// this only bounds how stale the exported stats can get. Engines with
/// periodic work of their own shorten it ([`DaemonEngine::idle_tick`]).
const IDLE_TICK: Duration = Duration::from_millis(50);

/// Wait cap when the session socket is open: a datagram wakes the
/// reactor immediately through `ppoll`; command channels and ring events
/// (which cannot be polled) are picked up within this tick.
const REACTOR_TICK: Duration = Duration::from_millis(1);

/// Runtime settings for a [`GroupDaemon`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonOptions {
    /// Packing/fragmentation settings for the group engine.
    pub engine: EngineOptions,
    /// Per-client event queue capacity; `None` means unbounded. With a
    /// bounded queue, a client that stops draining its events sheds
    /// `Message`/`View`/`Config` events (counted in
    /// [`DaemonStats::events_shed`]) instead of growing daemon memory
    /// without bound. The terminal [`ClientEvent::Disconnected`] is never
    /// shed — the reactor blocks briefly to deliver it, and channel
    /// closure backstops even that.
    pub client_queue: Option<usize>,
    /// Session-frontend tuning; set
    /// [`FrontendOptions::session_socket`] to serve remote
    /// [`crate::frontend::SessionClient`]s over UDP.
    pub frontend: FrontendOptions,
}

/// Counters exported by a running [`GroupDaemon`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Client events dropped across all causes (the per-cause split is
    /// in [`GroupDaemon::frontend_stats`]).
    pub events_shed: u64,
    /// Sequenced messages dropped by this daemon's engine as duplicates.
    pub duplicates_dropped: u64,
}

/// An effect the reactor carries out for its engine: submit a payload
/// on the ring that must order it, or hand an event to a local client.
/// A one-ring [`GroupEngine`]'s outputs convert with `ring` 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingOutput {
    /// Submit this payload for totally ordered multicast on `ring`.
    Submit {
        /// The ring that must order it.
        ring: RingIdx,
        /// Encoded group message.
        payload: Bytes,
        /// Requested service.
        service: Service,
    },
    /// Hand an event to a local client.
    Local {
        /// The local client's name.
        client: String,
        /// The event.
        event: ClientEvent,
    },
}

impl From<EngineOutput> for RingOutput {
    fn from(out: EngineOutput) -> RingOutput {
        match out {
            EngineOutput::Submit { payload, service } => RingOutput::Submit {
                ring: RingIdx::new(0),
                payload,
                service,
            },
            EngineOutput::Local { client, event } => RingOutput::Local { client, event },
        }
    }
}

/// The engine side of the daemon reactor: the client operations and
/// ring events every daemon handles, plus hooks for the work only some
/// daemons do. [`GroupEngine`] implements it for one ring; the
/// multi-ring daemon implements it over its merge engine.
pub trait DaemonEngine: Send + 'static {
    /// The error client calls return.
    type Error: From<EngineError> + Send + 'static;
    /// The effects the engine asks the reactor to carry out.
    type Output: Into<RingOutput>;

    /// Registers a local client; fails for invalid or duplicate names with
    /// the [`EngineError`] a remote HELLO's ERROR reply carries.
    fn connect(&mut self, name: &str) -> Result<(), EngineError>;
    /// The named client joins `group`.
    fn join(&mut self, name: &str, group: &str) -> Result<Vec<Self::Output>, Self::Error>;
    /// The named client leaves `group`.
    fn leave(&mut self, name: &str, group: &str) -> Result<Vec<Self::Output>, Self::Error>;
    /// Multicasts `payload` to `groups` under session sequence `seq`
    /// (`0` is unsequenced). `spanning` lets a multi-ring engine split a
    /// cross-ring group set into per-ring fragments instead of rejecting
    /// it; one-ring engines ignore it.
    fn multicast(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
        spanning: bool,
    ) -> Result<Vec<Self::Output>, Self::Error>;
    /// Unregisters a local client, leaving every group.
    fn disconnect(&mut self, name: &str) -> Result<Vec<Self::Output>, Self::Error>;
    /// Closes partially packed payloads; called once per reactor turn.
    fn flush(&mut self) -> Vec<Self::Output>;
    /// Processes one ordered delivery from `ring`.
    fn on_delivery(&mut self, ring: RingIdx, delivery: &Delivery) -> Vec<Self::Output>;
    /// Processes one configuration change on `ring`.
    fn on_config_change(&mut self, ring: RingIdx, change: &ConfigChange) -> Vec<Self::Output>;
    /// Sequenced messages dropped as duplicates so far.
    fn duplicates_dropped(&self) -> u64;

    /// How long the reactor's channel select may sleep without a session
    /// socket.
    fn idle_tick(&self) -> Duration {
        IDLE_TICK
    }
    /// Whether client HELLOs are welcome. A daemon still catching up
    /// drops them silently; the client's retry loop covers the window.
    fn serving(&self) -> bool {
        true
    }
    /// Handles a daemon-to-daemon frame from the session socket
    /// ([`Ingress::MapPull`], [`Ingress::MapPush`],
    /// [`Ingress::SvcQuery`]). Ignored by default.
    fn on_peer_frame(&mut self, _frame: Ingress, _io: &mut Io) {}
    /// Per-turn work, after the rings' events are drained and before
    /// egress is flushed.
    fn turn(&mut self, _io: &mut Io) {}
    /// The terminal reason clients see when `ring`'s node dies.
    fn ring_died(&self, _ring: RingIdx, reason: String) -> String {
        reason
    }
}

/// Engines whose clients may multicast across rings
/// ([`Client::multicast_spanning`]).
pub trait SpanningEngine: DaemonEngine {}

impl DaemonEngine for GroupEngine {
    type Error = EngineError;
    type Output = EngineOutput;

    fn connect(&mut self, name: &str) -> Result<(), EngineError> {
        self.client_connect(name)
    }

    fn join(&mut self, name: &str, group: &str) -> Result<Vec<EngineOutput>, EngineError> {
        self.client_join(name, group)
    }

    fn leave(&mut self, name: &str, group: &str) -> Result<Vec<EngineOutput>, EngineError> {
        self.client_leave(name, group)
    }

    fn multicast(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
        _spanning: bool,
    ) -> Result<Vec<EngineOutput>, EngineError> {
        self.client_multicast_sequenced(name, groups, payload, service, seq)
    }

    fn disconnect(&mut self, name: &str) -> Result<Vec<EngineOutput>, EngineError> {
        self.client_disconnect(name)
    }

    fn flush(&mut self) -> Vec<EngineOutput> {
        GroupEngine::flush(self)
    }

    fn on_delivery(&mut self, _ring: RingIdx, delivery: &Delivery) -> Vec<EngineOutput> {
        GroupEngine::on_delivery(self, delivery)
    }

    fn on_config_change(&mut self, _ring: RingIdx, change: &ConfigChange) -> Vec<EngineOutput> {
        GroupEngine::on_config_change(self, change)
    }

    fn duplicates_dropped(&self) -> u64 {
        GroupEngine::duplicates_dropped(self)
    }
}

/// What the reactor lends its engine's hooks: the ring nodes
/// (`nodes()[k]` is ring `k`), the session mux, and the backlog-aware
/// submission path.
pub struct Io {
    nodes: Vec<NodeHandle>,
    mux: SessionMux,
    /// Submissions a ring's bounded queue refused, replayed in FIFO
    /// order under jittered backoff instead of being dropped.
    retries: VecDeque<(RingIdx, Bytes, Service)>,
    retry_backoff: Backoff,
    next_retry: Option<Instant>,
}

impl Io {
    /// This daemon's node on every ring.
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// The session table and socket.
    pub fn mux(&mut self) -> &mut SessionMux {
        &mut self.mux
    }

    /// Carries out engine outputs: submissions go to their ring (queued
    /// for retry when the ring is backlogged), local events to the mux.
    pub fn dispatch<O: Into<RingOutput>>(&mut self, outputs: Vec<O>) {
        for out in outputs {
            match out.into() {
                RingOutput::Submit {
                    ring,
                    payload,
                    service,
                } => self.submit(ring, payload, service),
                RingOutput::Local { client, event } => self.mux.deliver(&client, event),
            }
        }
    }

    fn submit(&mut self, ring: RingIdx, payload: Bytes, service: Service) {
        // Queue behind any pending retry for the same ring: sender FIFO
        // is what orders a daemon's Ready after its join replays and a
        // large message's fragments after one another, so overtaking is
        // not allowed.
        if self.retries.iter().any(|(r, _, _)| *r == ring) {
            self.retries.push_back((ring, payload, service));
            return;
        }
        match self.nodes[ring.as_usize()].submit(payload.clone(), service) {
            Err(SubmitError::Backlogged) => self.retries.push_back((ring, payload, service)),
            // A stopped ring is dying; its fault event ends the reactor.
            Ok(()) | Err(SubmitError::Stopped) => {}
        }
    }

    /// Replays backpressured submissions once their backoff elapses.
    fn flush_retries(&mut self) {
        if self.retries.is_empty() || self.next_retry.is_some_and(|t| Instant::now() < t) {
            return;
        }
        while let Some((ring, payload, service)) = self.retries.pop_front() {
            if let Err(SubmitError::Backlogged) =
                self.nodes[ring.as_usize()].submit(payload.clone(), service)
            {
                self.retries.push_front((ring, payload, service));
                self.next_retry = Some(Instant::now() + self.retry_backoff.next_delay());
                return;
            }
        }
        self.retry_backoff.reset();
        self.next_retry = None;
    }
}

#[derive(Debug, Default)]
struct SharedStats {
    frontend: Mutex<FrontendStats>,
    duplicates_dropped: AtomicU64,
}

/// A client call or daemon query, run against the engine on the
/// reactor thread.
type Job<E> = Box<dyn FnOnce(&mut E, &mut Io) + Send>;

/// Work for the reactor thread, run in arrival order between turns.
enum Cmd<E: DaemonEngine> {
    Run(Job<E>),
    Shutdown,
    ShutdownGraceful { drain: Duration },
}

/// Runs `f` on the reactor thread and waits for its result; `None` when
/// the reactor is gone.
fn round_trip<E: DaemonEngine, T: Send + 'static>(
    cmd_tx: &Sender<Cmd<E>>,
    f: impl FnOnce(&mut E, &mut Io) -> T + Send + 'static,
) -> Option<T> {
    let (resp_tx, resp_rx) = bounded(1);
    let _ = cmd_tx.send(Cmd::Run(Box::new(move |engine: &mut E, io: &mut Io| {
        let _ = resp_tx.send(f(engine, io));
    })));
    resp_rx.recv().ok()
}

/// Runs one client operation through the engine and dispatches its
/// submissions.
fn apply<E: DaemonEngine>(
    engine: &mut E,
    io: &mut Io,
    name: &str,
    action: GroupAction,
    service: Service,
    seq: u64,
    spanning: bool,
) -> Result<(), E::Error> {
    let outputs = match action {
        GroupAction::Data { groups, payload } => {
            let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
            engine.multicast(name, &refs, payload, service, seq, spanning)
        }
        GroupAction::Join { group } => engine.join(name, &group),
        GroupAction::Leave { group } => engine.leave(name, &group),
        GroupAction::Disconnect => {
            let result = engine.disconnect(name);
            io.mux.close_name(name);
            result
        }
    }?;
    io.dispatch(outputs);
    Ok(())
}

/// A running reactor thread: the handle a daemon wraps. Dropping it
/// stops the reactor immediately.
pub struct Reactor<E: DaemonEngine> {
    cmd_tx: Sender<Cmd<E>>,
    thread: Option<JoinHandle<()>>,
    shared: Arc<SharedStats>,
    session_addr: Option<SocketAddr>,
    /// Taken before the nodes move into the thread: one probe per ring
    /// keeps the transport counters readable from outside.
    probes: Vec<TransportProbe>,
}

impl<E: DaemonEngine> std::fmt::Debug for Reactor<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("session_addr", &self.session_addr)
            .finish_non_exhaustive()
    }
}

impl<E: DaemonEngine> Reactor<E> {
    /// Spawns the reactor thread `{thread}-{pid}` serving `engine` over
    /// `nodes` (`nodes[k]` is ring `k`), with the session socket bound
    /// per `frontend` before this returns.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or the session socket cannot be bound.
    pub fn spawn(
        thread: &str,
        nodes: Vec<NodeHandle>,
        engine: E,
        frontend: FrontendOptions,
    ) -> Reactor<E> {
        let pid = nodes[0].pid();
        let probes: Vec<TransportProbe> = nodes.iter().map(NodeHandle::probe).collect();
        let (cmd_tx, cmd_rx) = unbounded();
        let shared = Arc::new(SharedStats::default());
        let mux = SessionMux::new(frontend).expect("bind session socket");
        let session_addr = mux.local_addr();
        let pump = Pump {
            engine,
            io: Io {
                nodes,
                mux,
                retries: VecDeque::new(),
                retry_backoff: Backoff::new(
                    Duration::from_millis(2),
                    Duration::from_millis(250),
                    u64::from(pid.as_u16()),
                ),
                next_retry: None,
            },
            shared: shared.clone(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("{thread}-{pid}"))
            .spawn(move || pump.run(cmd_rx))
            .expect("spawn daemon thread");
        Reactor {
            cmd_tx,
            thread: Some(thread),
            shared,
            session_addr,
            probes,
        }
    }

    /// The UDP address remote [`crate::frontend::SessionClient`]s dial,
    /// or `None` when the session socket is disabled.
    pub fn session_addr(&self) -> Option<SocketAddr> {
        self.session_addr
    }

    /// A snapshot of the session frontend's counters (sessions open,
    /// submits, per-cause sheds, reactor wakeups/syscalls).
    pub fn frontend_stats(&self) -> FrontendStats {
        *self.shared.frontend.lock().expect("frontend stats lock")
    }

    /// Per-ring probes onto the transport counters and buffer pools
    /// (`probes()[k]` is ring `k`), outliving the reactor.
    pub fn probes(&self) -> &[TransportProbe] {
        &self.probes
    }

    /// Sequenced messages the engine has dropped as duplicates.
    pub fn duplicates_dropped(&self) -> u64 {
        self.shared.duplicates_dropped.load(Ordering::Relaxed)
    }

    /// Connects a local client whose next sequenced multicast is stamped
    /// `resume_from + 1`, with an event queue of `queue` entries
    /// (`None`: unbounded). Fails for invalid or duplicate names, or if
    /// the reactor is no longer running.
    pub fn connect(
        &self,
        name: &str,
        resume_from: u64,
        queue: Option<usize>,
    ) -> Result<Client<E>, E::Error> {
        let (event_tx, event_rx) = match queue {
            Some(cap) => bounded(cap),
            None => unbounded(),
        };
        let client = name.to_string();
        round_trip(&self.cmd_tx, move |engine: &mut E, io: &mut Io| {
            let result = engine.connect(&client);
            if result.is_ok() {
                io.mux.open_adapter(&client, event_tx);
            }
            result
        })
        .unwrap_or_else(|| Err(EngineError::UnknownClient(name.to_string())))?;
        Ok(Client {
            name: name.to_string(),
            cmd_tx: self.cmd_tx.clone(),
            event_rx,
            next_seq: AtomicU64::new(resume_from),
        })
    }

    /// Runs `f` on the reactor thread between turns and returns its
    /// result; `None` when the reactor already stopped.
    pub fn call<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut E, &mut Io) -> T + Send + 'static,
    ) -> Option<T> {
        round_trip(&self.cmd_tx, f)
    }

    /// Stops the reactor immediately: clients receive
    /// [`ClientEvent::Disconnected`] and every node stops without a
    /// departure announcement.
    pub fn shutdown(mut self) {
        self.stop(Cmd::Shutdown);
    }

    /// Flushes pending work, leaves every ring gracefully (bounded by
    /// `drain`), hands clients the deliveries produced meanwhile, then
    /// [`ClientEvent::Disconnected`].
    pub fn shutdown_graceful(mut self, drain: Duration) {
        self.stop(Cmd::ShutdownGraceful { drain });
    }

    fn stop(&mut self, cmd: Cmd<E>) {
        let _ = self.cmd_tx.send(cmd);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl<E: DaemonEngine> Drop for Reactor<E> {
    fn drop(&mut self) {
        self.stop(Cmd::Shutdown);
    }
}

/// A client connected to a local daemon's reactor. Its event stream is
/// the daemon's total order (the merged cross-ring order on a multi-ring
/// daemon), filtered to this client's groups.
pub struct Client<E: DaemonEngine> {
    name: String,
    cmd_tx: Sender<Cmd<E>>,
    event_rx: Receiver<ClientEvent>,
    /// Last session sequence number handed out by
    /// [`Client::multicast_sequenced`].
    next_seq: AtomicU64,
}

impl<E: DaemonEngine> std::fmt::Debug for Client<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("name", &self.name)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<E: DaemonEngine> Client<E> {
    /// This client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream of messages, views, configuration notices, and the
    /// terminal [`ClientEvent::Disconnected`]. The channel closing without
    /// one also means the daemon is gone.
    pub fn events(&self) -> &Receiver<ClientEvent> {
        &self.event_rx
    }

    fn call(
        &self,
        action: GroupAction,
        service: Service,
        seq: u64,
        spanning: bool,
    ) -> Result<(), E::Error> {
        let name = self.name.clone();
        round_trip(&self.cmd_tx, move |engine: &mut E, io: &mut Io| {
            apply(engine, io, &name, action, service, seq, spanning)
        })
        .unwrap_or_else(|| Err(EngineError::UnknownClient(self.name.clone()).into()))
    }

    /// Joins a group (on whichever ring the shard map routes it to).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid group names.
    pub fn join(&self, group: &str) -> Result<(), E::Error> {
        let group = group.to_string();
        self.call(GroupAction::Join { group }, Service::Agreed, 0, false)
    }

    /// Leaves a group.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid group names.
    pub fn leave(&self, group: &str) -> Result<(), E::Error> {
        let group = group.to_string();
        self.call(GroupAction::Leave { group }, Service::Agreed, 0, false)
    }

    /// Multicasts to one or more groups with cross-group total ordering
    /// (unsequenced: a resubmission after a daemon failure could be
    /// delivered twice; use [`Client::multicast_sequenced`] when that
    /// matters). On a multi-ring daemon all targets must shard onto the
    /// same ring.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid names or group counts, and on a
    /// multi-ring daemon for groups that span rings.
    pub fn multicast(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<(), E::Error> {
        self.send_with_seq(groups, payload, service, 0, false)
    }

    /// Multicasts with the session's next sequence number stamped on the
    /// message, returning that number. If this daemon later dies with the
    /// message's fate unknown, reconnect elsewhere and resubmit with the
    /// same number: every engine drops the copy it has already delivered.
    ///
    /// # Errors
    ///
    /// As [`Client::multicast`].
    pub fn multicast_sequenced(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<u64, E::Error> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.send_with_seq(groups, payload, service, seq, false)?;
        Ok(seq)
    }

    fn send_with_seq(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
        spanning: bool,
    ) -> Result<(), E::Error> {
        let groups = groups.iter().map(|g| g.to_string()).collect();
        self.call(
            GroupAction::Data { groups, payload },
            service,
            seq,
            spanning,
        )
    }

    /// Disconnects, leaving every group.
    pub fn disconnect(self) {
        let name = self.name;
        let job: Job<E> = Box::new(move |engine, io| {
            let disconnect = GroupAction::Disconnect;
            let _ = apply(engine, io, &name, disconnect, Service::Agreed, 0, false);
        });
        let _ = self.cmd_tx.send(Cmd::Run(job));
    }
}

impl Client<GroupEngine> {
    /// The last sequence number stamped by
    /// [`Client::multicast_sequenced`] (or the resume watermark if none
    /// yet). Persist this across reconnects.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Re-sends a message under an explicit session sequence number after
    /// a reconnect. Delivered at most once ring-wide: duplicates of an
    /// already-delivered sequence number are suppressed by every engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid names or group counts.
    pub fn resubmit(
        &self,
        seq: u64,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<(), EngineError> {
        self.send_with_seq(groups, payload, service, seq, false)
    }
}

impl<E: SpanningEngine> Client<E> {
    /// Sequenced multicast to groups that may span rings: the send is
    /// split into one fragment per ring (same payload, same sequence),
    /// each covering that ring's subset of the groups; consumers that
    /// need atomicity commit once every involved group is covered.
    /// Returns the stamped sequence.
    ///
    /// # Errors
    ///
    /// As [`Client::multicast`], except cross-ring group sets are
    /// accepted.
    pub fn multicast_spanning(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<u64, E::Error> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.send_with_seq(groups, payload, service, seq, true)?;
        Ok(seq)
    }
}

/// Why the reactor loop ended.
enum Exit {
    /// Immediate shutdown: no ring courtesy.
    Immediate,
    /// Graceful shutdown: drain and announce departure.
    Graceful(Duration),
    /// A ring's transport node is dead (panic, kill, or exit).
    RingDead { ring: RingIdx, reason: String },
}

/// The reactor thread's state.
struct Pump<E: DaemonEngine> {
    engine: E,
    io: Io,
    shared: Arc<SharedStats>,
}

impl<E: DaemonEngine> Pump<E> {
    fn run(mut self, cmd_rx: Receiver<Cmd<E>>) {
        // With a session socket, the reactor parks on its descriptor: a
        // datagram wakes it instantly, channel work is drained each tick.
        // Without one, the channel-driven select blocks until a command
        // or ring event arrives (or the engine's idle tick elapses).
        let mut poller = Poller::new();
        let session_fd = self.io.mux.poll_fd();
        if let Some(fd) = session_fd {
            poller.set_fds(&[fd]);
        }
        let idle_tick = self.engine.idle_tick();
        let mut ingress: Vec<Ingress> = Vec::new();

        let exit = 'pump: loop {
            // Whether the session socket may hold a datagram: a park that
            // timed out on it says no, so the tick skips its recvmmsg.
            let mut session_readable = true;
            if session_fd.is_some() {
                // Skip the park entirely while egress is backed up: drain it.
                let tick = if self.io.mux.has_pending_egress() {
                    Duration::ZERO
                } else {
                    REACTOR_TICK
                };
                session_readable = poller.wait(tick).may_read(0);
            } else {
                let mut sel = Select::new();
                sel.recv(&cmd_rx);
                for node in &self.io.nodes {
                    sel.recv(node.events());
                }
                let _ = sel.ready_timeout(idle_tick);
            }
            self.io.mux.note_wakeup();

            loop {
                match cmd_rx.try_recv() {
                    Ok(cmd) => {
                        if let Some(exit) = self.handle_cmd(cmd) {
                            break 'pump exit;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    // Every daemon and client handle dropped without Shutdown.
                    Err(TryRecvError::Disconnected) => break 'pump Exit::Immediate,
                }
            }
            // Session ingest before the engine flush: submits that just
            // arrived ride the same flush as this tick's command traffic.
            if session_readable {
                self.io.mux.ingest(&mut ingress);
            }
            if !ingress.is_empty() {
                self.handle_ingress(&mut ingress);
            }
            // Close any partially packed payloads so buffered client
            // messages are not held hostage waiting for more traffic.
            self.io.dispatch(self.engine.flush());

            if let Some(exit) = self.drain_rings() {
                break 'pump exit;
            }
            self.io.flush_retries();
            self.engine.turn(&mut self.io);
            self.io.mux.flush_egress();
            self.export_stats();
        };
        self.finish(exit);
    }

    /// Feeds every ring's pending events to the engine; `Some` when a
    /// ring's node died.
    fn drain_rings(&mut self) -> Option<Exit> {
        for k in 0..self.io.nodes.len() {
            let ring = RingIdx::new(k as u16);
            loop {
                let outputs = match self.io.nodes[k].events().try_recv() {
                    Ok(AppEvent::Delivered(d)) => self.engine.on_delivery(ring, &d),
                    Ok(AppEvent::Config(c)) => self.engine.on_config_change(ring, &c),
                    Ok(AppEvent::Fault { reason }) => return Some(Exit::RingDead { ring, reason }),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        let reason = "node thread exited".to_string();
                        return Some(Exit::RingDead { ring, reason });
                    }
                };
                self.io.dispatch(outputs);
            }
        }
        None
    }

    /// Routes the frames surfaced by one ingest burst of the session
    /// socket.
    fn handle_ingress(&mut self, ingress: &mut Vec<Ingress>) {
        let Pump { engine, io, .. } = self;
        for ing in ingress.drain(..) {
            match ing {
                Ingress::Hello {
                    name,
                    resume_seq,
                    nonce,
                    addr,
                } => {
                    // The HELLO of a daemon still catching up is dropped
                    // *silently*: an ERROR reply would make
                    // `SessionClient::connect` fail immediately, while a
                    // timeout keeps it in its retry loop.
                    if !engine.serving() {
                        continue;
                    }
                    // The mux decides new-vs-resume, the engine registers
                    // genuinely new clients.
                    io.mux
                        .handle_hello(name, resume_seq, nonce, addr, |n| engine.connect(n));
                }
                Ingress::Submit {
                    name,
                    seq,
                    service,
                    action,
                } => {
                    // The wire protocol has no spanning flag, so a remote
                    // cross-ring multicast takes the split-per-ring path
                    // (remote KV clients reach cross-shard transactions
                    // this way). Nor has it a per-submit reply: a
                    // rejected remote submit is counted, not answered.
                    if apply(engine, io, &name, action, service, seq, true).is_err() {
                        io.mux.note_rejected();
                    }
                }
                Ingress::Bye { name } => {
                    if let Ok(outputs) = engine.disconnect(&name) {
                        io.dispatch(outputs);
                    }
                }
                frame => engine.on_peer_frame(frame, io),
            }
        }
    }

    /// Handles one command; `Some` ends the reactor loop.
    fn handle_cmd(&mut self, cmd: Cmd<E>) -> Option<Exit> {
        match cmd {
            Cmd::Run(f) => f(&mut self.engine, &mut self.io),
            Cmd::Shutdown => return Some(Exit::Immediate),
            Cmd::ShutdownGraceful { drain } => {
                // Only flush partially packed payloads here. Clients are
                // deliberately NOT disconnected through the engine: their
                // routing state must survive the drain so deliveries that
                // complete during it still reach them. Survivors prune
                // this daemon's clients via the departure's configuration
                // change, exactly as they would after a crash — just
                // sooner, thanks to the leave announcement.
                self.io.dispatch(self.engine.flush());
                return Some(Exit::Graceful(drain));
            }
        }
        None
    }

    /// Publishes the engine and frontend counters.
    fn export_stats(&mut self) {
        self.shared
            .duplicates_dropped
            .store(self.engine.duplicates_dropped(), Ordering::Relaxed);
        *self.shared.frontend.lock().expect("frontend stats lock") = self.io.mux.stats();
    }

    fn finish(mut self, exit: Exit) {
        let mut nodes = std::mem::take(&mut self.io.nodes);
        let reason = match exit {
            Exit::Immediate => "daemon shutdown".to_string(),
            Exit::RingDead { ring, reason } => self.engine.ring_died(ring, reason),
            Exit::Graceful(drain) => {
                // Each node flushes pending work, announces its departure,
                // and exits; deliveries produced during the drain still
                // reach the clients before their terminal event.
                for (k, node) in nodes.drain(..).enumerate() {
                    let ring = RingIdx::new(k as u16);
                    let rx = node.leave(drain);
                    let events = rx.try_iter();
                    for ev in events.take_while(|ev| !matches!(ev, AppEvent::Fault { .. })) {
                        if let AppEvent::Delivered(d) = ev {
                            for out in self.engine.on_delivery(ring, &d) {
                                if let RingOutput::Local { client, event } = out.into() {
                                    self.io.mux.deliver(&client, event);
                                }
                            }
                        }
                    }
                }
                "daemon shutdown".to_string()
            }
        };
        self.io.mux.flush_egress();
        self.io.mux.broadcast_disconnected(&reason);
        // Stops every node still running; a dead node's handle just
        // reaps its thread.
        drop(nodes);
        self.export_stats();
    }
}

/// A running group daemon: the ordering/membership stack plus the group
/// engine, serving local clients.
#[derive(Debug)]
pub struct GroupDaemon {
    reactor: Reactor<GroupEngine>,
    client_queue: Option<usize>,
}

/// A client connected to a local [`GroupDaemon`].
pub type GroupClient = Client<GroupEngine>;

impl GroupDaemon {
    /// Starts the group layer on top of a running transport node with
    /// default options.
    pub fn start(node: NodeHandle) -> GroupDaemon {
        GroupDaemon::start_with(node, DaemonOptions::default())
    }

    /// Starts the group layer with full runtime options.
    pub fn start_with(node: NodeHandle, options: DaemonOptions) -> GroupDaemon {
        let engine = GroupEngine::with_options(node.pid(), options.engine);
        GroupDaemon {
            reactor: Reactor::spawn("group-daemon", vec![node], engine, options.frontend),
            client_queue: options.client_queue,
        }
    }

    /// The UDP address remote [`crate::frontend::SessionClient`]s dial,
    /// or `None` when the session socket is disabled.
    pub fn session_addr(&self) -> Option<SocketAddr> {
        self.reactor.session_addr()
    }

    /// A snapshot of the session frontend's counters (sessions open,
    /// submits, per-cause sheds, reactor wakeups/syscalls).
    pub fn frontend_stats(&self) -> FrontendStats {
        self.reactor.frontend_stats()
    }

    /// Connects a new local client with no session history (sequenced
    /// sends start at 1).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid or duplicate names.
    pub fn connect(&self, name: &str) -> Result<GroupClient, EngineError> {
        self.connect_session(name, 0)
    }

    /// Connects a client resuming an earlier session: its next sequenced
    /// multicast is stamped `resume_from + 1`. A client reconnecting after
    /// its daemon died passes the last sequence number it *knows* was
    /// accepted, then re-sends everything after it with
    /// [`GroupClient::resubmit`]; engines drop whatever actually made it
    /// through the first time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid or duplicate names, or if the
    /// daemon is no longer running.
    pub fn connect_session(
        &self,
        name: &str,
        resume_from: u64,
    ) -> Result<GroupClient, EngineError> {
        self.reactor.connect(name, resume_from, self.client_queue)
    }

    /// Current runtime counters.
    pub fn stats(&self) -> DaemonStats {
        let fs = self.reactor.frontend_stats();
        DaemonStats {
            events_shed: fs.events_shed(),
            duplicates_dropped: self.reactor.duplicates_dropped(),
        }
    }

    /// A snapshot of the underlying transport node's counters (datagrams,
    /// syscalls, pool hits — the hot-path efficiency numbers), readable
    /// even though the node handle lives inside the reactor thread.
    pub fn transport_stats(&self) -> TransportStats {
        self.reactor.probes()[0].stats()
    }

    /// A clonable probe onto the node's transport counters and buffer
    /// pools, outliving this daemon's shutdown (useful for leak checks).
    pub fn transport_probe(&self) -> TransportProbe {
        self.reactor.probes()[0].clone()
    }

    /// Stops the daemon thread immediately. Connected clients receive
    /// [`ClientEvent::Disconnected`]; no departure courtesy is extended to
    /// the ring (peers detect the loss via token-loss timeout).
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }

    /// Gracefully drains and leaves: pending submissions and deliveries
    /// are flushed (bounded by `drain`), then the node announces its
    /// departure so survivors reform after one gather round instead of
    /// waiting out the token-loss timeout; the departure's configuration
    /// change prunes this daemon's clients from group views everywhere.
    /// Local clients receive their final deliveries, then
    /// [`ClientEvent::Disconnected`].
    pub fn shutdown_graceful(self, drain: Duration) {
        self.reactor.shutdown_graceful(drain);
    }
}
