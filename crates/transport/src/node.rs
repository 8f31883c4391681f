//! The single-threaded UDP daemon runtime.
//!
//! One OS thread runs the whole stack (ordering + membership), exactly like
//! the paper's single-threaded daemon implementations: two non-blocking UDP
//! sockets (token and data), read in the protocol's priority order, plus a
//! command channel from local clients.
//!
//! The loop is built to keep running — or, when it cannot, to fail loudly:
//! a panic anywhere in the protocol stack is caught at the thread boundary,
//! counted in [`TransportStats::thread_panics`], and surfaced to the
//! application as a terminal [`AppEvent::Fault`]; a graceful
//! [`NodeHandle::leave`] drains pending traffic and announces the departure
//! so survivors reform without waiting out the token-loss timeout.
//!
//! An idle ring costs next to nothing: the ring leader holds a token that
//! has come back around unchanged for up to `IDLE_HOLD` instead of
//! passing it straight on, and a parked loop wakes on its sockets, its
//! doorbells or its next deadline, never on a polling quantum.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use accelring_core::{
    wire, BufLease, BufferPool, Delivery, HotPathStats, ParticipantId, ProtocolConfig, RingId, Seq,
    Service, ShmPathStats, Token,
};
use accelring_membership::{
    decode_control, encode_control, ConfigChange, Input, MembershipConfig, MembershipDaemon,
    Output, StateKind,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};

use crate::addr::{AddressBook, NodeAddr};
use crate::doorbell::Doorbell;
use crate::fault::{FaultPlane, InterposedSocket, SocketClass};
use crate::poller::Poller;
use crate::shm::{ShmCounters, ShmSocket};
use crate::socket::{DatagramSocket, RecvSlot, SendOutcome};
use crate::Transport;

/// Largest datagram the transport accepts (64 KiB UDP limit).
const MAX_DATAGRAM: usize = 65_536;
/// How long an idle loop dozes when it cannot park until its next event:
/// under a fault plane (the interposer releases delayed datagrams only when the loop touches the
/// socket), or when a socket or the doorbell has no descriptor to park
/// on. Every other idle wait parks until a datagram, a doorbell, a
/// protocol timer or the idle-hold deadline.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// How long the ring leader holds a token that came back around idle
/// before passing it on (see [`token_is_idle`]). Clamped per node to an
/// eighth of the token-retransmit timeout, so no configuration ever sees
/// a held token as lost.
const IDLE_HOLD: Duration = Duration::from_micros(500);
/// Upper bound of an event-driven park. Membership always has a timer
/// armed, so this only caps a park if it somehow had none.
const PARK_CAP: Duration = Duration::from_secs(1);
/// Capacity of the client command channel. A full channel surfaces as
/// [`SubmitError::Backlogged`] instead of unbounded memory growth when the
/// ring cannot keep up with local submitters.
const COMMAND_QUEUE_CAPACITY: usize = 4096;
/// Datagrams drained from one socket per poll iteration. Token priority is re-evaluated between batches, so a burst of
/// data traffic can defer the token by at most this many datagrams.
const RECV_BATCH: usize = 32;
/// Idle buffers each pool parks for reuse. Sized so the working set —
/// the batched receive leases plus every payload slice the protocol
/// retains until delivery (each pins its whole pooled buffer) — cycles
/// through the free list instead of falling through to the allocator.
const POOL_MAX_FREE: usize = 512;
/// Requested socket buffer depth. Gathered sends deliver a whole
/// window's fanout in one burst; see
/// [`deepen_socket_buffers`] for why the kernel default is too shallow.
const SOCKET_BUFFER_BYTES: i32 = 512 << 10;

/// Best-effort deepening of both sockets' kernel buffers (Linux only; a
/// no-op elsewhere). See `mmsg::set_buffer_sizes` for the rationale.
fn deepen_socket_buffers(data: &UdpSocket, token: &UdpSocket) {
    #[cfg(target_os = "linux")]
    {
        crate::mmsg::set_buffer_sizes(data, SOCKET_BUFFER_BYTES);
        crate::mmsg::set_buffer_sizes(token, SOCKET_BUFFER_BYTES);
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (data, token);
    }
}

/// Counters exported by a running node; every anomaly the event loop
/// swallows (it must keep running) is visible here instead of vanishing.
#[derive(Debug, Default)]
struct StatsInner {
    datagrams_rx: AtomicU64,
    datagrams_tx: AtomicU64,
    syscalls_rx: AtomicU64,
    syscalls_tx: AtomicU64,
    decode_failures: AtomicU64,
    recv_errors: AtomicU64,
    send_errors: AtomicU64,
    submissions: AtomicU64,
    submissions_shed: AtomicU64,
    thread_panics: AtomicU64,
}

/// A point-in-time copy of a node's transport counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Datagrams received across both sockets.
    pub datagrams_rx: u64,
    /// Datagrams that failed to parse (truncated, unknown kind, garbage).
    pub decode_failures: u64,
    /// `recv` failures other than `WouldBlock`.
    pub recv_errors: u64,
    /// Send failures, counted per failed destination (a partially failed
    /// fanout counts each refusing peer, not the flush).
    pub send_errors: u64,
    /// Client submissions accepted into the daemon.
    pub submissions: u64,
    /// Client submissions the daemon's own pending queue refused.
    pub submissions_shed: u64,
    /// Protocol-thread panics caught at the thread boundary (each one is
    /// terminal for the node and accompanied by an [`AppEvent::Fault`]).
    pub thread_panics: u64,
    /// Hot-datapath counters: syscall batching and pool behaviour.
    pub hot: HotPathStats,
    /// Shared-memory datapath counters (all zero on a UDP node).
    pub shm: ShmPathStats,
}

impl StatsInner {
    fn snapshot(&self) -> TransportStats {
        let datagrams_rx = self.datagrams_rx.load(Ordering::Relaxed);
        TransportStats {
            datagrams_rx,
            decode_failures: self.decode_failures.load(Ordering::Relaxed),
            recv_errors: self.recv_errors.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
            submissions: self.submissions.load(Ordering::Relaxed),
            submissions_shed: self.submissions_shed.load(Ordering::Relaxed),
            thread_panics: self.thread_panics.load(Ordering::Relaxed),
            hot: HotPathStats {
                datagrams_rx,
                datagrams_tx: self.datagrams_tx.load(Ordering::Relaxed),
                syscalls_rx: self.syscalls_rx.load(Ordering::Relaxed),
                syscalls_tx: self.syscalls_tx.load(Ordering::Relaxed),
                pool_hits: 0,   // filled from the pools by the callers
                pool_misses: 0, // that hold the pool handles
            },
            shm: ShmPathStats::default(), // filled from the ShmCounters
        }
    }
}

/// Membership observability published by the event loop after every step
/// (relaxed atomics: cheap, point-in-time, possibly one step stale).
#[derive(Debug, Default)]
struct RingInfoInner {
    state: AtomicU8,
    rings_formed: AtomicU64,
    tokens_retransmitted: AtomicU64,
    ring_counter: AtomicU64,
}

const STATE_OPERATIONAL: u8 = 0;
const STATE_GATHER: u8 = 1;
const STATE_COMMIT: u8 = 2;
const STATE_RECOVER: u8 = 3;

fn state_to_u8(s: StateKind) -> u8 {
    match s {
        StateKind::Operational => STATE_OPERATIONAL,
        StateKind::Gather => STATE_GATHER,
        StateKind::Commit => STATE_COMMIT,
        StateKind::Recover => STATE_RECOVER,
    }
}

fn state_from_u8(v: u8) -> StateKind {
    match v {
        STATE_OPERATIONAL => StateKind::Operational,
        STATE_GATHER => StateKind::Gather,
        STATE_COMMIT => StateKind::Commit,
        _ => StateKind::Recover,
    }
}

/// Why a [`NodeHandle::submit`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The command queue is full; retry after draining deliveries.
    Backlogged,
    /// The daemon thread has stopped.
    Stopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backlogged => write!(f, "command queue full (backpressure)"),
            SubmitError::Stopped => write!(f, "daemon thread has stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// An event surfaced to the application.
#[derive(Debug, Clone)]
pub enum AppEvent {
    /// A message was delivered in total order.
    Delivered(Delivery),
    /// An EVS configuration change.
    Config(ConfigChange),
    /// The protocol thread died (panic caught at the thread boundary).
    /// Terminal: no further events follow and the node must be restarted.
    Fault {
        /// The panic payload, as text.
        reason: String,
    },
}

#[derive(Debug)]
enum Command {
    Submit(Bytes, Service),
    #[doc(hidden)]
    InjectPanic,
}

/// Errors from starting a transport node.
#[derive(Debug)]
pub enum TransportError {
    /// Binding or configuring a socket failed.
    Io(std::io::Error),
    /// The local participant id is missing from the address book.
    NotInAddressBook(ParticipantId),
    /// Binding a specific participant's sockets failed even after retries;
    /// identifies *which* ring member could not come up.
    Bind {
        /// The participant whose sockets failed to bind.
        pid: ParticipantId,
        /// How many attempts were made.
        attempts: usize,
        /// The last bind error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "socket error: {e}"),
            TransportError::NotInAddressBook(p) => {
                write!(f, "participant {p} is not in the address book")
            }
            TransportError::Bind {
                pid,
                attempts,
                source,
            } => write!(
                f,
                "binding sockets for participant {pid} failed after {attempts} attempts: {source}"
            ),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::NotInAddressBook(_) => None,
            TransportError::Bind { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Start-time options beyond the protocol and membership configuration.
#[derive(Debug, Clone, Default)]
pub struct NodeOptions {
    /// Route every send through this fault plane (chaos testing).
    pub plane: Option<Arc<FaultPlane>>,
    /// Stable-storage ring counter from a previous incarnation, so a
    /// restarted daemon never reuses a ring id (see
    /// [`MembershipDaemon::max_ring_counter`]). Read it from the dead
    /// handle via [`NodeHandle::ring_counter`].
    pub restore_ring_counter: u64,
}

/// The bound socket pair of one daemon, on either backend. The token and
/// data sockets always share a backend: a node is entirely on UDP or
/// entirely on shm (peers on the *other* end of each link may differ —
/// addressing, not the socket type, routes a datagram).
// One BoundNode exists per daemon for the instant between bind and
// start, so the shm variant's inline ring handles are not worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum BoundSockets {
    Udp {
        data: UdpSocket,
        token: UdpSocket,
    },
    Shm {
        data: ShmSocket,
        token: ShmSocket,
        counters: Arc<ShmCounters>,
    },
}

/// A daemon with bound sockets whose addresses can be shared with peers
/// before the event loop starts (two-phase startup so tests can allocate
/// ephemeral ports).
#[derive(Debug)]
pub struct BoundNode {
    pid: ParticipantId,
    sockets: BoundSockets,
}

impl BoundNode {
    /// Binds the two sockets on `ip` with ephemeral ports, on the backend
    /// selected by `ACCELRING_TRANSPORT` (see [`Transport::from_env`]).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn bind(pid: ParticipantId, ip: &str) -> Result<BoundNode, TransportError> {
        Self::bind_on(Transport::from_env(), pid, ip)
    }

    /// Binds the two sockets with ephemeral addresses on an explicit
    /// backend. The shm backend synthesizes its own addresses and ignores
    /// `ip` (shm endpoints live in a process-wide namespace, not an
    /// interface).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn bind_on(
        transport: Transport,
        pid: ParticipantId,
        ip: &str,
    ) -> Result<BoundNode, TransportError> {
        let sockets = match transport {
            Transport::Udp => BoundSockets::Udp {
                data: UdpSocket::bind((ip, 0))?,
                token: UdpSocket::bind((ip, 0))?,
            },
            Transport::Shm => {
                let counters = ShmCounters::new();
                BoundSockets::Shm {
                    data: ShmSocket::bind_ephemeral(Arc::clone(&counters))?,
                    token: ShmSocket::bind_ephemeral(Arc::clone(&counters))?,
                    counters,
                }
            }
        };
        Ok(BoundNode { pid, sockets })
    }

    /// Binds the two sockets to explicit addresses (production daemons use
    /// fixed ports published in the address book), on the backend selected
    /// by `ACCELRING_TRANSPORT`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if either bind fails.
    pub fn bind_addrs(
        pid: ParticipantId,
        data: SocketAddr,
        token: SocketAddr,
    ) -> Result<BoundNode, TransportError> {
        Self::bind_addrs_on(Transport::from_env(), pid, data, token)
    }

    /// [`BoundNode::bind_addrs`] on an explicit backend — the restart
    /// path: a daemon rebinding its published addresses after a crash.
    /// On shm the old incarnation's socket must be gone first (the name
    /// frees when it drops), surfacing the same transient `AddrInUse` the
    /// kernel produces, which the callers' retry loops already handle.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if either bind fails.
    pub fn bind_addrs_on(
        transport: Transport,
        pid: ParticipantId,
        data: SocketAddr,
        token: SocketAddr,
    ) -> Result<BoundNode, TransportError> {
        let sockets = match transport {
            Transport::Udp => BoundSockets::Udp {
                data: UdpSocket::bind(data)?,
                token: UdpSocket::bind(token)?,
            },
            Transport::Shm => {
                let counters = ShmCounters::new();
                BoundSockets::Shm {
                    data: ShmSocket::bind(data, Arc::clone(&counters))?,
                    token: ShmSocket::bind(token, Arc::clone(&counters))?,
                    counters,
                }
            }
        };
        Ok(BoundNode { pid, sockets })
    }

    /// This node's address-book entry.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if the local addresses cannot be read.
    pub fn addr(&self) -> Result<NodeAddr, TransportError> {
        let (data, token) = match &self.sockets {
            BoundSockets::Udp { data, token } => (data.local_addr()?, token.local_addr()?),
            BoundSockets::Shm { data, token, .. } => (data.local_addr(), token.local_addr()),
        };
        Ok(NodeAddr {
            pid: self.pid,
            data,
            token,
        })
    }

    /// Starts the event loop on its own thread with default options.
    ///
    /// # Errors
    ///
    /// Returns an error if the sockets cannot be made non-blocking or the
    /// node is missing from `book`.
    pub fn start(
        self,
        book: AddressBook,
        protocol: ProtocolConfig,
        membership: MembershipConfig,
    ) -> Result<NodeHandle, TransportError> {
        self.start_with(book, protocol, membership, NodeOptions::default())
    }

    /// Starts the event loop with explicit [`NodeOptions`] (fault plane,
    /// restored ring counter).
    ///
    /// # Errors
    ///
    /// Returns an error if the sockets cannot be made non-blocking or the
    /// node is missing from `book`.
    pub fn start_with(
        self,
        book: AddressBook,
        protocol: ProtocolConfig,
        membership: MembershipConfig,
        options: NodeOptions,
    ) -> Result<NodeHandle, TransportError> {
        if book.get(self.pid).is_none() {
            return Err(TransportError::NotInAddressBook(self.pid));
        }
        let pid = self.pid;
        // Boxes either backend's socket pair, fault-interposed or bare —
        // the interposer is generic over the socket, so per-link fates
        // apply at slot-publish time on shm exactly as they apply at
        // send time on UDP.
        fn boxed<S: DatagramSocket + 'static>(
            data: S,
            token: S,
            pid: ParticipantId,
            plane: &Option<Arc<FaultPlane>>,
        ) -> (Box<dyn DatagramSocket>, Box<dyn DatagramSocket>) {
            match plane {
                Some(plane) => (
                    Box::new(InterposedSocket::new(
                        data,
                        pid,
                        SocketClass::Data,
                        Arc::clone(plane),
                    )),
                    Box::new(InterposedSocket::new(
                        token,
                        pid,
                        SocketClass::Token,
                        Arc::clone(plane),
                    )),
                ),
                None => (Box::new(data), Box::new(token)),
            }
        }
        let mut shm_counters = None;
        let (data_socket, token_socket) = match self.sockets {
            BoundSockets::Udp { data, token } => {
                // Gathered bursts need kernel buffers deep enough to
                // absorb a whole fanout at once.
                deepen_socket_buffers(&data, &token);
                data.set_nonblocking(true)?;
                token.set_nonblocking(true)?;
                boxed(data, token, pid, &options.plane)
            }
            BoundSockets::Shm {
                data,
                token,
                counters,
            } => {
                shm_counters = Some(counters);
                boxed(data, token, pid, &options.plane)
            }
        };
        let (cmd_tx, cmd_rx) = bounded(COMMAND_QUEUE_CAPACITY);
        let (event_tx, event_rx) = unbounded();
        let wake = Arc::new(Wakeup {
            control: Doorbell::new()?,
            submit: Doorbell::new()?,
        });
        let hold = IDLE_HOLD.min(Duration::from_nanos(
            membership.token_retransmit_timeout / 8,
        ));
        let interposed = options.plane.is_some();
        let stop = Arc::new(AtomicBool::new(false));
        let leave = Arc::new(AtomicBool::new(false));
        let drain_ns = Arc::new(AtomicU64::new(0));
        let stats = Arc::new(StatsInner::default());
        let ring_info = Arc::new(RingInfoInner::default());
        let recv_pool = BufferPool::new(MAX_DATAGRAM, POOL_MAX_FREE);
        let send_pool = BufferPool::new(MAX_DATAGRAM, POOL_MAX_FREE);
        let loop_wake = Arc::clone(&wake);
        let thread_ctx = (
            Arc::clone(&stop),
            Arc::clone(&leave),
            Arc::clone(&drain_ns),
            Arc::clone(&stats),
            Arc::clone(&ring_info),
            event_tx.clone(),
            recv_pool.clone(),
            send_pool.clone(),
        );
        let thread = std::thread::Builder::new()
            .name(format!("accelring-{pid}"))
            .spawn(move || {
                let (stop, leave, drain_ns, stats, ring_info, fault_tx, recv_pool, send_pool) =
                    thread_ctx;
                let mut daemon = MembershipDaemon::new(pid, protocol, membership);
                daemon.restore_ring_counter(options.restore_ring_counter);
                let mut poller = Poller::new();
                let mut park_on_events = false;
                if let (Some(data), Some(token)) = (data_socket.poll_fd(), token_socket.poll_fd()) {
                    match (loop_wake.control.fd(), loop_wake.submit.fd()) {
                        (Some(control), Some(submit)) => {
                            poller.set_fds(&[data, token, control, submit]);
                            park_on_events = !interposed;
                        }
                        _ => poller.set_fds(&[data, token]),
                    }
                }
                let mut event_loop = EventLoop {
                    pid,
                    data_socket,
                    token_socket,
                    fanout: book.fanout_data(pid),
                    book,
                    daemon,
                    cmd_rx,
                    pending_submit: None,
                    event_tx,
                    wake: loop_wake,
                    hold,
                    held: None,
                    last_forwarded: None,
                    park_on_events,
                    stop,
                    leave,
                    drain_ns,
                    stats: Arc::clone(&stats),
                    ring_info,
                    start: Instant::now(),
                    recv_pool,
                    send_pool,
                    recv_leases: Vec::new(),
                    data_batch: Vec::new(),
                    token_batch: Vec::new(),
                    poller,
                };
                // The loop must never take the whole process down: a panic
                // in the protocol stack is caught here, counted, and
                // reported as a terminal fault event.
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| event_loop.run()));
                if let Err(payload) = result {
                    stats.thread_panics.fetch_add(1, Ordering::Relaxed);
                    let reason = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let _ = fault_tx.send(AppEvent::Fault { reason });
                }
            })
            .expect("spawn daemon thread");
        Ok(NodeHandle {
            pid,
            cmd_tx,
            event_rx,
            wake,
            stop,
            leave,
            drain_ns,
            stats,
            ring_info,
            recv_pool,
            send_pool,
            shm_counters,
            thread: Some(thread),
        })
    }
}

/// A clonable, thread-safe window onto a node's transport counters and
/// buffer pools, usable after the [`NodeHandle`] itself has been moved
/// into a daemon's reactor thread (both daemons hand these out).
#[derive(Debug, Clone)]
pub struct TransportProbe {
    stats: Arc<StatsInner>,
    recv_pool: BufferPool,
    send_pool: BufferPool,
    shm_counters: Option<Arc<ShmCounters>>,
}

impl TransportProbe {
    /// A snapshot of the node's transport counters, pool counters
    /// included.
    pub fn stats(&self) -> TransportStats {
        let mut s = self.stats.snapshot();
        let (recv, send) = (self.recv_pool.stats(), self.send_pool.stats());
        s.hot.pool_hits = recv.hits + send.hits;
        s.hot.pool_misses = recv.misses + send.misses;
        if let Some(shm) = &self.shm_counters {
            s.shm = shm.snapshot();
        }
        s
    }

    /// Pooled buffers still leased out across both pools. After the node
    /// has shut down and every delivery has been dropped, a nonzero value
    /// is a leak.
    pub fn pool_outstanding(&self) -> u64 {
        self.recv_pool.outstanding() + self.send_pool.outstanding()
    }
}

/// A clonable kill handle for a node, obtainable before the [`NodeHandle`]
/// is handed off (e.g. to a group daemon). Killing stops the event loop
/// abruptly — no drain, no departure announcement — which is exactly what
/// crash tests want.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    stop: Arc<AtomicBool>,
    wake: Arc<Wakeup>,
}

impl KillSwitch {
    /// Asks the event loop to exit at its next iteration.
    pub fn kill(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.control.notify();
    }
}

/// A node's two doorbells, shared by the event loop and its handles.
///
/// `control` is armed on every park and rung by stop, leave, kill and
/// injected commands. `submit` is armed only while the loop parks holding
/// an idle token: that is the one time a submission changes what the loop
/// does before its next datagram, since everywhere else the message waits
/// for the token anyway. So on a busy ring a submit pays no syscall.
#[derive(Debug)]
struct Wakeup {
    control: Doorbell,
    submit: Doorbell,
}

/// Handle to a running daemon thread.
#[derive(Debug)]
pub struct NodeHandle {
    pid: ParticipantId,
    cmd_tx: Sender<Command>,
    event_rx: Receiver<AppEvent>,
    wake: Arc<Wakeup>,
    stop: Arc<AtomicBool>,
    leave: Arc<AtomicBool>,
    drain_ns: Arc<AtomicU64>,
    stats: Arc<StatsInner>,
    ring_info: Arc<RingInfoInner>,
    recv_pool: BufferPool,
    send_pool: BufferPool,
    shm_counters: Option<Arc<ShmCounters>>,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// The daemon's participant id.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// A clonable counters/pools probe that outlives moves of this handle.
    pub fn probe(&self) -> TransportProbe {
        TransportProbe {
            stats: Arc::clone(&self.stats),
            recv_pool: self.recv_pool.clone(),
            send_pool: self.send_pool.clone(),
            shm_counters: self.shm_counters.clone(),
        }
    }

    /// Submits a message for totally ordered multicast. A ring leader
    /// parked on an idle token is woken and passes the token on with the
    /// message aboard; any other node picks the message up when the token
    /// next reaches it.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Backlogged`] when the bounded command queue
    /// is full — the caller owns the retry/shed decision — and
    /// [`SubmitError::Stopped`] if the daemon thread has exited.
    pub fn submit(&self, payload: Bytes, service: Service) -> Result<(), SubmitError> {
        match self.cmd_tx.try_send(Command::Submit(payload, service)) {
            Ok(()) => {
                self.wake.submit.notify();
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(SubmitError::Backlogged),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Stopped),
        }
    }

    /// A snapshot of the node's transport counters, pool counters
    /// included.
    pub fn stats(&self) -> TransportStats {
        self.probe().stats()
    }

    /// The membership state the event loop last published.
    pub fn membership_state(&self) -> StateKind {
        state_from_u8(self.ring_info.state.load(Ordering::Relaxed))
    }

    /// Regular configurations installed so far (membership counter).
    pub fn rings_formed(&self) -> u64 {
        self.ring_info.rings_formed.load(Ordering::Relaxed)
    }

    /// Tokens resent by the retransmit timer (membership counter).
    pub fn tokens_retransmitted(&self) -> u64 {
        self.ring_info.tokens_retransmitted.load(Ordering::Relaxed)
    }

    /// The highest ring counter this node has used or observed — Totem's
    /// stable-storage value. Pass it to a restarted incarnation via
    /// [`NodeOptions::restore_ring_counter`]; valid even after the thread
    /// has exited (it keeps the last published value).
    pub fn ring_counter(&self) -> u64 {
        self.ring_info.ring_counter.load(Ordering::Relaxed)
    }

    /// The stream of deliveries and configuration changes.
    pub fn events(&self) -> &Receiver<AppEvent> {
        &self.event_rx
    }

    /// A clonable kill handle usable after this `NodeHandle` was moved
    /// elsewhere (abrupt stop: no drain, no departure announcement).
    pub fn killswitch(&self) -> KillSwitch {
        KillSwitch {
            stop: Arc::clone(&self.stop),
            wake: Arc::clone(&self.wake),
        }
    }

    /// Whether the event-loop thread is still running.
    pub fn is_alive(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Forces a panic inside the event loop (fault-injection hook for
    /// tests of the panic containment path).
    #[doc(hidden)]
    pub fn inject_panic(&self) {
        let _ = self.cmd_tx.send(Command::InjectPanic);
        self.wake.control.notify();
    }

    /// Asks the event loop to stop and waits for the thread to exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.control.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Leaves the ring gracefully: stops accepting new submissions, keeps
    /// the protocol running until pending submissions and buffered
    /// deliveries drain (bounded by `drain`), then broadcasts a departure
    /// announcement so survivors reform after one gather round instead of
    /// waiting out the token-loss timeout, and exits.
    ///
    /// Returns the event receiver so the caller can collect deliveries
    /// that were produced during the drain.
    pub fn leave(mut self, drain: Duration) -> Receiver<AppEvent> {
        self.drain_ns
            .store(drain.as_nanos() as u64, Ordering::Relaxed);
        self.leave.store(true, Ordering::Relaxed);
        self.wake.control.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.event_rx.clone()
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.control.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Everything the daemon thread owns; `run` is the thread body.
struct EventLoop {
    pid: ParticipantId,
    data_socket: Box<dyn DatagramSocket>,
    token_socket: Box<dyn DatagramSocket>,
    book: AddressBook,
    fanout: Vec<SocketAddr>,
    daemon: MembershipDaemon,
    cmd_rx: Receiver<Command>,
    /// A submission the daemon refused (send queue full), held here and
    /// retried before the command queue is read again. While it waits,
    /// the queue backs up and clients see [`SubmitError::Backlogged`] —
    /// backpressure instead of a silent shed.
    pending_submit: Option<(Bytes, Service)>,
    event_tx: Sender<AppEvent>,
    wake: Arc<Wakeup>,
    /// How long this node, as ring leader, holds an idle token.
    hold: Duration,
    /// The idle token the leader is holding, with its release deadline
    /// (ns on the loop clock).
    held: Option<(Token, u64)>,
    /// `(ring, seq, aru)` of the last token this node passed on: a token
    /// that comes back with the same values went a whole rotation
    /// without anyone ordering anything.
    last_forwarded: Option<(RingId, Seq, Seq)>,
    /// Whether an idle wait may park until the next event. False under a
    /// fault plane and without descriptors; those waits doze in
    /// [`IDLE_SLEEP`] quanta.
    park_on_events: bool,
    stop: Arc<AtomicBool>,
    leave: Arc<AtomicBool>,
    drain_ns: Arc<AtomicU64>,
    stats: Arc<StatsInner>,
    ring_info: Arc<RingInfoInner>,
    start: Instant,
    recv_pool: BufferPool,
    send_pool: BufferPool,
    /// Pre-acquired receive leases, topped up to [`RECV_BATCH`] before
    /// every batched poll so an idle poll costs zero pool traffic.
    recv_leases: Vec<BufLease>,
    /// Reused scratch for the batched flush (capacity persists).
    data_batch: Vec<(Bytes, SocketAddr)>,
    token_batch: Vec<(Bytes, SocketAddr)>,
    /// Parks the loop on both socket descriptors and both doorbells when
    /// idle (empty — and therefore a plain sleep — when either socket
    /// cannot expose one).
    poller: Poller,
}

/// What the idle-hold rule reads from a node besides the token.
#[derive(Debug, Clone, Copy)]
struct IdleView {
    /// The node's position in its installed ring.
    position: Option<usize>,
    /// Whether membership is Operational.
    operational: bool,
    /// Messages in the participant's send queue.
    send_queue: usize,
    /// A refused submission, a waiting command, or a leave or stop in
    /// progress.
    commands_waiting: bool,
    /// Messages held in the receive buffer (not yet discarded).
    buffered: usize,
    /// See [`EventLoop::last_forwarded`].
    last_forwarded: Option<(RingId, Seq, Seq)>,
}

/// Whether the ring leader may hold `token` instead of processing it at
/// once. Only position 0 holds: it is the member that starts each
/// rotation, so a hold there idles every member, and one holder keeps
/// the rule free of coordination. The token must show a quiet ring —
/// nothing sent last rotation (`fcc`), nothing missing (`rtr`),
/// everything received everywhere (`aru == seq`), and no change since
/// this node last passed it on — and the node must have nothing of its
/// own to order or deliver.
fn token_is_idle(token: &Token, view: &IdleView) -> bool {
    view.position == Some(0)
        && view.operational
        && view.send_queue == 0
        && !view.commands_waiting
        && view.buffered == 0
        && token.fcc == 0
        && token.rtr.is_empty()
        && token.aru == token.seq
        && view.last_forwarded == Some((token.ring_id, token.seq, token.aru))
}

impl EventLoop {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn run(&mut self) {
        let mut outputs = Vec::new();
        let now = self.now_ns();
        self.daemon.start(now, &mut outputs);
        self.flush(&mut outputs);
        loop {
            if self.stop.load(Ordering::Relaxed) {
                self.release_held(&mut outputs);
                self.publish_ring_info();
                return;
            }
            if self.leave.load(Ordering::Relaxed) {
                self.drain_and_leave(&mut outputs);
                return;
            }
            let did_work = self.step(&mut outputs, true);
            self.publish_ring_info();
            if !did_work {
                self.idle_wait(true);
            }
        }
    }

    /// Idle wait: parks until a datagram lands on either socket, a
    /// doorbell rings (see [`Wakeup`]), the next protocol timer is due,
    /// or the held token's deadline passes, whichever is
    /// first. On a busy ring the token is in flight precisely when the
    /// loop has drained its sockets, so a fixed-quantum doze here would
    /// quantize the entire rotation to the sleep granularity; parking on
    /// the descriptors wakes the loop the moment the token lands. Where
    /// the park cannot see every event (see [`IDLE_SLEEP`]) it is also
    /// capped at that quantum.
    ///
    /// The doorbells are armed before the last look at the work sources,
    /// and both sockets get a [`DatagramSocket::prepare_wait`] call
    /// (non-short-circuiting, so both always arm): a userspace transport
    /// uses it to arm its own doorbell and re-check for datagrams that
    /// raced the idle decision; kernel sockets return false and rely on
    /// `ppoll` level-triggering. `commands` says whether waiting commands
    /// count as work (not while draining for a leave).
    fn idle_wait(&self, commands: bool) {
        let now = self.now_ns();
        let mut timeout = if self.park_on_events {
            PARK_CAP
        } else {
            IDLE_SLEEP
        };
        let deadlines = self.daemon.next_timer().map(|(d, _)| d);
        for deadline in deadlines.into_iter().chain(self.held.as_ref().map(|h| h.1)) {
            timeout = timeout.min(Duration::from_nanos(deadline.saturating_sub(now)));
        }
        let holding = self.held.is_some();
        self.wake.control.arm();
        if holding {
            self.wake.submit.arm();
        }
        let ready = self.data_socket.prepare_wait() | self.token_socket.prepare_wait()
            || (commands && !self.cmd_rx.is_empty())
            || self.stop.load(Ordering::Relaxed)
            || self.leave.load(Ordering::Relaxed);
        if !ready {
            self.poller.wait(timeout);
        }
        if !self.wake.control.disarm() {
            self.wake.control.drain();
        }
        if holding && !self.wake.submit.disarm() {
            self.wake.submit.drain();
        }
    }

    fn idle_view(&self) -> IdleView {
        let participant = self.daemon.participant();
        IdleView {
            position: participant.ring().index_of(self.pid),
            operational: self.daemon.state() == StateKind::Operational,
            send_queue: participant.send_queue_len(),
            commands_waiting: self.pending_submit.is_some()
                || !self.cmd_rx.is_empty()
                || self.stop.load(Ordering::Relaxed)
                || self.leave.load(Ordering::Relaxed),
            buffered: participant.buffered(),
            last_forwarded: self.last_forwarded,
        }
    }

    /// Hands the held token (if any) to the protocol, which processes
    /// and forwards it.
    fn release_held(&mut self, outputs: &mut Vec<Output>) -> bool {
        let Some((token, _)) = self.held.take() else {
            return false;
        };
        let now = self.now_ns();
        self.daemon.handle(now, Input::Token(token), outputs);
        self.flush(outputs);
        true
    }

    /// Releases the held token once its deadline passes or the ring
    /// stops being idle (a submit arrived, leave or stop began, or
    /// membership left Operational).
    fn service_hold(&mut self, outputs: &mut Vec<Output>) -> bool {
        let due = match &self.held {
            Some((token, deadline)) => {
                *deadline <= self.now_ns() || !token_is_idle(token, &self.idle_view())
            }
            None => false,
        };
        due && self.release_held(outputs)
    }

    /// One iteration: client commands (when accepted), one receive batch
    /// from the sockets in priority order, due timers. Returns whether
    /// anything happened.
    fn step(&mut self, outputs: &mut Vec<Output>, accept_commands: bool) -> bool {
        let mut did_work = false;

        // 1. Client commands. A submission the daemon refuses (send
        //    queue full) is parked in `pending_submit` and the queue is
        //    left alone until it fits — the command channel backs up,
        //    clients see `Backlogged`, and this loop spends its cycles on
        //    the sockets instead of shedding a firehose one command at a
        //    time.
        if accept_commands {
            if let Some((payload, service)) = self.pending_submit.take() {
                match self.daemon.submit(payload.clone(), service) {
                    Ok(()) => {
                        self.stats.submissions.fetch_add(1, Ordering::Relaxed);
                        did_work = true;
                    }
                    Err(_) => self.pending_submit = Some((payload, service)),
                }
            }
            while self.pending_submit.is_none() {
                match self.cmd_rx.try_recv() {
                    Ok(Command::Submit(payload, service)) => {
                        match self.daemon.submit(payload.clone(), service) {
                            Ok(()) => {
                                self.stats.submissions.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => self.pending_submit = Some((payload, service)),
                        }
                        did_work = true;
                    }
                    Ok(Command::InjectPanic) => {
                        panic!("fault injection: panic requested by test")
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Every handle is gone; stop at the top of the loop.
                        self.stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }

        // 2. The held idle token, after the commands so a submit that
        //    ends the hold rides the very token it releases.
        if self.service_hold(outputs) {
            did_work = true;
        }

        // 3. Sockets, in protocol priority order (Section III-D): when the
        //    token has priority, drain the token socket first. One bounded
        //    batch per iteration, so priority is re-evaluated between
        //    batches rather than starving the token behind a data flood.
        let token_first = self.daemon.token_has_priority();
        for pick_token in if token_first {
            [true, false]
        } else {
            [false, true]
        } {
            if self.recv_burst(pick_token, outputs) > 0 {
                did_work = true;
                break; // re-evaluate priority after every batch
            }
        }

        // 4. Timers.
        while let Some((deadline, kind)) = self.daemon.next_timer() {
            if deadline > self.now_ns() {
                break;
            }
            let now = self.now_ns();
            self.daemon.handle(now, Input::Timer(kind), outputs);
            self.flush(outputs);
            did_work = true;
        }

        did_work
    }

    /// Batched receive: drain up to [`RECV_BATCH`] datagrams from one
    /// socket in as few syscalls as the platform allows, parse each in
    /// place from its pooled buffer, then flush all resulting output as
    /// gathered bursts. Returns the number of datagrams received.
    fn recv_burst(&mut self, pick_token: bool, outputs: &mut Vec<Output>) -> usize {
        while self.recv_leases.len() < RECV_BATCH {
            self.recv_leases.push(self.recv_pool.acquire());
        }
        let (outcome, lens) = {
            let leases = &mut self.recv_leases;
            let socket: &dyn DatagramSocket = if pick_token {
                self.token_socket.as_ref()
            } else {
                self.data_socket.as_ref()
            };
            let mut slots: Vec<RecvSlot<'_>> = leases
                .iter_mut()
                .map(|l| RecvSlot::new(l.recv_space()))
                .collect();
            let outcome = socket.recv_batch(&mut slots);
            // Filled slots form a prefix; remember their datagram lengths.
            let lens: Vec<usize> = slots
                .iter()
                .take_while(|s| s.addr.is_some())
                .map(|s| s.len)
                .collect();
            (outcome, lens)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) if e.kind() == ErrorKind::Interrupted => return 0,
            Err(_) => {
                // The loop must survive recv errors (ECONNREFUSED from a
                // peer's ICMP port-unreachable, ...) but not hide them.
                self.stats.recv_errors.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
        };
        self.stats
            .syscalls_rx
            .fetch_add(outcome.syscalls, Ordering::Relaxed);
        if outcome.received == 0 {
            return 0;
        }
        self.stats
            .datagrams_rx
            .fetch_add(outcome.received as u64, Ordering::Relaxed);
        let used: Vec<BufLease> = self.recv_leases.drain(..outcome.received).collect();
        for (lease, len) in used.into_iter().zip(lens) {
            // Freeze only the datagram prefix: the parse reads in place
            // and any payload slice keeps the pooled buffer leased until
            // the protocol discards the message.
            let mut datagram = lease.freeze_prefix(len);
            if let Some(input) = parse_datagram(&mut datagram) {
                let input = match input {
                    Input::Token(token) => {
                        // At most one token is ever held; a second one (a
                        // retransmission) releases the first ahead of it.
                        self.release_held(outputs);
                        if self.hold > Duration::ZERO && token_is_idle(&token, &self.idle_view()) {
                            let deadline = self.now_ns() + self.hold.as_nanos() as u64;
                            self.held = Some((token, deadline));
                            continue;
                        }
                        Input::Token(token)
                    }
                    other => other,
                };
                let now = self.now_ns();
                self.daemon.handle(now, input, outputs);
            } else {
                self.stats.decode_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.flush(outputs);
        outcome.received
    }

    /// Graceful departure: keep the protocol running (without new client
    /// commands) until our send queue has gone onto the ring and the
    /// receive buffer has delivered, bounded by the drain budget; then
    /// announce the departure (twice — it rides UDP) so peers fail us by
    /// reciprocity and reform after one gather round.
    fn drain_and_leave(&mut self, outputs: &mut Vec<Output>) {
        self.release_held(outputs);
        // Submissions already queued when the leave flag was set were
        // accepted from the caller's point of view, so they drain out;
        // only commands arriving after this point are refused.
        if let Some((payload, service)) = self.pending_submit.take() {
            match self.daemon.submit(payload, service) {
                Ok(()) => self.stats.submissions.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.stats.submissions_shed.fetch_add(1, Ordering::Relaxed),
            };
        }
        loop {
            match self.cmd_rx.try_recv() {
                Ok(Command::Submit(payload, service)) => {
                    match self.daemon.submit(payload, service) {
                        Ok(()) => self.stats.submissions.fetch_add(1, Ordering::Relaxed),
                        Err(_) => self.stats.submissions_shed.fetch_add(1, Ordering::Relaxed),
                    };
                }
                Ok(Command::InjectPanic) => panic!("fault injection: panic requested by test"),
                Err(_) => break,
            }
        }
        self.flush(outputs);
        let deadline = Instant::now() + Duration::from_nanos(self.drain_ns.load(Ordering::Relaxed));
        while Instant::now() < deadline {
            let drained = self.daemon.state() == StateKind::Operational
                && self.daemon.participant().send_queue_len() == 0
                && self.daemon.participant().buffered() == 0;
            if drained {
                break;
            }
            if !self.step(outputs, false) {
                self.idle_wait(false);
            }
        }
        self.daemon.announce_leave(outputs);
        self.flush(outputs);
        self.daemon.announce_leave(outputs);
        self.flush(outputs);
        self.publish_ring_info();
    }

    fn publish_ring_info(&self) {
        let stats = self.daemon.stats();
        self.ring_info
            .state
            .store(state_to_u8(self.daemon.state()), Ordering::Relaxed);
        self.ring_info
            .rings_formed
            .store(stats.rings_formed, Ordering::Relaxed);
        self.ring_info
            .tokens_retransmitted
            .store(stats.tokens_retransmitted, Ordering::Relaxed);
        self.ring_info
            .ring_counter
            .store(self.daemon.max_ring_counter(), Ordering::Relaxed);
    }

    /// Folds a batch send's outcome into the hot-path counters. UDP send
    /// failures are not retried (the protocol's retransmission machinery
    /// owns recovery) but they are counted per failing destination.
    fn record_send(&self, out: SendOutcome) {
        self.stats
            .datagrams_tx
            .fetch_add(out.sent as u64, Ordering::Relaxed);
        self.stats
            .syscalls_tx
            .fetch_add(out.syscalls, Ordering::Relaxed);
        self.stats
            .send_errors
            .fetch_add(out.errors as u64, Ordering::Relaxed);
    }

    /// Batched flush: each multicast is encoded exactly once into a pooled
    /// buffer, its fanout becomes cheap [`Bytes`] clones of that one
    /// encoding, and the whole output burst — token first, then data —
    /// leaves in as few syscalls as [`DatagramSocket::send_batch`] can
    /// manage. The token burst goes out before the data burst: Accelerated
    /// Ring releases the token before the multicast completes (paper
    /// Section III-B), so the successor starts its protocol work while our
    /// data is still leaving.
    fn flush(&mut self, outputs: &mut Vec<Output>) {
        let mut data_batch = std::mem::take(&mut self.data_batch);
        let mut token_batch = std::mem::take(&mut self.token_batch);
        for output in outputs.drain(..) {
            match output {
                Output::Multicast(msg) => {
                    let mut lease = self.send_pool.acquire();
                    lease.clear();
                    wire::encode_data_into(&msg, &mut lease);
                    let encoded = lease.freeze();
                    for addr in &self.fanout {
                        data_batch.push((encoded.clone(), *addr));
                    }
                }
                Output::SendToken { to, token } => {
                    let mut lease = self.send_pool.acquire();
                    lease.clear();
                    wire::encode_token_into(&token, &mut lease);
                    self.last_forwarded = Some((token.ring_id, token.seq, token.aru));
                    if let Some(peer) = self.book.get(to) {
                        token_batch.push((lease.freeze(), peer.token));
                    }
                }
                Output::SendControl { to, msg } => {
                    // Control traffic is rare (membership transitions); it
                    // rides the data burst but skips the pool.
                    let encoded = encode_control(&msg);
                    match to {
                        Some(to) => {
                            if to == self.pid {
                                continue;
                            }
                            if let Some(peer) = self.book.get(to) {
                                data_batch.push((encoded, peer.data));
                            }
                        }
                        None => {
                            for addr in &self.fanout {
                                data_batch.push((encoded.clone(), *addr));
                            }
                        }
                    }
                }
                Output::Deliver(d) => {
                    let _ = self.event_tx.send(AppEvent::Delivered(d));
                }
                Output::ConfigChange(c) => {
                    let _ = self.event_tx.send(AppEvent::Config(c));
                }
            }
        }
        if !token_batch.is_empty() {
            let out = self.token_socket.send_batch(&token_batch);
            self.record_send(out);
            token_batch.clear();
        }
        if !data_batch.is_empty() {
            let out = self.data_socket.send_batch(&data_batch);
            self.record_send(out);
            data_batch.clear();
        }
        // Hand the (emptied, capacity-bearing) scratch vectors back.
        self.data_batch = data_batch;
        self.token_batch = token_batch;
    }
}

fn parse_datagram(datagram: &mut Bytes) -> Option<Input> {
    match wire::decode_kind(datagram).ok()? {
        wire::Kind::Data => Some(Input::Data(wire::decode_data_body(datagram).ok()?)),
        wire::Kind::Token => Some(Input::Token(wire::decode_token_body(datagram).ok()?)),
        wire::Kind::Opaque => Some(Input::Control(decode_control(datagram).ok()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> RingId {
        RingId::new(ParticipantId::new(0), 4)
    }

    /// An idle leader and the token it last passed on, come back around.
    fn idle() -> (Token, IdleView) {
        let mut token = Token::initial(ring());
        token.seq = Seq::new(7);
        token.aru = Seq::new(7);
        let view = IdleView {
            position: Some(0),
            operational: true,
            send_queue: 0,
            commands_waiting: false,
            buffered: 0,
            last_forwarded: Some((ring(), Seq::new(7), Seq::new(7))),
        };
        (token, view)
    }

    #[test]
    fn a_quiet_rotation_at_the_leader_is_idle() {
        let (token, view) = idle();
        assert!(token_is_idle(&token, &view));
    }

    #[test]
    fn any_sign_of_work_ends_idleness() {
        let (token, view) = idle();
        let mut t = token.clone();
        t.rtr = vec![Seq::new(5)];
        assert!(!token_is_idle(&t, &view), "non-empty rtr");
        let mut t = token.clone();
        t.fcc = 1;
        assert!(!token_is_idle(&t, &view), "fcc > 0");
        let mut t = token.clone();
        t.aru = Seq::new(6);
        assert!(!token_is_idle(&t, &view), "aru < seq");
        let mut t = token.clone();
        t.seq = Seq::new(8);
        t.aru = Seq::new(8);
        assert!(
            !token_is_idle(&t, &view),
            "seq moved since this node passed the token on"
        );
        let queued = IdleView {
            send_queue: 1,
            ..view
        };
        assert!(!token_is_idle(&token, &queued), "a queued submit");
        let waiting = IdleView {
            commands_waiting: true,
            ..view
        };
        assert!(!token_is_idle(&token, &waiting), "a waiting command");
        let not_leader = IdleView {
            position: Some(1),
            ..view
        };
        assert!(!token_is_idle(&token, &not_leader), "not at position 0");
        let buffered = IdleView {
            buffered: 1,
            ..view
        };
        assert!(!token_is_idle(&token, &buffered), "undiscarded messages");
        let gathering = IdleView {
            operational: false,
            ..view
        };
        assert!(!token_is_idle(&token, &gathering), "not Operational");
        let fresh = IdleView {
            last_forwarded: None,
            ..view
        };
        assert!(!token_is_idle(&token, &fresh), "never passed a token on");
    }
}
