//! The runnable multi-ring daemon: a [`MultiRingEngine`] served over R
//! real transport nodes (one per ring) by the daemon reactor of
//! [`accelring_daemon::runtime`] — the same loop that runs
//! `accelring_daemon::GroupDaemon`, here with R rings. The reactor owns
//! the client calls, the session frontend, ring-event draining,
//! backlog-aware submission, supervision and shutdown; this module keeps
//! only what is specific to multiple rings ([`MultiRingSide`]): skip and
//! slot-hint ticks, migration watches, the catch-up gate, the recovery
//! and local-service frames, and the mounted [`AppState`].
//!
//! Every submission goes to the ring the shard map chose, each ring's
//! deliveries and configuration changes feed the deterministic merge,
//! and clients receive their events in the merged cross-ring total
//! order. When any ring's node dies (panic, kill switch, or plain exit)
//! every connected client receives a terminal
//! [`ClientEvent`](accelring_daemon::ClientEvent)`::Disconnected` — a
//! multi-ring daemon without all of its rings cannot keep its merge
//! promise.
//!
//! ## Idle-ring skip ticks
//!
//! The merge cannot release past a ring that is silent: nothing proves
//! the silent ring will not later order a message with a smaller merge
//! slot. Each ring's *tick leader* — the lowest pid of the ring's
//! current regular configuration — submits *skip ticks* on it: ordered
//! no-ops carrying the highest regular-configuration counter seen across
//! all rings ([`accelring_daemon::packing::tick_payload_with_epoch`]),
//! once the ring has been silent for [`MultiRingOptions::tick_interval`].
//! Being ordered on the lagging ring makes the advance intrinsic to that
//! ring's stream: every observer aligns the ring's λ-clock identically,
//! and a ring that never reformed catches up to a reformed ring's
//! epoch base.
//!
//! Rings also turn rounds at different speeds — an idle ring's leader
//! holds its token — so a busy ring's merge slots outrun an idle ring's.
//! Whenever [`MultiRingEngine::lagging_rings`] names a ring, its tick
//! leader orders a tick that also carries a merge-slot hint
//! ([`accelring_daemon::packing::tick_payload_with_slot`]), one
//! outstanding at a time, lifting the ring's clock to the others'.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelring_core::{Backoff, Delivery, FrontendStats, ParticipantId, RingIdx, Service};
use accelring_daemon::packing::{tick_payload_with_epoch, tick_payload_with_slot};
use accelring_daemon::proto::SessionFrame;
use accelring_daemon::runtime::{Client, DaemonEngine, Io, Reactor, SpanningEngine};
use accelring_daemon::{EngineError, EngineOptions, FrontendOptions, Ingress};
use accelring_membership::ConfigChange;
use accelring_transport::{NodeHandle, TransportProbe, TransportStats};
use bytes::Bytes;

use crate::engine::{MultiOutput, MultiRingEngine, MultiRingError};
use crate::recovery::{decode_snapshot, encode_snapshot, RecoverySnapshot, RingSeqs};
use crate::shard::ShardMap;

/// How long a daemon started with [`MultiRingOptions::recovery_peers`]
/// keeps its serving gate closed waiting for a catch-up snapshot. Past
/// the deadline it serves anyway — every peer gone is a fresh cluster,
/// and refusing forever would deadlock the first daemon back up.
const CATCHUP_DEADLINE: Duration = Duration::from_secs(5);

/// Replicated application state mounted on a daemon — the hook through
/// which the daemon serves local-service queries ([`SessionFrame::SvcQuery`])
/// outside the ordered path and piggybacks application snapshots on the
/// recovery pull path (the `app` section of [`RecoverySnapshot`]). The
/// replicated KV store mounts its machine here; the multi-ring layer
/// carries every body blind — the application owns its codecs.
pub trait AppState: Send + Sync {
    /// Answers one opaque local-service query, or `None` to stay silent
    /// (no reply frame is sent; the requester owns retries).
    fn query(&self, body: &Bytes) -> Option<Bytes>;
    /// The application snapshot to piggyback on a recovery push; empty
    /// means "nothing to carry".
    fn snapshot(&self) -> Bytes;
    /// Accepts the application section of a recovery snapshot pulled
    /// from a peer during catch-up. Empty bodies are not delivered.
    fn install(&self, body: &Bytes);
}

/// Runtime settings for a [`MultiRingDaemon`].
#[derive(Clone)]
pub struct MultiRingOptions {
    /// Packing/fragmentation settings for the per-ring engines.
    pub engine: EngineOptions,
    /// Merge pace: token rounds per merge slot.
    pub lambda: u64,
    /// How long a ring may stay silent before its tick leader orders an
    /// epoch-carrying skip tick on it. Merge pacing between busy and
    /// idle rings does not wait for it: slot-hint ticks go out as soon as
    /// a ring's merge watermark trails (see the module docs).
    pub tick_interval: Duration,
    /// How long an in-flight group migration may wait for its readiness
    /// barrier before this daemon escalates to abort (the Abort is
    /// ordered on the source ring, so whichever daemon's escalation
    /// lands first decides for everyone; retries back off with jitter).
    pub migration_timeout: Duration,
    /// Session-frontend tuning; set
    /// [`FrontendOptions::session_socket`] to serve remote
    /// [`accelring_daemon::SessionClient`]s over UDP.
    pub frontend: FrontendOptions,
    /// Session addresses of live peer daemons to pull a catch-up
    /// snapshot from before serving clients. When non-empty (and the
    /// session socket is open) the daemon starts *gated*: HELLO frames
    /// are silently dropped — the client's retry loop covers the window
    /// — until a peer's `MAP_PUSH` snapshot is applied or
    /// `CATCHUP_DEADLINE` elapses.
    pub recovery_peers: Vec<SocketAddr>,
    /// Per-ring dedup watermarks to seed the engine with at startup —
    /// the in-process fast path for a supervisor that captured
    /// [`MultiRingDaemon::export_seqs`] before stopping the previous
    /// incarnation. `seqs[r]` holds `(client, max_seq)` pairs for ring
    /// `r`; seeding is monotone, so combining it with a pulled snapshot
    /// is safe.
    pub recovery_seed: Option<RingSeqs>,
    /// Replicated application state mounted on this daemon: serves
    /// local-service queries and rides the recovery pull path. `None`
    /// means no application — queries go unanswered and snapshots carry
    /// an empty `app` section.
    pub app_state: Option<Arc<dyn AppState>>,
}

impl std::fmt::Debug for MultiRingOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiRingOptions")
            .field("engine", &self.engine)
            .field("lambda", &self.lambda)
            .field("tick_interval", &self.tick_interval)
            .field("migration_timeout", &self.migration_timeout)
            .field("frontend", &self.frontend)
            .field("recovery_peers", &self.recovery_peers)
            .field("recovery_seed", &self.recovery_seed)
            .field("app_state", &self.app_state.as_ref().map(|_| "mounted"))
            .finish()
    }
}

impl Default for MultiRingOptions {
    fn default() -> Self {
        MultiRingOptions {
            engine: EngineOptions::default(),
            lambda: 1,
            tick_interval: Duration::from_millis(25),
            migration_timeout: Duration::from_secs(3),
            frontend: FrontendOptions::default(),
            recovery_peers: Vec::new(),
            recovery_seed: None,
            app_state: None,
        }
    }
}

/// A point-in-time probe of a daemon's recovery-relevant state and its
/// migration and recovery counters, read through
/// [`MultiRingDaemon::inspect`]. This is what rejoin benches and chaos
/// checkers poll to decide "has this daemon converged?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonInspect {
    /// The engine's shard-map version.
    pub map_version: u64,
    /// Highest merge slot released to clients so far.
    pub merge_cursor: u64,
    /// Highest regular-configuration counter seen on any ring.
    pub max_epoch: u64,
    /// Whether the serving gate is still closed waiting for catch-up.
    pub catching_up: bool,
    /// Group migrations whose fence this daemon observed start.
    pub migrations_started: u64,
    /// Migrations that committed their handoff (group now on the target).
    pub migrations_committed: u64,
    /// Migrations that aborted (target unreachable, ring death, timeout).
    pub migrations_aborted: u64,
    /// Client submissions caught behind a migration fence and redirected
    /// (held, then resubmitted to the group's post-fence ring).
    pub submissions_redirected: u64,
    /// Total nanoseconds groups spent frozen behind migration fences
    /// (from fence start to commit/abort, summed over migrations this
    /// daemon observed).
    pub fence_wait_ns: u64,
    /// MAP_PULL requests this daemon sent while catching up after a
    /// (re)start.
    pub recovery_pulls_sent: u64,
    /// MAP_PUSH snapshots this daemon served to catching-up peers.
    pub recovery_pushes_served: u64,
    /// Peer snapshots applied (map adopted and dedup watermarks seeded).
    pub recovery_snapshots_applied: u64,
    /// Shard-map epochs adopted from the rings' ordered announcements.
    pub recovery_maps_adopted: u64,
    /// Total nanoseconds spent gated (not serving sessions) between
    /// (re)start and catch-up completion.
    pub recovery_catchup_wait_ns: u64,
}

/// A running multi-ring daemon: one transport node per ring plus the
/// routing engine, serving local clients in the merged order.
#[derive(Debug)]
pub struct MultiRingDaemon {
    reactor: Reactor<MultiRingSide>,
}

/// A client connected to a local [`MultiRingDaemon`]. Its event stream
/// is the daemon's merged cross-ring total order, filtered to this
/// client's groups.
pub type MultiRingClient = Client<MultiRingSide>;

impl MultiRingDaemon {
    /// Starts the multi-ring layer over one running transport node per
    /// ring (`nodes[k]` is this daemon's node on ring `k`) with default
    /// options.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, its length disagrees with
    /// `shards.rings()`, or the nodes carry different participant ids —
    /// one daemon must be the same participant on every ring.
    pub fn start(nodes: Vec<NodeHandle>, shards: ShardMap) -> MultiRingDaemon {
        MultiRingDaemon::start_with(nodes, shards, MultiRingOptions::default())
    }

    /// Starts the multi-ring layer with explicit options.
    ///
    /// # Panics
    ///
    /// As [`MultiRingDaemon::start`].
    pub fn start_with(
        nodes: Vec<NodeHandle>,
        shards: ShardMap,
        options: MultiRingOptions,
    ) -> MultiRingDaemon {
        assert!(!nodes.is_empty(), "a multi-ring daemon needs rings");
        assert_eq!(
            nodes.len(),
            shards.rings() as usize,
            "one node per shard-map ring"
        );
        let pid = nodes[0].pid();
        assert!(
            nodes.iter().all(|n| n.pid() == pid),
            "one daemon must be the same participant on every ring"
        );
        let frontend = options.frontend;
        let side = MultiRingSide::new(pid, shards, options);
        MultiRingDaemon {
            reactor: Reactor::spawn("multiring-daemon", nodes, side, frontend),
        }
    }

    /// The UDP address remote [`accelring_daemon::SessionClient`]s dial,
    /// or `None` when the session socket is disabled.
    pub fn session_addr(&self) -> Option<SocketAddr> {
        self.reactor.session_addr()
    }

    /// A snapshot of the session frontend's counters (sessions open,
    /// submits, per-cause sheds, reactor wakeups/syscalls).
    pub fn frontend_stats(&self) -> FrontendStats {
        self.reactor.frontend_stats()
    }

    /// Per-ring snapshots of the underlying transport nodes' counters
    /// (`stats[k]` is this daemon's node on ring `k`), readable even
    /// though the node handles live inside the reactor thread.
    pub fn transport_stats(&self) -> Vec<TransportStats> {
        self.reactor
            .probes()
            .iter()
            .map(TransportProbe::stats)
            .collect()
    }

    /// Clonable per-ring probes onto transport counters and buffer pools,
    /// outliving this daemon's shutdown (useful for leak checks).
    pub fn transport_probes(&self) -> Vec<TransportProbe> {
        self.reactor.probes().to_vec()
    }

    /// Connects a new local client with no session history.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError`] for invalid or duplicate names.
    pub fn connect(&self, name: &str) -> Result<MultiRingClient, MultiRingError> {
        self.reactor.connect(name, 0, None)
    }

    /// Starts an online migration of `group` onto ring `to`: the
    /// operator entry point for elastic resharding. Returns as soon as
    /// the Start fence is accepted for submission on the group's source
    /// ring; the handoff itself completes (or aborts, after
    /// [`MultiRingOptions::migration_timeout`]) asynchronously through
    /// the ordered streams. Progress is visible in the migration
    /// counters of [`MultiRingDaemon::inspect`].
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::Migration`] for invalid targets or a
    /// group already migrating.
    pub fn migrate(&self, group: &str, to: RingIdx) -> Result<(), MultiRingError> {
        let name = group.to_string();
        let started = self.reactor.call(move |side, io| {
            side.engine
                .begin_migration(&name, to)
                .map(|outputs| io.dispatch(outputs))
        });
        started.unwrap_or_else(|| {
            Err(MultiRingError::Migration {
                group: group.to_string(),
                reason: "daemon stopped".to_string(),
            })
        })
    }

    /// The engine's per-ring dedup watermarks: `seqs[r]` holds
    /// `(client, max_seq)` pairs for ring `r`. A supervisor captures
    /// this before stopping a daemon and hands it to the next
    /// incarnation through [`MultiRingOptions::recovery_seed`], so a
    /// client resubmission across the restart stays suppressed. `None`
    /// when the daemon already stopped.
    pub fn export_seqs(&self) -> Option<RingSeqs> {
        self.reactor.call(|side, _| side.engine.export_seqs())
    }

    /// A probe of the daemon's recovery state (shard-map version, merge
    /// cursor, epoch, serving gate) and its migration and recovery
    /// counters, or `None` when it already stopped.
    pub fn inspect(&self) -> Option<DaemonInspect> {
        self.reactor.call(|side, _| {
            let migrations = side.engine.migration_counters();
            DaemonInspect {
                map_version: side.engine.shards().version(),
                merge_cursor: side.engine.merge_cursor(),
                max_epoch: side.max_epoch,
                catching_up: side.catchup.is_some(),
                migrations_started: migrations.started,
                migrations_committed: migrations.committed,
                migrations_aborted: migrations.aborted,
                submissions_redirected: migrations.redirected,
                fence_wait_ns: side.fence_wait_ns,
                recovery_pulls_sent: side.pulls_sent,
                recovery_pushes_served: side.pushes_served,
                recovery_snapshots_applied: side.snapshots_applied,
                recovery_maps_adopted: side.engine.maps_adopted(),
                recovery_catchup_wait_ns: side.catchup_wait_ns,
            }
        })
    }

    /// Stops the daemon thread and every ring node. Connected clients
    /// receive [`ClientEvent`](accelring_daemon::ClientEvent)`::Disconnected`.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}

/// Reactor-side tracking of one in-flight migration: when to give up and
/// escalate to abort, with jittered backoff between escalations.
struct MigrationWatch {
    started: Instant,
    deadline: Instant,
    backoff: Backoff,
    next_abort: Option<Instant>,
}

/// The serving gate of a daemon that is still catching up: it pulls a
/// state snapshot from its peers under backoff and drops client HELLOs
/// until a snapshot lands (or the deadline passes and it serves anyway).
struct Catchup {
    peers: Vec<SocketAddr>,
    /// Nonce stamped on this incarnation's MAP_PULLs; pushes carrying
    /// any other nonce are someone else's and are ignored.
    nonce: u64,
    started: Instant,
    deadline: Instant,
    backoff: Backoff,
    next_pull: Option<Instant>,
}

/// The multi-ring engine side of [`MultiRingDaemon`]'s reactor: the
/// [`MultiRingEngine`] plus the state only a multi-ring daemon keeps.
pub struct MultiRingSide {
    engine: MultiRingEngine,
    pid: ParticipantId,
    tick_interval: Duration,
    migration_timeout: Duration,
    /// Highest regular-configuration counter seen on any ring; carried
    /// by skip ticks so lagging rings align to the newest epoch base.
    max_epoch: u64,
    /// Per ring: whether this daemon is the ring's tick leader — the
    /// lowest pid of the ring's current regular configuration.
    tick_leader: Vec<bool>,
    /// Per ring: a slot-hint tick this daemon ordered that the ring has
    /// not delivered anything since (at most one is outstanding).
    hint_outstanding: Vec<bool>,
    /// Per ring: when it last delivered anything (ticks included) — the
    /// idleness clock pacing this daemon's skip ticks.
    last_delivery: Vec<Instant>,
    watches: HashMap<String, MigrationWatch>,
    /// Nanoseconds groups spent frozen behind migration fences.
    fence_wait_ns: u64,
    /// MAP_PULL requests sent while catching up.
    pulls_sent: u64,
    /// MAP_PUSH snapshots served to catching-up peers.
    pushes_served: u64,
    /// Peer snapshots applied during catch-up.
    snapshots_applied: u64,
    /// Nanoseconds spent gated between (re)start and catch-up.
    catchup_wait_ns: u64,
    /// `Some` while the serving gate is closed waiting for catch-up.
    catchup: Option<Catchup>,
    /// Application state mounted on this daemon (serves SVC_QUERY
    /// frames, rides the recovery pull path).
    app: Option<Arc<dyn AppState>>,
}

impl MultiRingSide {
    fn new(pid: ParticipantId, shards: ShardMap, options: MultiRingOptions) -> MultiRingSide {
        let rings = shards.rings() as usize;
        let mut engine = MultiRingEngine::with_options(pid, shards, options.lambda, options.engine);
        // In-process seed first (free), network catch-up second: both are
        // monotone, so layering them can only tighten the dedup watermarks.
        if let Some(seed) = &options.recovery_seed {
            engine.seed_seqs(seed);
        }
        let now = Instant::now();
        // The serving gate only arms when there is a socket to pull
        // through; an adapter-only daemon cannot reach its peers.
        let catchup =
            (!options.recovery_peers.is_empty() && options.frontend.session_socket).then(|| {
                // Wall-clock entropy keeps a restarted incarnation's nonce
                // from colliding with its predecessor's, so a push
                // answering the old incarnation's pull is ignored
                // (harmless anyway — application is monotone — but the
                // counters stay honest).
                let nonce = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0)
                    ^ (u64::from(pid.as_u16()) << 48);
                Catchup {
                    peers: options.recovery_peers,
                    nonce,
                    started: now,
                    deadline: now + CATCHUP_DEADLINE,
                    backoff: Backoff::new(
                        Duration::from_millis(10),
                        Duration::from_millis(250),
                        u64::from(pid.as_u16()),
                    ),
                    next_pull: None,
                }
            });
        MultiRingSide {
            engine,
            pid,
            tick_interval: options.tick_interval,
            migration_timeout: options.migration_timeout,
            max_epoch: 0,
            tick_leader: vec![false; rings],
            hint_outstanding: vec![false; rings],
            last_delivery: vec![now; rings],
            watches: HashMap::new(),
            fence_wait_ns: 0,
            pulls_sent: 0,
            pushes_served: 0,
            snapshots_applied: 0,
            catchup_wait_ns: 0,
            catchup,
            app: options.app_state,
        }
    }

    /// Drives migration timeouts and accounts fence wait.
    fn service_migrations(&mut self, io: &mut Io) {
        let inflight: BTreeSet<String> = self
            .engine
            .migrations_in_flight()
            .into_iter()
            .map(|(g, _, _)| g)
            .collect();
        // Decisions that landed: record the fence wait, drop the watch.
        let fence_wait_ns = &mut self.fence_wait_ns;
        self.watches.retain(|g, w| {
            let live = inflight.contains(g);
            if !live {
                *fence_wait_ns += w.started.elapsed().as_nanos() as u64;
            }
            live
        });
        let now = Instant::now();
        for g in &inflight {
            self.watches.entry(g.clone()).or_insert_with(|| {
                let seed = g.bytes().fold(u64::from(self.pid.as_u16()), |h, b| {
                    h.wrapping_mul(31).wrapping_add(u64::from(b))
                });
                MigrationWatch {
                    started: now,
                    deadline: now + self.migration_timeout,
                    backoff: Backoff::new(Duration::from_millis(100), Duration::from_secs(1), seed),
                    next_abort: None,
                }
            });
        }
        // Past-deadline migrations: escalate to abort (ordered on the
        // source ring; first escalation to land decides for everyone),
        // re-sending under backoff until the decision comes back.
        for (g, w) in &mut self.watches {
            if now >= w.deadline && w.next_abort.is_none_or(|t| now >= t) {
                io.dispatch(self.engine.abort_migration(g));
                w.next_abort = Some(Instant::now() + w.backoff.next_delay());
            }
        }
    }

    /// Drives the catch-up gate: re-sends MAP_PULLs under backoff and
    /// opens the gate at the deadline if no snapshot ever landed (every
    /// peer gone means this daemon *is* the cluster now).
    fn service_catchup(&mut self, io: &mut Io) {
        let Some(c) = self.catchup.as_mut() else {
            return;
        };
        let now = Instant::now();
        if now >= c.deadline {
            self.catchup_wait_ns += c.started.elapsed().as_nanos() as u64;
            self.catchup = None;
            return;
        }
        if c.next_pull.is_some_and(|t| now < t) {
            return;
        }
        c.next_pull = Some(now + c.backoff.next_delay());
        // Advertise the epoch this daemon has already observed through
        // its reforming rings: a peer that has not seen that far yet is
        // not a catch-up source and stays silent.
        let frame = SessionFrame::MapPull {
            nonce: c.nonce,
            want_epoch: self.max_epoch,
        };
        for addr in &c.peers {
            io.mux().send_session_frame(&frame, *addr);
        }
        self.pulls_sent += c.peers.len() as u64;
    }

    /// Skip ticks, the Multi-Ring Paxos coordinator-skip rule, and
    /// slot-hint ticks.
    fn order_ticks(&mut self, io: &mut Io) {
        // Each ring's tick leader orders an epoch-carrying no-op on its
        // ring once the ring has been silent for a tick interval, whether
        // or not its *own* merge is blocked — other daemons' mergers may
        // be waiting on the idle ring even when this one has nothing
        // queued. The tick's delivery resets the idleness clock, so a
        // persistently idle ring costs one tiny ordered message per
        // interval; being ordered on the ring makes the advance (and the
        // epoch alignment of a never-reforming ring) intrinsic to the
        // ring's stream, identical at every observer.
        for (k, last) in self.last_delivery.iter_mut().enumerate() {
            if self.tick_leader[k] && last.elapsed() >= self.tick_interval {
                let tick = tick_payload_with_epoch(self.max_epoch);
                let _ = io.nodes()[k].submit(tick, Service::Agreed);
                // Also reset on submission: while the ring cannot order
                // (reforming, partitioned), at most one tick per interval
                // is queued, not one per loop spin.
                *last = Instant::now();
            }
        }
        // Slot-hint ticks pace the merge across rings that turn rounds
        // at different speeds: a ring whose watermark trails the others'
        // gets a tick lifting its merge clock to theirs, one at a time.
        for (ring, slot) in self.engine.lagging_rings() {
            let k = ring.as_usize();
            if self.tick_leader[k] && !self.hint_outstanding[k] {
                let hint = tick_payload_with_slot(self.max_epoch, slot);
                self.hint_outstanding[k] = io.nodes()[k].submit(hint, Service::Agreed).is_ok();
            }
        }
    }

    /// Serves a state snapshot to a rejoining peer — but only from
    /// trustworthy state: a daemon that is itself gated, or whose view
    /// is behind what the requester already observed, stays silent and
    /// lets a fresher peer (or the requester's own deadline) answer.
    fn serve_pull(&mut self, nonce: u64, want_epoch: u64, addr: SocketAddr, io: &mut Io) {
        if self.catchup.is_some() || self.max_epoch < want_epoch {
            return;
        }
        let snap = RecoverySnapshot {
            epoch: self.max_epoch,
            cursor: self.engine.merge_cursor(),
            map: self.engine.map_msg(),
            seqs: self.engine.export_seqs(),
            app: self.app.as_ref().map(|a| a.snapshot()).unwrap_or_default(),
        };
        let frame = SessionFrame::MapPush {
            nonce,
            epoch: snap.epoch,
            slot: snap.cursor,
            map_version: snap.map.version,
            body: encode_snapshot(&snap),
        };
        io.mux().send_session_frame(&frame, addr);
        self.pushes_served += 1;
    }

    /// Applies a pushed snapshot. Only a gated daemon consumes pushes,
    /// and only for the pull nonce it stamped this incarnation; late or
    /// unsolicited pushes are ignored. A malformed body degrades to the
    /// next backoff pull — a misbehaving peer cannot wedge recovery.
    fn apply_push(&mut self, nonce: u64, body: Bytes) {
        if self.catchup.as_ref().is_none_or(|c| c.nonce != nonce) {
            return;
        }
        let Ok(snap) = decode_snapshot(body) else {
            return;
        };
        // Both applications are monotone (strictly-newer map adoption,
        // max-merged watermarks), so a snapshot racing this daemon's own
        // ring traffic is safe in either order.
        self.engine.adopt_map(&snap.map);
        self.engine.seed_seqs(&snap.seqs);
        if !snap.app.is_empty() {
            if let Some(app) = &self.app {
                app.install(&snap.app);
            }
        }
        self.max_epoch = self.max_epoch.max(snap.epoch);
        self.snapshots_applied += 1;
        if let Some(c) = self.catchup.take() {
            self.catchup_wait_ns += c.started.elapsed().as_nanos() as u64;
        }
    }
}

impl SpanningEngine for MultiRingSide {}

impl DaemonEngine for MultiRingSide {
    type Error = MultiRingError;
    type Output = MultiOutput;

    fn connect(&mut self, name: &str) -> Result<(), EngineError> {
        // Registers the client on every ring at once.
        self.engine.client_connect(name).map_err(|e| match e {
            MultiRingError::Engine(e) => e,
            // `client_connect` cannot raise the multi-ring-only variants;
            // keep the message for the ERROR frame if it ever does.
            other => EngineError::UnknownClient(other.to_string()),
        })
    }

    fn join(&mut self, name: &str, group: &str) -> Result<Vec<MultiOutput>, MultiRingError> {
        self.engine.client_join(name, group)
    }

    fn leave(&mut self, name: &str, group: &str) -> Result<Vec<MultiOutput>, MultiRingError> {
        self.engine.client_leave(name, group)
    }

    fn multicast(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
        spanning: bool,
    ) -> Result<Vec<MultiOutput>, MultiRingError> {
        if spanning {
            self.engine
                .client_multicast_spanning(name, groups, payload, service, seq)
        } else {
            self.engine
                .client_multicast_sequenced(name, groups, payload, service, seq)
        }
    }

    fn disconnect(&mut self, name: &str) -> Result<Vec<MultiOutput>, MultiRingError> {
        self.engine.client_disconnect(name)
    }

    fn flush(&mut self) -> Vec<MultiOutput> {
        self.engine.flush()
    }

    fn on_delivery(&mut self, ring: RingIdx, delivery: &Delivery) -> Vec<MultiOutput> {
        self.last_delivery[ring.as_usize()] = Instant::now();
        self.hint_outstanding[ring.as_usize()] = false;
        self.engine.on_delivery(ring, delivery)
    }

    fn on_config_change(&mut self, ring: RingIdx, change: &ConfigChange) -> Vec<MultiOutput> {
        let k = ring.as_usize();
        self.hint_outstanding[k] = false;
        if !change.transitional {
            self.max_epoch = self.max_epoch.max(change.ring_id.counter());
            self.tick_leader[k] = change.members.iter().min() == Some(&self.pid);
        }
        self.engine.on_config_change(ring, change)
    }

    fn duplicates_dropped(&self) -> u64 {
        self.engine.duplicates_dropped()
    }

    fn idle_tick(&self) -> Duration {
        self.tick_interval
    }

    fn serving(&self) -> bool {
        // A daemon still catching up must not welcome clients onto a
        // stale shard map or unseeded dedup state.
        self.catchup.is_none()
    }

    fn on_peer_frame(&mut self, frame: Ingress, io: &mut Io) {
        match frame {
            Ingress::MapPull {
                nonce,
                want_epoch,
                addr,
            } => self.serve_pull(nonce, want_epoch, addr, io),
            Ingress::MapPush { nonce, body, .. } => self.apply_push(nonce, body),
            // Answered outside the ordered path — but never from behind
            // the serving gate: a catching-up daemon's application state
            // is as stale as its shard map.
            Ingress::SvcQuery { nonce, body, addr } if self.catchup.is_none() => {
                if let Some(body) = self.app.as_ref().and_then(|a| a.query(&body)) {
                    io.mux()
                        .send_session_frame(&SessionFrame::SvcReply { nonce, body }, addr);
                }
            }
            _ => {}
        }
    }

    fn turn(&mut self, io: &mut Io) {
        self.service_migrations(io);
        self.service_catchup(io);
        self.order_ticks(io);
    }

    fn ring_died(&self, ring: RingIdx, reason: String) -> String {
        format!("{ring} died: {reason}")
    }
}
