//! `kv`: two 3-daemon rings, 4 partitions, and a `KvStore` replica on
//! every daemon, driven open-loop by one `SessionClient`.
//!
//! Why: the rings are mostly idle and the work is latency-bound. Idle
//! token rotation, the daemon's 1 ms reactor tick, the cross-ring merge
//! and KV apply all sit on the critical path, so a change that costs
//! light-load latency to gain throughput shows here. Layers loaded:
//! transport (two rings), multiring (frontend, engine, merge), kv.
//!
//! Each idle ring keeps about one core busy rotating its token, so the
//! two rings here want the whole 2-core box before any op arrives; the
//! kv tail (`p99_ms`, `kv.txn_p50_ms`) is mostly CPU starvation and
//! swings between runs. See the README for the measured figures.
//!
//! One op is due every [`GAP`] (333 ops/s); one in four is a cross-ring
//! transaction. An op completes when all 3 replicas have applied it,
//! timed from its due time. Gate: every op is applied exactly once at
//! every replica, and the replicas' state hashes agree after the drain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::{ClientEvent, FrontendOptions, SessionClient};
use accelring_kv::{
    encode_op, involved_partitions, partition_of, KvApplied, KvConfig, KvOp, KvShared, KvStore,
    KvWrite,
};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingClient, MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{spawn_local_multiring_on, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Select};

use crate::common::{
    assemble, complete, regular_configs, repeated_setup, sleep_until, violation, Cfg, FrontendHost,
    Measured, Outcome, PhaseLoad, Plan, SetupTimes, Snap,
};
use crate::inputs::{KvOps, KV_PARTITIONS, KV_RINGS};

/// Daemons per ring (and replicas).
const NODES: usize = 3;
/// One op is due every 3 ms: 333 ops/s.
const GAP: Duration = Duration::from_millis(3);
/// How long ops may take to complete after load stops, resubmits
/// included.
const DRAIN: Duration = Duration::from_secs(20);
/// In-doubt ops older than this at the drain are resubmitted.
const RESUBMIT_AFTER: Duration = Duration::from_secs(2);
/// How long set-up may take.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);

fn shards() -> ShardMap {
    let mut map = ShardMap::new(KV_RINGS);
    for p in 0..KV_PARTITIONS {
        map.assign(&format!("kv.{p}"), RingIdx::new(p % KV_RINGS));
    }
    for r in 0..KV_RINGS {
        map.assign(&format!("probe.{r}"), RingIdx::new(r));
    }
    map
}

/// Bit of partition group `kv.N`.
fn part_bit(group: &str) -> u8 {
    group
        .strip_prefix("kv.")
        .and_then(|n| n.parse::<u8>().ok())
        .map_or(0, |n| 1 << n)
}

struct Deploy {
    daemons: Vec<MultiRingDaemon>,
    shareds: Vec<Arc<KvShared>>,
    stores: Vec<KvStore>,
    applied: Vec<Receiver<KvApplied>>,
    /// One in-process client per daemon, joined to the per-ring probe
    /// groups; kept to count configuration changes.
    probes: Vec<MultiRingClient>,
    session: SessionClient,
    /// Sequence of the set-up probe op; load ops follow it.
    probe_seq: u64,
}

fn setup(times: &mut SetupTimes) -> Result<Deploy, String> {
    let t0 = Instant::now();
    let deadline = t0 + SETUP_TIMEOUT;
    let rings = spawn_local_multiring_on(
        Transport::Udp,
        KV_RINGS,
        NODES as u16,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    )
    .map_err(|e| format!("spawn rings: {e}"))?;
    let mut columns: Vec<Vec<_>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in rings {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let shareds: Vec<Arc<KvShared>> = (0..NODES).map(|_| KvShared::new(KV_PARTITIONS)).collect();
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .zip(&shareds)
        .map(|(nodes, shared)| {
            MultiRingDaemon::start_with(
                nodes,
                shards(),
                MultiRingOptions {
                    frontend: FrontendOptions::enabled(),
                    app_state: Some(shared.clone()),
                    ..MultiRingOptions::default()
                },
            )
        })
        .collect();

    // Ring probe: the last join of each ring's probe group is an ordered
    // op; its 3-member view at every daemon means both rings deliver.
    let probes: Vec<MultiRingClient> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let c = d
                .connect(&format!("probe-{i}"))
                .map_err(|e| format!("probe connect: {e}"))?;
            for r in 0..KV_RINGS {
                c.join(&format!("probe.{r}"))
                    .map_err(|e| format!("probe join: {e}"))?;
            }
            Ok(c)
        })
        .collect::<Result<_, String>>()?;
    for c in &probes {
        let mut full = [false; KV_RINGS as usize];
        while !full.iter().all(|&f| f) {
            let wait = deadline.saturating_duration_since(Instant::now());
            match c.events().recv_timeout(wait) {
                Ok(ClientEvent::View { group, members }) => {
                    if let Some(r) = group.strip_prefix("probe.").and_then(|r| r.parse().ok()) {
                        let r: usize = r;
                        full[r] = members.len() == NODES;
                    }
                }
                Ok(_) => {}
                Err(_) => return Err("the rings never delivered the probe views".into()),
            }
        }
    }
    times.form_ms.push(t0.elapsed().as_secs_f64() * 1e3);

    let mut applied = Vec::new();
    let mut stores = Vec::new();
    for (i, d) in daemons.iter().enumerate() {
        let (tx, rx) = unbounded();
        applied.push(rx);
        stores.push(
            KvStore::start(
                d,
                shareds[i].clone(),
                KvConfig {
                    partitions: KV_PARTITIONS,
                    name: format!("replica-{i}"),
                    applied: Some(tx),
                    ..KvConfig::default()
                },
            )
            .map_err(|e| format!("replica start: {e}"))?,
        );
    }
    while !shareds.iter().all(|s| s.serving()) {
        if Instant::now() >= deadline {
            return Err("replicas never all started serving".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let addr = daemons[0].session_addr().expect("session socket enabled");
    let mut session =
        SessionClient::connect(addr, "load").map_err(|e| format!("session connect: {e}"))?;

    // Service probe: one put applied at every replica.
    let op = KvOp::Write {
        writes: vec![KvWrite::Put {
            key: "probe".into(),
            value: Bytes::from_static(b"probe"),
        }],
    };
    let group = partition_of("probe", KV_PARTITIONS);
    let payload = encode_op(&op);
    let probe_seq = session
        .multicast_sequenced(&[&group], payload.clone(), Service::Agreed)
        .map_err(|e| format!("probe submit: {e}"))?;
    let mut seen = [false; NODES];
    let mut resend = Instant::now() + Duration::from_secs(1);
    while !seen.iter().all(|&s| s) {
        let now = Instant::now();
        if now >= deadline {
            return Err("the probe op was never applied at every replica".into());
        }
        if now >= resend {
            let _ = session.resubmit(probe_seq, &[&group], payload.clone(), Service::Agreed);
            resend = now + Duration::from_secs(1);
        }
        for (i, rx) in applied.iter().enumerate() {
            if let Ok(rec) = rx.recv_timeout(Duration::from_millis(1)) {
                seen[i] |= rec.client == "load" && rec.seq == probe_seq;
            }
        }
    }
    times.setup_s.push(t0.elapsed().as_secs_f64());
    Ok(Deploy {
        daemons,
        shareds,
        stores,
        applied,
        probes,
        session,
        probe_seq,
    })
}

fn teardown(d: Deploy) {
    d.session.bye();
    for s in d.stores {
        s.shutdown();
    }
    for p in d.probes {
        p.disconnect();
    }
    for daemon in d.daemons {
        daemon.shutdown();
    }
}

/// One submitted op.
struct OpRec {
    due: Instant,
    phase: usize,
    txn: bool,
    groups: Vec<String>,
    parts: u8,
    payload: Bytes,
    /// Applies seen at each replica.
    applies: [u8; NODES],
    done: bool,
    /// Traced: partitions delivered at each watcher, and when the
    /// watcher had them all.
    covered: [u8; NODES],
    delivered: [Option<Instant>; NODES],
}

/// State the generator and the collector share.
struct Book {
    /// `ops[i]` has sequence `base + i`.
    base: u64,
    ops: Vec<OpRec>,
    loads: Vec<PhaseLoad>,
    violations: Vec<String>,
}

impl Book {
    fn op(&mut self, seq: u64) -> Option<&mut OpRec> {
        let i = seq.checked_sub(self.base)?;
        self.ops.get_mut(usize::try_from(i).ok()?)
    }

    fn on_apply(&mut self, replica: usize, rec: &KvApplied, now: Instant, plan: &Plan) {
        if rec.client != "load" || rec.seq < self.base {
            return;
        }
        let Some(op) = self.op(rec.seq) else {
            let seq = rec.seq;
            violation(
                &mut self.violations,
                format!("replica {replica} applied unknown seq {seq}"),
            );
            return;
        };
        op.applies[replica] += 1;
        if op.applies[replica] > 1 {
            let seq = rec.seq;
            violation(
                &mut self.violations,
                format!("replica {replica} applied seq {seq} twice"),
            );
            return;
        }
        if op.done || op.applies.contains(&0) {
            return;
        }
        op.done = true;
        let (phase, txn) = (op.phase, op.txn);
        let lat = now.duration_since(op.due).as_nanos() as u64;
        let last_delivery = op.delivered.iter().copied().collect::<Option<Vec<_>>>();
        let load = complete(&mut self.loads, plan, phase, now, lat);
        if txn {
            load.txn_lat_ns.push(lat);
        }
        if let (true, Some(ts)) = (plan.is_traced(phase), last_delivery) {
            let last = ts.into_iter().max().expect("three watchers");
            load.apply_ns
                .push(now.saturating_duration_since(last).as_nanos() as u64);
        }
    }

    fn on_deliver(
        &mut self,
        watcher: usize,
        seq: u64,
        groups: &[String],
        now: Instant,
        plan: &Plan,
    ) {
        let Some(op) = self.op(seq) else { return };
        if op.delivered[watcher].is_some() {
            return;
        }
        op.covered[watcher] |= groups.iter().map(|g| part_bit(g)).fold(0, |a, b| a | b);
        if op.covered[watcher] & op.parts != op.parts {
            return;
        }
        op.delivered[watcher] = Some(now);
        if !plan.is_traced(op.phase) || op.delivered.iter().any(Option::is_none) {
            return;
        }
        let ns = now.duration_since(op.due).as_nanos() as u64;
        let (phase, txn) = (op.phase, op.txn);
        let load = &mut self.loads[phase];
        if txn {
            load.txn_deliver_ns.push(ns);
        } else {
            load.deliver_ns.push(ns);
        }
    }

    fn incomplete(&self) -> impl Iterator<Item = (u64, &OpRec)> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| !op.done)
            .map(|(i, op)| (self.base + i as u64, op))
    }
}

/// The open-loop generator: one op per [`GAP`] from a schedule of due
/// times, then the drain with in-doubt resubmits. Returns how many ops
/// it resubmitted.
fn generate(session: &mut SessionClient, book: &Mutex<Book>, plan: &Plan, seed: u64) -> u64 {
    let mut ops = KvOps::new(seed);
    for i in 0u32.. {
        let due = plan.start + GAP * i;
        let Some(phase) = plan.phase_at(due) else {
            break;
        };
        let input = ops.next().expect("the op sequence is endless");
        let payload = encode_op(&input.op);
        let groups: Vec<String> = involved_partitions(&input.op, KV_PARTITIONS)
            .into_iter()
            .collect();
        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        sleep_until(due);
        let sent = Instant::now();
        {
            let mut b = book.lock().expect("book lock");
            let load = &mut b.loads[phase];
            load.attempted += 1;
            load.late_max_ns = load
                .late_max_ns
                .max(sent.duration_since(due).as_nanos() as u64);
            // Registered before the send, so the collector never sees an
            // apply it cannot place.
            b.ops.push(OpRec {
                due,
                phase,
                txn: input.txn,
                parts: groups.iter().map(|g| part_bit(g)).fold(0, |a, b| a | b),
                groups: groups.clone(),
                payload: payload.clone(),
                applies: [0; NODES],
                done: false,
                covered: [0; NODES],
                delivered: [None; NODES],
            });
        }
        let t0 = Instant::now();
        let r = session.multicast_sequenced(&refs, payload, Service::Agreed);
        let took = t0.elapsed().as_nanos() as u64;
        let mut b = book.lock().expect("book lock");
        if plan.is_traced(phase) {
            b.loads[phase].client_send_ns.push(took);
        }
        if let Err(e) = r {
            violation(&mut b.violations, format!("session submit failed: {e}"));
        }
    }

    // Drain: resubmit ops still in doubt after RESUBMIT_AFTER, until
    // everything completed or the deadline passed.
    let deadline = plan.end() + DRAIN;
    let mut resubmitted = 0;
    let mut next_resubmit = plan.end() + RESUBMIT_AFTER;
    loop {
        let now = Instant::now();
        let retry: Vec<(u64, Vec<String>, Bytes)> = {
            let b = book.lock().expect("book lock");
            if b.incomplete().next().is_none() || now >= deadline {
                break;
            }
            if now < next_resubmit {
                Vec::new()
            } else {
                b.incomplete()
                    .filter(|(_, op)| now.duration_since(op.due) >= RESUBMIT_AFTER)
                    .map(|(seq, op)| (seq, op.groups.clone(), op.payload.clone()))
                    .collect()
            }
        };
        if now >= next_resubmit {
            next_resubmit = now + RESUBMIT_AFTER;
        }
        for (seq, groups, payload) in retry {
            let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
            if session
                .resubmit(seq, &refs, payload, Service::Agreed)
                .is_ok()
            {
                resubmitted += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    resubmitted
}

/// The collector: timestamps every replica apply and, once watchers
/// arrive for the traced half, every merged delivery.
fn collect(
    applied: &[Receiver<KvApplied>],
    watchers_rx: &Receiver<Vec<MultiRingClient>>,
    book: &Mutex<Book>,
    plan: &Plan,
    stop: &AtomicBool,
) -> Vec<MultiRingClient> {
    let mut watchers: Vec<MultiRingClient> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        if let Ok(w) = watchers_rx.try_recv() {
            watchers = w;
        }
        let mut sel = Select::new();
        for rx in applied {
            sel.recv(rx);
        }
        for w in &watchers {
            sel.recv(w.events());
        }
        let _ = sel.ready_timeout(Duration::from_millis(20));
        let now = Instant::now();
        let mut b = book.lock().expect("book lock");
        for (r, rx) in applied.iter().enumerate() {
            while let Ok(rec) = rx.try_recv() {
                b.on_apply(r, &rec, now, plan);
            }
        }
        for (w, client) in watchers.iter().enumerate() {
            while let Ok(ev) = client.events().try_recv() {
                if let ClientEvent::Message {
                    sender,
                    seq,
                    groups,
                    ..
                } = ev
                {
                    if sender.name == "load" {
                        b.on_deliver(w, seq, &groups, now, plan);
                    }
                }
            }
        }
    }
    watchers
}

/// Waits until every replica holds the same position for a moment,
/// then compares state hashes.
fn converge(shareds: &[Arc<KvShared>]) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        let p: Vec<u64> = shareds.iter().map(|s| s.position()).collect();
        if p.iter().all(|&x| x == p[0]) {
            std::thread::sleep(Duration::from_millis(200));
            let q: Vec<u64> = shareds.iter().map(|s| s.position()).collect();
            if q == p {
                let h: Vec<u64> = shareds.iter().map(|s| s.state_hash()).collect();
                if h.iter().all(|&x| x == h[0]) {
                    return Ok(());
                }
                return Err(format!("replica state hashes differ: {h:x?}"));
            }
        } else {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    Err("replica positions never converged".into())
}

fn snap(
    daemons: &[MultiRingDaemon],
    shareds: &[Arc<KvShared>],
    probes: &[MultiRingClient],
    reforms: &mut u64,
) -> Snap {
    *reforms += regular_configs(probes.iter().map(MultiRingClient::events));
    Snap {
        transport: daemons
            .iter()
            .flat_map(MultiRingDaemon::transport_stats)
            .collect(),
        frontend: daemons
            .iter()
            .map(MultiRingDaemon::frontend_stats)
            .collect(),
        kv_txns_expired: shareds.iter().map(|s| s.stats().txns_expired).sum(),
        reforms: *reforms,
        ..Snap::cpu_only()
    }
}

/// Connects one in-process watcher per daemon, joined to every
/// partition group.
fn connect_watchers(daemons: &[MultiRingDaemon]) -> Vec<MultiRingClient> {
    daemons
        .iter()
        .enumerate()
        .filter_map(|(i, d)| {
            let c = d.connect(&format!("watch-{i}")).ok()?;
            for p in 0..KV_PARTITIONS {
                c.join(&format!("kv.{p}")).ok()?;
            }
            Some(c)
        })
        .collect()
}

/// Runs the `kv` workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let (d, setup) = repeated_setup(setup, teardown)?;
    let Deploy {
        daemons,
        shareds,
        stores,
        applied,
        probes,
        mut session,
        probe_seq,
    } = d;
    let plan = Plan::new(cfg);
    let book = Mutex::new(Book {
        base: probe_seq + 1,
        ops: Vec::new(),
        loads: (0..plan.phases()).map(|_| PhaseLoad::default()).collect(),
        violations: Vec::new(),
    });
    let stop = AtomicBool::new(false);
    let (watch_tx, watch_rx) = unbounded::<Vec<MultiRingClient>>();
    let mut reforms = 0u64;
    let (resubmitted, watchers, snaps) = std::thread::scope(|s| {
        let gen = std::thread::Builder::new()
            .name("gen-kv".into())
            .spawn_scoped(s, || generate(&mut session, &book, &plan, cfg.seed))
            .expect("spawn generator");
        let col = std::thread::Builder::new()
            .name("gen-kv-apply".into())
            .spawn_scoped(s, || collect(&applied, &watch_rx, &book, &plan, &stop))
            .expect("spawn collector");
        let mut snaps = Vec::new();
        for (k, &bound) in plan.bounds.iter().enumerate() {
            sleep_until(bound);
            snaps.push(snap(&daemons, &shareds, &probes, &mut reforms));
            if plan.is_traced(k + 1) {
                // In-process watchers exist only for the traced half.
                let _ = watch_tx.send(connect_watchers(&daemons));
            }
        }
        let resubmitted = gen.join().expect("generator thread");
        stop.store(true, Ordering::Release);
        let watchers = col.join().expect("collector thread");
        (resubmitted, watchers, snaps)
    });
    let mut book = book.into_inner().expect("book lock");
    let lost = book.incomplete().count();
    if lost > 0 {
        book.violations
            .push(format!("{lost} ops never applied at every replica"));
    }
    if let Err(e) = converge(&shareds) {
        book.violations.push(e);
    }
    for w in watchers {
        w.disconnect();
    }
    teardown(Deploy {
        daemons,
        shareds,
        stores,
        applied,
        probes,
        session,
        probe_seq,
    });
    Ok(assemble(Measured {
        plan: &plan,
        loads: book.loads,
        snaps,
        setup,
        host: FrontendHost::Multiring,
        violations: book.violations,
        kv_resubmitted: resubmitted,
    }))
}
