//! `flood` and `flood_shm`: one 3-daemon ring driven closed-loop
//! through `NodeHandle::submit`.
//!
//! Why: this is the paper's saturated ring. The transport layer, with
//! the `core` protocol and `membership` on each node thread, does
//! almost all the work; `daemon`, `multiring` and `kv` are absent. It
//! shows batching, syscall, flow-control and ordering changes, and a
//! change that helps idle rings at the cost of throughput. `flood_shm`
//! runs the same load over `Transport::Shm`: with syscalls gone the
//! ordering protocol is the bottleneck, so a protocol gain that UDP
//! masks shows there.
//!
//! One generator thread keeps [`IN_FLIGHT`] 1350-byte Agreed messages
//! outstanding per daemon and drains every daemon's events. An op
//! completes when the last member delivers it. Gate: every member
//! delivers the same (sender, counter) sequence with no gaps, and every
//! payload arrives intact.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, Service};
use accelring_membership::MembershipConfig;
use accelring_transport::{spawn_local_ring_on, AppEvent, NodeHandle, SubmitError, Transport};
use bytes::Bytes;
use crossbeam::channel::Select;

use crate::common::{
    assemble, complete, repeated_setup, snap_boundaries, violation, Cfg, FrontendHost, Measured,
    Outcome, PhaseLoad, Plan, SetupTimes, Snap,
};
use crate::inputs::{flood_message, flood_template, FLOOD_PAYLOAD};

/// Daemons in the ring.
const NODES: usize = 3;
/// Messages kept in flight per daemon.
const IN_FLIGHT: usize = 50;
/// How long in-flight messages may take to complete after load stops.
const DRAIN: Duration = Duration::from_secs(10);
/// How long the ring may take to deliver the set-up probe everywhere.
const FORM_TIMEOUT: Duration = Duration::from_secs(20);

/// Spawns the ring and waits until a probe message submitted at daemon
/// 0 is delivered at every member.
fn setup(transport: Transport, times: &mut SetupTimes) -> Result<Vec<NodeHandle>, String> {
    let t0 = Instant::now();
    let nodes = spawn_local_ring_on(
        transport,
        NODES as u16,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        None,
    )
    .map_err(|e| format!("spawn ring: {e}"))?;
    let probe = Bytes::from_static(b"probe");
    let deadline = t0 + FORM_TIMEOUT;
    let mut seen = [false; NODES];
    let mut next_submit = t0;
    while !seen.iter().all(|&s| s) {
        let now = Instant::now();
        if now >= deadline {
            return Err("the ring never delivered the probe at every member".into());
        }
        // The probe is resubmitted each second until it lands: a
        // message submitted before the first ring installs may be lost.
        if now >= next_submit {
            let _ = nodes[0].submit(probe.clone(), Service::Agreed);
            next_submit = now + Duration::from_secs(1);
        }
        for (i, n) in nodes.iter().enumerate() {
            if let Ok(AppEvent::Delivered(d)) = n.events().recv_timeout(Duration::from_millis(5)) {
                seen[i] |= d.payload == probe;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    times.setup_s.push(secs);
    times.form_ms.push(secs * 1e3);
    // Drain what the probe left behind (duplicates, configurations).
    std::thread::sleep(Duration::from_millis(50));
    for n in &nodes {
        while n.events().try_recv().is_ok() {}
    }
    Ok(nodes)
}

fn teardown(nodes: Vec<NodeHandle>) {
    for n in nodes {
        n.shutdown();
    }
}

/// One submitted message awaiting delivery at every member.
struct Pending {
    sent: Instant,
    phase: usize,
    seen: u8,
}

/// What the generator hands back.
struct GenResult {
    loads: Vec<PhaseLoad>,
    violations: Vec<String>,
}

/// The closed-loop generator: top up every daemon to [`IN_FLIGHT`],
/// wait for events, check and account every delivery.
fn generate(nodes: &[NodeHandle], plan: &Plan, seed: u64) -> GenResult {
    let templates: Vec<Vec<u8>> = (0..NODES as u16).map(|s| flood_template(seed, s)).collect();
    let mut loads: Vec<PhaseLoad> = (0..plan.phases()).map(|_| PhaseLoad::default()).collect();
    let mut violations: Vec<String> = Vec::new();
    // pending[s]: sender s's in-flight messages; front has counter
    // first_pending[s].
    let mut pending: Vec<VecDeque<Pending>> = (0..NODES).map(|_| VecDeque::new()).collect();
    let mut first_pending = [1u64; NODES];
    let mut next_counter = [1u64; NODES];
    // expect[m][s]: the next counter member m must deliver from s.
    let mut expect = [[1u64; NODES]; NODES];
    let mut order_hash = [0u64; NODES];
    let mut delivered = [0u64; NODES];
    let drain_deadline = plan.end() + DRAIN;

    loop {
        let now = Instant::now();
        match plan.phase_at(now) {
            Some(phase) => {
                let traced = plan.is_traced(phase);
                for (s, node) in nodes.iter().enumerate() {
                    while pending[s].len() < IN_FLIGHT {
                        let counter = next_counter[s];
                        let msg = flood_message(&templates[s], counter);
                        let t0 = Instant::now();
                        let r = node.submit(msg, Service::Agreed);
                        let load = &mut loads[phase];
                        if traced {
                            load.submit_ns.push(t0.elapsed().as_nanos() as u64);
                        }
                        load.submit_calls += 1;
                        match r {
                            Ok(()) => {
                                load.attempted += 1;
                                next_counter[s] += 1;
                                pending[s].push_back(Pending {
                                    sent: t0,
                                    phase,
                                    seen: 0,
                                });
                            }
                            Err(SubmitError::Backlogged) => {
                                load.backlogged += 1;
                                break;
                            }
                            Err(SubmitError::Stopped) => {
                                violation(&mut violations, format!("daemon {s} stopped"));
                                return GenResult { loads, violations };
                            }
                        }
                    }
                }
            }
            None => {
                if pending.iter().all(VecDeque::is_empty) || now >= drain_deadline {
                    break;
                }
            }
        }

        let mut sel = Select::new();
        for n in nodes {
            sel.recv(n.events());
        }
        let _ = sel.ready_timeout(Duration::from_millis(20));
        for (m, node) in nodes.iter().enumerate() {
            while let Ok(ev) = node.events().try_recv() {
                let d = match ev {
                    AppEvent::Delivered(d) => d,
                    AppEvent::Config(_) => continue,
                    AppEvent::Fault { reason } => {
                        violation(&mut violations, format!("daemon {m} faulted: {reason}"));
                        continue;
                    }
                };
                if d.payload.len() != FLOOD_PAYLOAD {
                    continue; // a late set-up probe
                }
                let s = usize::from(d.sender.as_u16());
                let counter = u64::from_le_bytes(d.payload[..8].try_into().expect("8 bytes"));
                if s >= NODES || counter != expect[m][s] {
                    let wanted = expect[m].get(s).copied().unwrap_or(0);
                    violation(
                        &mut violations,
                        format!("member {m} delivered ({s}, {counter}), expected counter {wanted}"),
                    );
                    continue;
                }
                if d.payload[8..] != templates[s][8..] {
                    violation(
                        &mut violations,
                        format!("member {m}: payload of ({s}, {counter}) corrupt"),
                    );
                }
                expect[m][s] += 1;
                delivered[m] += 1;
                order_hash[m] = (order_hash[m] ^ ((s as u64) << 48 ^ counter))
                    .wrapping_mul(0x100_0000_01b3)
                    .rotate_left(17);
                let Some(p) = counter
                    .checked_sub(first_pending[s])
                    .and_then(|i| pending[s].get_mut(i as usize))
                else {
                    violation(
                        &mut violations,
                        format!("({s}, {counter}) delivered but never submitted"),
                    );
                    continue;
                };
                p.seen += 1;
                // Every member delivers a sender's messages in counter
                // order, so completions come in counter order too.
                let done = Instant::now();
                while pending[s].front().is_some_and(|p| p.seen as usize == NODES) {
                    let p = pending[s].pop_front().expect("front exists");
                    first_pending[s] += 1;
                    let ns = done.duration_since(p.sent).as_nanos() as u64;
                    complete(&mut loads, plan, p.phase, done, ns);
                }
            }
        }
    }

    if delivered.iter().any(|&d| d != delivered[0])
        || order_hash.iter().any(|&h| h != order_hash[0])
    {
        violation(
            &mut violations,
            format!("members disagree: delivered {delivered:?}, order hashes {order_hash:x?}"),
        );
    }
    let stuck: usize = pending.iter().map(VecDeque::len).sum();
    if stuck > 0 {
        violation(
            &mut violations,
            format!("{stuck} messages never delivered at every member"),
        );
    }
    GenResult { loads, violations }
}

/// Runs `flood` (UDP) or `flood_shm`.
pub fn run(cfg: &Cfg, transport: Transport) -> Result<Outcome, String> {
    let (nodes, setup) = repeated_setup(|t| self::setup(transport, t), teardown)?;
    let plan = Plan::new(cfg);
    let (gen, snaps) = std::thread::scope(|s| {
        let gen = std::thread::Builder::new()
            .name("gen-flood".into())
            .spawn_scoped(s, || generate(&nodes, &plan, cfg.seed))
            .expect("spawn generator");
        let snaps = snap_boundaries(&plan, || Snap {
            transport: nodes.iter().map(NodeHandle::stats).collect(),
            reforms: nodes.iter().map(NodeHandle::rings_formed).sum(),
            token_retransmits: nodes.iter().map(NodeHandle::tokens_retransmitted).sum(),
            ..Snap::cpu_only()
        });
        (gen.join().expect("generator thread"), snaps)
    });
    teardown(nodes);
    Ok(assemble(Measured {
        plan: &plan,
        loads: gen.loads,
        snaps,
        setup,
        host: FrontendHost::None,
        violations: gen.violations,
        kv_resubmitted: 0,
    }))
}
