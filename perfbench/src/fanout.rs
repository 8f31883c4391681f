//! `fanout`: one 3-daemon ring with a session socket on every daemon,
//! driven open-loop over raw session frames.
//!
//! Why: the session frontend's ingest, credits and fan-out egress, and
//! the engine's packing of small messages, do most of the work. `kv`
//! uses the same frontend with one session. Layers loaded: daemon
//! (frontend, engine, packing) and transport.
//!
//! [`SENDERS`] sender sessions on daemon 0 submit [`RATE`] messages/s
//! of 100 bytes to one group, each from a seeded sender; [`WATCHERS`]
//! watcher sessions spread over the 3 daemons are its members. All
//! sessions share the generator's 2 UDP sockets (senders on one,
//! watchers on the other), since the frontend routes by session id. An
//! op completes when the last watcher receives it, timed from its due
//! time. Gate: every submit reaches every watcher exactly once, and
//! every watcher sees the same order.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, Service};
use accelring_daemon::proto::{decode_event_body, decode_session_frame, encode_session_frame};
use accelring_daemon::{
    ClientEvent, DaemonOptions, FrontendOptions, GroupAction, GroupClient, GroupDaemon,
    SessionFrame,
};
use accelring_membership::MembershipConfig;
use accelring_transport::{spawn_local_ring_on, Transport};
use bytes::Bytes;

use crate::common::{
    assemble, complete, regular_configs, repeated_setup, sleep_until, snap_boundaries, Cfg,
    FrontendHost, Measured, Outcome, PhaseLoad, Plan, SetupTimes, Snap,
};
use crate::inputs::{fanout_index, FanoutOps, FANOUT_PAYLOAD};

/// Daemons in the ring.
const NODES: usize = 3;
/// Sender sessions, all on daemon 0.
const SENDERS: usize = 10_000;
/// Watcher sessions, round-robin over the daemons.
const WATCHERS: usize = 8;
/// Submits per second, all senders together.
const RATE: u64 = 2_000;
/// The group every submit targets; only watchers are members.
const GROUP: &str = "fanout";
/// Events a watcher consumes before granting them back as credits.
const CREDIT_CHUNK: u32 = 64;
/// HELLOs kept outstanding while handshaking.
const HELLO_WINDOW: usize = 256;
/// How long ops may take to complete after load stops.
const DRAIN: Duration = Duration::from_secs(10);
/// How long set-up may take.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Receive buffer asked for on the watcher socket. Credits bound how
/// far the daemons may send ahead of the receiver (256 events per
/// watcher session from the WELCOME grant), but all watchers share this
/// one socket. Unless its buffer holds the whole window, a receiver
/// stall drops events in the kernel, where no credit or shed counter
/// sees them.
const RECV_BUFFER: i32 = 4 << 20;

fn interval() -> Duration {
    Duration::from_nanos(1_000_000_000 / RATE)
}

/// Asks for a `bytes` receive buffer on `socket` and returns the size
/// the kernel granted (Linux doubles the request, then caps it at
/// `net.core.rmem_max`).
#[allow(unsafe_code)]
fn set_recv_buffer(socket: &UdpSocket, bytes: i32) -> i32 {
    use std::ffi::c_void;
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut c_void, len: *mut u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let fd = socket.as_raw_fd();
    let mut granted: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    // SAFETY: `fd` is an open socket borrowed from `socket` for the
    // duration of both calls, and each value pointer refers to a live
    // i32 local whose size is `len`.
    unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            len,
        );
        getsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            (&mut granted as *mut i32).cast(),
            &mut len,
        );
    }
    granted
}

fn send_frame(socket: &UdpSocket, to: SocketAddr, frame: &SessionFrame) {
    let _ = socket.send_to(&encode_session_frame(frame), to);
}

/// Opens one session per `(daemon, name)` over `socket`, keeping
/// [`HELLO_WINDOW`] HELLOs outstanding and resending unanswered ones.
/// Returns the session ids in input order.
fn handshake(
    socket: &UdpSocket,
    targets: &[(SocketAddr, String)],
    nonce_base: u64,
    deadline: Instant,
) -> Result<Vec<u64>, String> {
    let hello = |i: usize| SessionFrame::Hello {
        name: targets[i].1.clone(),
        resume_seq: 0,
        nonce: nonce_base + i as u64,
    };
    let mut ids: Vec<Option<u64>> = vec![None; targets.len()];
    let (mut sent, mut open) = (0usize, 0usize);
    let mut buf = vec![0u8; 65_536];
    while ids.iter().any(Option::is_none) {
        if Instant::now() >= deadline {
            return Err(format!(
                "{} of {} sessions never welcomed",
                ids.iter().filter(|i| i.is_none()).count(),
                targets.len()
            ));
        }
        while sent - open < HELLO_WINDOW && sent < targets.len() {
            send_frame(socket, targets[sent].0, &hello(sent));
            sent += 1;
        }
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                let mut bytes = Bytes::copy_from_slice(&buf[..len]);
                match decode_session_frame(&mut bytes) {
                    Ok(SessionFrame::Welcome { session, nonce, .. }) => {
                        let i = nonce.wrapping_sub(nonce_base) as usize;
                        if i < sent && ids[i].is_none() {
                            ids[i] = Some(session);
                            open += 1;
                        }
                    }
                    Ok(SessionFrame::Error { reason, .. }) => {
                        return Err(format!("a daemon refused a session: {reason}"));
                    }
                    _ => {}
                }
            }
            // Quiet for a read timeout: resend whatever is unanswered.
            Err(_) => {
                for (i, id) in ids.iter().enumerate().take(sent) {
                    if id.is_none() {
                        send_frame(socket, targets[i].0, &hello(i));
                    }
                }
            }
        }
    }
    Ok(ids.into_iter().map(|i| i.expect("all welcomed")).collect())
}

/// The watcher sessions on the receive socket: routing by
/// `(daemon, session)` and credit grants.
struct Watchers {
    route: HashMap<(SocketAddr, u64), usize>,
    daemons: Vec<SocketAddr>,
    ids: Vec<u64>,
    consumed: Vec<u32>,
    buf: Vec<u8>,
}

impl Watchers {
    /// Receives one datagram (or times out) and returns the watcher
    /// and event it carried, granting credits as events are consumed.
    fn recv(&mut self, socket: &UdpSocket) -> Option<(usize, ClientEvent)> {
        let (len, from) = socket.recv_from(&mut self.buf).ok()?;
        let mut bytes = Bytes::copy_from_slice(&self.buf[..len]);
        let Ok(SessionFrame::Event { session, mut body }) = decode_session_frame(&mut bytes) else {
            return None;
        };
        let &w = self.route.get(&(from, session))?;
        self.consumed[w] += 1;
        if self.consumed[w] >= CREDIT_CHUNK {
            send_frame(
                socket,
                self.daemons[w],
                &SessionFrame::Credit {
                    session: self.ids[w],
                    credits: self.consumed[w],
                },
            );
            self.consumed[w] = 0;
        }
        Some((w, decode_event_body(&mut body).ok()?))
    }
}

struct Deploy {
    daemons: Vec<GroupDaemon>,
    /// One in-process client per daemon; kept to count configuration
    /// changes.
    probes: Vec<GroupClient>,
    send_socket: UdpSocket,
    recv_socket: UdpSocket,
    daemon0: SocketAddr,
    senders: Vec<u64>,
    watchers: Watchers,
}

fn setup(times: &mut SetupTimes) -> Result<Deploy, String> {
    let t0 = Instant::now();
    let deadline = t0 + SETUP_TIMEOUT;
    let nodes = spawn_local_ring_on(
        Transport::Udp,
        NODES as u16,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        None,
    )
    .map_err(|e| format!("spawn ring: {e}"))?;
    let daemons: Vec<GroupDaemon> = nodes
        .into_iter()
        .map(|n| {
            GroupDaemon::start_with(
                n,
                DaemonOptions {
                    frontend: FrontendOptions::enabled(),
                    ..DaemonOptions::default()
                },
            )
        })
        .collect();

    // Ring probe: the last join of the probe group is an ordered op;
    // its 3-member view at every daemon means the ring delivers.
    let probes: Vec<GroupClient> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let c = d
                .connect(&format!("probe-{i}"))
                .map_err(|e| format!("probe connect: {e}"))?;
            c.join("probe").map_err(|e| format!("probe join: {e}"))?;
            Ok(c)
        })
        .collect::<Result<_, String>>()?;
    for c in &probes {
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match c.events().recv_timeout(wait) {
                Ok(ClientEvent::View { group, members })
                    if group == "probe" && members.len() == NODES =>
                {
                    break
                }
                Ok(_) => {}
                Err(_) => return Err("the ring never delivered the probe view".into()),
            }
        }
    }
    times.form_ms.push(t0.elapsed().as_secs_f64() * 1e3);

    let addrs: Vec<SocketAddr> = daemons
        .iter()
        .map(|d| d.session_addr().expect("session socket enabled"))
        .collect();
    let bind = || -> Result<UdpSocket, String> {
        let s = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("client bind: {e}"))?;
        s.set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("client socket: {e}"))?;
        Ok(s)
    };
    let (send_socket, recv_socket) = (bind()?, bind()?);
    let granted = set_recv_buffer(&recv_socket, RECV_BUFFER);
    if granted < RECV_BUFFER {
        eprintln!(
            "perfbench: fanout: the watcher socket got a {granted}-byte receive buffer, \
             below the {RECV_BUFFER} asked for; events may drop in the kernel"
        );
    }
    let watcher_targets: Vec<(SocketAddr, String)> = (0..WATCHERS)
        .map(|w| (addrs[w % NODES], format!("w{w}")))
        .collect();
    let watcher_ids = handshake(&recv_socket, &watcher_targets, 0x5a7c_0000_0000, deadline)?;
    let sender_targets: Vec<(SocketAddr, String)> =
        (0..SENDERS).map(|i| (addrs[0], format!("s{i}"))).collect();
    let senders = handshake(&send_socket, &sender_targets, 0x5e4d_0000_0000, deadline)?;
    let mut watchers = Watchers {
        route: watcher_targets
            .iter()
            .zip(&watcher_ids)
            .enumerate()
            .map(|(w, ((addr, _), &id))| ((*addr, id), w))
            .collect(),
        daemons: watcher_targets.iter().map(|(a, _)| *a).collect(),
        ids: watcher_ids,
        consumed: vec![0; WATCHERS],
        buf: vec![0u8; 65_536],
    };

    // Watchers join; wait until each sees the full view.
    let join = |w: usize, watchers: &Watchers| {
        send_frame(
            &recv_socket,
            watchers.daemons[w],
            &SessionFrame::Submit {
                session: watchers.ids[w],
                seq: 0,
                service: Service::Agreed,
                action: GroupAction::Join {
                    group: GROUP.into(),
                },
            },
        );
    };
    for w in 0..WATCHERS {
        join(w, &watchers);
    }
    let mut full = [false; WATCHERS];
    while !full.iter().all(|&f| f) {
        if Instant::now() >= deadline {
            return Err("watchers never saw the full view".into());
        }
        if let Some((w, ClientEvent::View { group, members })) = watchers.recv(&recv_socket) {
            full[w] |= group == GROUP && members.len() == WATCHERS;
        }
    }

    // Service probe: one message from a sender at every watcher.
    let probe = SessionFrame::Submit {
        session: senders[0],
        seq: 0,
        service: Service::Agreed,
        action: GroupAction::Data {
            groups: vec![GROUP.into()],
            payload: Bytes::from_static(b"probe"),
        },
    };
    send_frame(&send_socket, addrs[0], &probe);
    let mut seen = [false; WATCHERS];
    let mut resend = Instant::now() + Duration::from_secs(1);
    while !seen.iter().all(|&s| s) {
        let now = Instant::now();
        if now >= deadline {
            return Err("the probe message never reached every watcher".into());
        }
        if now >= resend {
            send_frame(&send_socket, addrs[0], &probe);
            resend = now + Duration::from_secs(1);
        }
        if let Some((w, ClientEvent::Message { payload, .. })) = watchers.recv(&recv_socket) {
            seen[w] |= &payload[..] == b"probe";
        }
    }
    times.setup_s.push(t0.elapsed().as_secs_f64());
    // Late probe duplicates must not reach the measured window.
    while watchers.recv(&recv_socket).is_some() {}
    Ok(Deploy {
        daemons,
        probes,
        send_socket,
        recv_socket,
        daemon0: addrs[0],
        senders,
        watchers,
    })
}

fn teardown(d: Deploy) {
    for p in d.probes {
        p.disconnect();
    }
    for daemon in d.daemons {
        daemon.shutdown();
    }
}

/// The open-loop sender: one submit per [`interval`] from a schedule of
/// due times, from the seeded sender session.
fn send(
    socket: &UdpSocket,
    daemon: SocketAddr,
    senders: &[u64],
    plan: &Plan,
    n_ops: usize,
    seed: u64,
) -> Vec<PhaseLoad> {
    let mut loads: Vec<PhaseLoad> = (0..plan.phases()).map(|_| PhaseLoad::default()).collect();
    for (i, input) in FanoutOps::new(seed, SENDERS).take(n_ops).enumerate() {
        let due = plan.start + interval() * i as u32;
        let phase = plan.phase_at(due).expect("n_ops ops fall inside the plan");
        let frame = encode_session_frame(&SessionFrame::Submit {
            session: senders[input.sender],
            seq: 0,
            service: Service::Agreed,
            action: GroupAction::Data {
                groups: vec![GROUP.into()],
                payload: input.payload,
            },
        });
        sleep_until(due);
        let t0 = Instant::now();
        let r = socket.send_to(&frame, daemon);
        let load = &mut loads[phase];
        if plan.is_traced(phase) {
            load.client_send_ns.push(t0.elapsed().as_nanos() as u64);
        }
        load.late_max_ns = load
            .late_max_ns
            .max(t0.duration_since(due).as_nanos() as u64);
        if r.is_ok() {
            load.attempted += 1;
        }
    }
    loads
}

/// What the receiver hands back.
struct Received {
    loads: Vec<PhaseLoad>,
    violations: Vec<String>,
}

/// The receiver: every watcher event, timestamped on arrival.
fn receive(
    socket: &UdpSocket,
    watchers: &mut Watchers,
    plan: &Plan,
    n_ops: usize,
    sending: &AtomicBool,
) -> Received {
    let mut loads: Vec<PhaseLoad> = (0..plan.phases()).map(|_| PhaseLoad::default()).collect();
    // Per watcher, the op indices in arrival order.
    let mut orders: Vec<Vec<u32>> = (0..WATCHERS).map(|_| Vec::with_capacity(n_ops)).collect();
    let mut count = vec![0u8; n_ops];
    let mut done_ops = 0usize;
    let mut violations = Vec::new();
    let drain_deadline = plan.end() + DRAIN;
    while done_ops < n_ops && (sending.load(Ordering::Acquire) || Instant::now() < drain_deadline) {
        let Some((w, ClientEvent::Message { payload, .. })) = watchers.recv(socket) else {
            continue;
        };
        let now = Instant::now();
        let Some(i) = fanout_index(&payload)
            .filter(|&i| payload.len() == FANOUT_PAYLOAD && (i as usize) < n_ops)
            .map(|i| i as usize)
        else {
            continue; // a late set-up probe
        };
        orders[w].push(i as u32);
        count[i] += 1;
        if usize::from(count[i]) == WATCHERS {
            done_ops += 1;
            let due = plan.start + interval() * i as u32;
            let phase = plan.phase_at(due).expect("op inside the plan");
            complete(
                &mut loads,
                plan,
                phase,
                now,
                now.duration_since(due).as_nanos() as u64,
            );
        }
    }
    let doubled = count.iter().filter(|&&c| usize::from(c) > WATCHERS).count();
    if doubled > 0 {
        violations.push(format!("{doubled} messages reached some watcher twice"));
    }
    if done_ops < n_ops {
        violations.push(format!(
            "{} of {n_ops} messages never reached every watcher",
            n_ops - done_ops
        ));
    }
    if orders.iter().any(|o| o != &orders[0]) {
        violations.push("watchers saw different orders".into());
    }
    Received { loads, violations }
}

/// Runs the `fanout` workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let (mut d, setup) = repeated_setup(setup, teardown)?;
    let plan = Plan::new(cfg);
    let n_ops = ((plan.end() - plan.start).as_nanos() / interval().as_nanos()) as usize;
    let sending = AtomicBool::new(true);
    let (plan, sending) = (&plan, &sending);
    let mut reforms = 0u64;
    let (sent, got, snaps) = std::thread::scope(|s| {
        let (socket, daemon0, senders) = (&d.send_socket, d.daemon0, &d.senders);
        let tx = std::thread::Builder::new()
            .name("gen-fanout".into())
            .spawn_scoped(s, move || {
                let loads = send(socket, daemon0, senders, plan, n_ops, cfg.seed);
                sending.store(false, Ordering::Release);
                loads
            })
            .expect("spawn sender");
        let (rsock, watchers) = (&d.recv_socket, &mut d.watchers);
        let rx = std::thread::Builder::new()
            .name("gen-fanout-recv".into())
            .spawn_scoped(s, || receive(rsock, watchers, plan, n_ops, sending))
            .expect("spawn receiver");
        let (daemons, probes) = (&d.daemons, &d.probes);
        let snaps = snap_boundaries(plan, || {
            reforms += regular_configs(probes.iter().map(GroupClient::events));
            Snap {
                transport: daemons.iter().map(GroupDaemon::transport_stats).collect(),
                frontend: daemons.iter().map(GroupDaemon::frontend_stats).collect(),
                reforms,
                ..Snap::cpu_only()
            }
        });
        (
            tx.join().expect("sender thread"),
            rx.join().expect("receiver thread"),
            snaps,
        )
    });
    teardown(d);
    let loads: Vec<PhaseLoad> = sent
        .into_iter()
        .zip(got.loads)
        .map(|(s, r)| PhaseLoad {
            lat_ns: r.lat_ns,
            done_in: r.done_in,
            ..s
        })
        .collect();
    Ok(assemble(Measured {
        plan,
        loads,
        snaps,
        setup,
        host: FrontendHost::Daemon,
        violations: got.violations,
        kv_resubmitted: 0,
    }))
}
