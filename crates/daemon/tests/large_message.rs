//! One 8 MiB message through a daemon whose ring queue fills up: with a
//! 1 KiB fragment budget the message becomes more fragments than a
//! node's bounded command queue holds, so the daemon must queue the
//! refused fragments and replay them in order instead of dropping them.
//! Covered on both daemons, which share the reactor's backlog path: a
//! three-daemon `GroupDaemon` ring, and three `MultiRingDaemon`s over two
//! rings with the target group on ring 1.
//!
//! The tests serialize themselves through a file-local mutex: real
//! sockets, real timers, and concurrent rings skew each other's clocks.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::{ClientEvent, DaemonOptions, EngineOptions, GroupDaemon};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{spawn_local_multiring, spawn_local_ring};
use bytes::Bytes;
use crossbeam::channel::Receiver;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const MESSAGE_LEN: usize = 8 << 20;
const DEADLINE: Duration = Duration::from_secs(30);

fn engine_options() -> EngineOptions {
    EngineOptions {
        fragment_budget: 1024,
        ..EngineOptions::default()
    }
}

fn big_payload() -> Bytes {
    (0..MESSAGE_LEN)
        .map(|i| (i.wrapping_mul(31) % 251) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Waits until `events` carries a view of `group` with `n` members.
fn await_view(events: &Receiver<ClientEvent>, group: &str, n: usize) {
    let start = Instant::now();
    while start.elapsed() < DEADLINE {
        if let Ok(ClientEvent::View { group: g, members }) =
            events.recv_timeout(Duration::from_millis(50))
        {
            if g == group && members.len() == n {
                return;
            }
        }
    }
    panic!("no {n}-member view of {group} within {DEADLINE:?}");
}

/// Waits for the one message on `events` and checks it arrived intact.
fn await_intact(events: &Receiver<ClientEvent>, want: &Bytes) {
    let start = Instant::now();
    while start.elapsed() < DEADLINE {
        match events.recv_timeout(Duration::from_millis(50)) {
            Ok(ClientEvent::Message { payload, .. }) => {
                assert_eq!(payload.len(), want.len(), "message length");
                assert!(payload == *want, "message content differs");
                return;
            }
            Ok(ClientEvent::Disconnected { reason }) => panic!("disconnected: {reason}"),
            Ok(_) | Err(_) => {}
        }
    }
    panic!("8 MiB message not delivered within {DEADLINE:?}");
}

#[test]
fn group_daemon_delivers_a_message_larger_than_the_ring_queue() {
    let _guard = serial();
    let nodes = spawn_local_ring(
        3,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
    )
    .expect("ring stands up");
    let options = DaemonOptions {
        engine: engine_options(),
        ..DaemonOptions::default()
    };
    let daemons: Vec<GroupDaemon> = nodes
        .into_iter()
        .map(|n| GroupDaemon::start_with(n, options))
        .collect();
    let tx = daemons[0].connect("tx").expect("connect tx");
    let rx = daemons[1].connect("rx").expect("connect rx");
    rx.join("big").expect("join");
    await_view(rx.events(), "big", 1);

    let payload = big_payload();
    tx.multicast(&["big"], payload.clone(), Service::Agreed)
        .expect("multicast");
    await_intact(rx.events(), &payload);
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn multiring_daemon_delivers_a_message_larger_than_the_ring_queue() {
    let _guard = serial();
    let rings = spawn_local_multiring(
        2,
        3,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[None, None],
    )
    .expect("rings stand up");
    // rings[ring][node] -> per-daemon columns: daemon i owns node i of
    // every ring.
    let mut columns: Vec<Vec<_>> = (0..3).map(|_| Vec::new()).collect();
    for ring in rings {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let mut shards = ShardMap::new(2);
    shards.assign("big", RingIdx::new(1));
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .map(|nodes| {
            let options = MultiRingOptions {
                engine: engine_options(),
                ..MultiRingOptions::default()
            };
            MultiRingDaemon::start_with(nodes, shards.clone(), options)
        })
        .collect();
    let tx = daemons[0].connect("tx").expect("connect tx");
    let rx = daemons[1].connect("rx").expect("connect rx");
    rx.join("big").expect("join");
    await_view(rx.events(), "big", 1);

    let payload = big_payload();
    tx.multicast(&["big"], payload.clone(), Service::Agreed)
        .expect("multicast");
    await_intact(rx.events(), &payload);
    for d in daemons {
        d.shutdown();
    }
}
