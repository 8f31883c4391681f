//! Merge pacing between a busy ring and an idle one, on real localhost
//! UDP rings. The idle ring's leader holds its token, so the idle ring
//! turns far fewer rounds than the busy ring; without slot-hint ticks
//! the busy ring's merge slots outrun the idle ring's watermark and its
//! messages are released later and later. The merged latency must stay
//! flat over the whole run.
//!
//! The tick leader (daemon 0) hosts no client at all: its merger never
//! has anything queued, so pacing cannot hinge on its own merge being
//! blocked.
//!
//! Run single-threaded (`--test-threads=1`) so concurrent rings do not
//! compete for CPU.

use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::ClientEvent;
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, ShardMap};
use accelring_transport::spawn_local_multiring;
use bytes::Bytes;

const RINGS: u16 = 2;
const NODES: u16 = 3;
const RATE: u64 = 500;
const SECONDS: u64 = 5;

fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    map.assign("busy", RingIdx::new(0));
    map.assign("idle", RingIdx::new(1));
    map
}

fn spawn_daemons() -> Vec<MultiRingDaemon> {
    let handles = spawn_local_multiring(
        RINGS,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    )
    .expect("rings stand up");
    let mut columns: Vec<Vec<_>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in handles {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    columns
        .into_iter()
        .map(|nodes| MultiRingDaemon::start(nodes, shards()))
        .collect()
}

fn p50(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn busy_ring_latency_stays_flat_beside_an_idle_ring() {
    let daemons = spawn_daemons();
    let obs = daemons[1].connect("obs").expect("connect");
    obs.join("busy").expect("join busy");
    obs.join("idle").expect("join idle");
    for group in ["busy", "idle"] {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "no view of {group}");
            if let Ok(ClientEvent::View { group: g, .. }) =
                obs.events().recv_timeout(Duration::from_millis(200))
            {
                if g == group {
                    break;
                }
            }
        }
    }
    let sender = daemons[2].connect("sender").expect("connect");

    // Ring 0 carries RATE messages a second, open loop; ring 1 idles.
    let total = (RATE * SECONDS) as usize;
    let start = Instant::now();
    let interval = Duration::from_micros(1_000_000 / RATE);
    let latencies: Vec<(usize, Duration)> = std::thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let mut got = Vec::with_capacity(total);
            let deadline = start + Duration::from_secs(SECONDS + 20);
            while got.len() < total && Instant::now() < deadline {
                match obs.events().recv_timeout(Duration::from_millis(200)) {
                    Ok(ClientEvent::Message { payload, .. }) => {
                        let i: usize = std::str::from_utf8(&payload).unwrap().parse().unwrap();
                        let due = start + interval * i as u32;
                        got.push((i, Instant::now().duration_since(due)));
                    }
                    Ok(ClientEvent::Disconnected { reason }) => panic!("disconnected: {reason}"),
                    _ => {}
                }
            }
            got
        });
        for i in 0..total {
            let due = start + interval * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            sender
                .multicast(&["busy"], Bytes::from(i.to_string()), Service::Agreed)
                .expect("send");
        }
        observer.join().unwrap()
    });
    assert_eq!(latencies.len(), total, "messages went missing");

    let per_second = (RATE as usize).max(1);
    let mut p50s = Vec::new();
    for second in 0..SECONDS as usize {
        let mut window: Vec<Duration> = latencies
            .iter()
            .filter(|(i, _)| i / per_second == second)
            .map(|&(_, l)| l)
            .collect();
        p50s.push(p50(&mut window));
    }
    for (second, p) in p50s.iter().enumerate() {
        assert!(
            *p <= Duration::from_millis(5),
            "second {second}: merged p50 {p:?} (all seconds: {p50s:?})"
        );
    }
    let (first, last) = (p50s[0], p50s[p50s.len() - 1]);
    assert!(
        last <= first * 2 + Duration::from_millis(1),
        "merged p50 drifted from {first:?} to {last:?} ({p50s:?})"
    );

    for d in daemons {
        d.shutdown();
    }
}
