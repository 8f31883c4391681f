//! The idle hold on a real UDP ring: an idle ring stops spinning its
//! token, never mistakes the held token for a lost one, and still
//! delivers a submit within a few milliseconds because the submit wakes
//! the parked nodes.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, Service};
use accelring_membership::MembershipConfig;
use accelring_transport::{spawn_local_ring_on, AppEvent, NodeHandle, Transport};
use bytes::Bytes;

const NODES: u16 = 3;

/// Waits until every node has installed the full regular configuration.
fn wait_formed(handles: &[NodeHandle]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for h in handles {
        loop {
            assert!(Instant::now() < deadline, "ring must form within 10 s");
            if let Ok(AppEvent::Config(c)) = h.events().recv_timeout(Duration::from_millis(50)) {
                if !c.transitional && c.members.len() == usize::from(NODES) {
                    break;
                }
            }
        }
    }
}

fn datagrams_sent(handles: &[NodeHandle]) -> u64 {
    handles.iter().map(|h| h.stats().hot.datagrams_tx).sum()
}

#[test]
fn idle_ring_holds_its_token_and_still_delivers_promptly() {
    let handles = spawn_local_ring_on(
        Transport::Udp,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        None,
    )
    .expect("spawn ring");
    wait_formed(&handles);

    // Measure one idle second, one second after forming. Without the
    // hold the token spins as fast as the hosts pass it (about 100k
    // datagrams a second on one 2-core box).
    std::thread::sleep(Duration::from_secs(1));
    let before = datagrams_sent(&handles);
    std::thread::sleep(Duration::from_secs(1));
    let idle = datagrams_sent(&handles) - before;
    assert!(
        idle <= 20_000,
        "an idle 3-daemon ring sent {idle} datagrams in 1 s"
    );
    for h in &handles {
        assert_eq!(
            h.tokens_retransmitted(),
            0,
            "node {} took a held token for a lost one",
            h.pid()
        );
    }

    // One Agreed and one Safe submit per node reach every member within
    // 5 ms of their submit (about 0.8 ms on one 2-core box). Unoptimized
    // builds run the protocol an order of magnitude slower — a spinning
    // ring without the hold took ~5 ms there too — so they get 50 ms.
    // The receivers run before the first submit, so the clock measures
    // the ring, not thread start-up.
    let bound = if cfg!(debug_assertions) {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(5)
    };
    let labels: Vec<(usize, String, Service)> = (0..handles.len())
        .flat_map(|i| {
            [Service::Agreed, Service::Safe]
                .into_iter()
                .map(move |service| (i, format!("{i}:{service:?}"), service))
        })
        .collect();
    let expected = labels.len();
    let ready = Barrier::new(handles.len() + 1);
    let mut submitted = HashMap::new();
    let arrivals: Vec<HashMap<String, Instant>> = std::thread::scope(|scope| {
        let workers: Vec<_> = handles
            .iter()
            .map(|h| {
                let ready = &ready;
                scope.spawn(move || {
                    ready.wait();
                    let mut got = HashMap::new();
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while got.len() < expected && Instant::now() < deadline {
                        match h.events().recv_timeout(Duration::from_millis(50)) {
                            Ok(AppEvent::Delivered(d)) => {
                                let label = String::from_utf8_lossy(&d.payload).into_owned();
                                got.insert(label, Instant::now());
                            }
                            Ok(AppEvent::Fault { reason }) => panic!("node died: {reason}"),
                            _ => {}
                        }
                    }
                    got
                })
            })
            .collect();
        ready.wait();
        for (i, label, service) in &labels {
            submitted.insert(label.clone(), Instant::now());
            handles[*i]
                .submit(Bytes::from(label.clone()), *service)
                .expect("submit");
        }
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (member, got) in arrivals.iter().enumerate() {
        assert_eq!(got.len(), expected, "member {member} missed deliveries");
        for (label, at) in got {
            let latency = at.duration_since(submitted[label]);
            assert!(
                latency <= bound,
                "{label} reached member {member} after {latency:?}"
            );
        }
    }
    for h in handles {
        h.shutdown();
    }
}
