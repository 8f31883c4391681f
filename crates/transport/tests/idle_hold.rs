//! The idle hold on a real UDP ring: an idle ring stops spinning its
//! token, never mistakes the held token for a lost one, and still
//! delivers a submit within a few milliseconds because the submit wakes
//! the parked nodes — at the leader directly, at any other member through
//! a token request to the leader.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use accelring_core::{ParticipantId, ProtocolConfig, Service};
use accelring_membership::MembershipConfig;
use accelring_transport::{spawn_local_ring_on, AppEvent, NodeHandle, Transport};
use bytes::Bytes;

const NODES: u16 = 3;

/// Waits until every node has installed the full regular configuration
/// and returns its members in ring order.
fn wait_formed(handles: &[NodeHandle]) -> Vec<ParticipantId> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut members = Vec::new();
    for h in handles {
        loop {
            assert!(Instant::now() < deadline, "ring must form within 10 s");
            if let Ok(AppEvent::Config(c)) = h.events().recv_timeout(Duration::from_millis(50)) {
                if !c.transitional && c.members.len() == usize::from(NODES) {
                    members = c.members;
                    break;
                }
            }
        }
    }
    members
}

/// Waits until the leader has just started holding the token: a 2 ms
/// window that saw datagrams is followed by one that saw none. A
/// rotation takes a fraction of that, so the hold began less than two
/// windows ago. A window the test thread overslept (by more than 1 ms)
/// proves nothing and starts the search over, so the hold has at least
/// 12 ms left when this returns.
fn wait_token_held(handles: &[NodeHandle]) {
    let window = Duration::from_millis(2);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut moving = false;
    loop {
        assert!(Instant::now() < deadline, "the leader never held the token");
        let before = datagrams_sent(handles);
        let start = Instant::now();
        std::thread::sleep(window);
        let on_time = start.elapsed() <= window + Duration::from_millis(1);
        let quiet = datagrams_sent(handles) == before;
        if moving && quiet && on_time {
            return;
        }
        moving = !quiet && on_time;
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

#[test]
fn a_lone_submit_at_a_member_asks_the_leader_for_the_token() {
    let handles = spawn_local_ring_on(
        Transport::Udp,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        None,
    )
    .expect("spawn ring");
    let members = wait_formed(&handles);
    let leader = members[0];
    let members_only: Vec<&NodeHandle> = handles.iter().filter(|h| h.pid() != leader).collect();
    let leader_handle = handles.iter().find(|h| h.pid() == leader).expect("leader");
    std::thread::sleep(Duration::from_secs(1));

    // Each member in turn submits Agreed and then Safe messages, each
    // just after the leader began holding the idle token (18.75 ms at a
    // time with wall-clock timeouts). The counters tell a request that
    // ended the hold from a message that waited it out, whatever the
    // host's wake-up jitter: each submit must send one request and end
    // one hold. The median latency over every delivery must also stay
    // within the release bound of the test above; without the request
    // it would sit in the remaining hold, well above it.
    let bound = if cfg!(debug_assertions) {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(5)
    };
    let mut latencies = Vec::new();
    for round in 0..3 {
        for h in &members_only {
            for service in [Service::Agreed, Service::Safe] {
                let label = format!("{}:{service:?}:{round}", h.pid());
                let requests = h.stats().hot.token_requests_sent;
                let released = leader_handle.stats().hot.holds_released_by_request;
                // The receivers wait before the submit, as in the test
                // above.
                let ready = Barrier::new(handles.len() + 1);
                let arrivals: Vec<Duration> = std::thread::scope(|scope| {
                    let workers: Vec<_> = handles
                        .iter()
                        .map(|member| {
                            let (label, ready) = (&label, &ready);
                            scope.spawn(move || {
                                ready.wait();
                                let deadline = Instant::now() + Duration::from_secs(5);
                                loop {
                                    let left = deadline.saturating_duration_since(Instant::now());
                                    match member.events().recv_timeout(left) {
                                        Ok(AppEvent::Delivered(d))
                                            if d.payload == label.as_bytes() =>
                                        {
                                            return Instant::now();
                                        }
                                        Ok(AppEvent::Fault { reason }) => {
                                            panic!("node died: {reason}")
                                        }
                                        Ok(_) => {}
                                        Err(_) => {
                                            panic!("{label} never reached node {}", member.pid())
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    wait_token_held(&handles);
                    ready.wait();
                    let submitted = Instant::now();
                    h.submit(Bytes::from(label.clone()), service)
                        .expect("submit");
                    workers
                        .into_iter()
                        .map(|w| w.join().unwrap().duration_since(submitted))
                        .collect()
                });
                assert_eq!(
                    h.stats().hot.token_requests_sent,
                    requests + 1,
                    "{label}: node {} did not ask for the token once",
                    h.pid()
                );
                assert_eq!(
                    leader_handle.stats().hot.holds_released_by_request,
                    released + 1,
                    "{label}: the request did not end the leader's hold"
                );
                latencies.extend(arrivals);
            }
        }
    }
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median <= bound,
        "median delivery {median:?} over {} deliveries (max {:?})",
        latencies.len(),
        latencies.last()
    );
    for h in &handles {
        assert_eq!(
            h.tokens_retransmitted(),
            0,
            "node {} took a held token for a lost one",
            h.pid()
        );
    }
    for h in handles {
        h.shutdown();
    }
}
