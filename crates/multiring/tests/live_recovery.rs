//! Crash recovery on live localhost UDP rings: restart storms, the
//! shard-map catch-up protocol, and the ordered state transfer that
//! lets a rejoined daemon serve without double-delivering or routing
//! from a stale map.
//!
//! Three scenarios: a seeded restart-storm schedule under steady
//! traffic (every surviving observer sees one identical, gap-free,
//! duplicate-free order and the rejoiners pull catch-up state); a
//! manual storm with map churn, checked against the chaos crate's
//! recovery invariants (no stale-map serving, no dedup-watermark
//! regression — the latter is the regression test for the dedup
//! carry-forward across a same-port rebind); and a remote
//! [`SessionClient`] resuming across its daemon's restart, with a
//! deliberate duplicate retransmission that the recovered watermark
//! must suppress.
//!
//! Real sockets and threads; run with `--test-threads=1`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use accelring_chaos::churn::{
    check_churn_handoff, check_recovery, ChurnConfig, ChurnKind, ChurnSchedule, RecoveryReport,
};
use accelring_chaos::MsgId;
use accelring_core::{Backoff, RingIdx, Service};
use accelring_daemon::{ClientEvent, FrontendOptions, SessionClient};
use accelring_multiring::{ChurnCluster, MultiRingClient, MultiRingOptions, ShardMap};
use bytes::Bytes;

const RINGS: u16 = 2;
const HOT_SENDER: u16 = 99;

/// "hot" starts on ring 0 and "cold" pins ring 1, so migrations have a
/// non-idle target and the shard map starts versioned.
fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    map.assign("hot", RingIdx::new(0));
    map.assign("cold", RingIdx::new(1));
    map
}

/// Session socket on: restarted daemons pull catch-up snapshots from
/// the survivors over the wire, not just from the supervisor's seed.
fn options() -> MultiRingOptions {
    MultiRingOptions {
        frontend: FrontendOptions::enabled(),
        ..MultiRingOptions::default()
    }
}

fn await_view_members(client: &MultiRingClient, group: &str, min_members: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        match client.events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::View { group: g, members }) if g == group => {
                if members.len() >= min_members {
                    return;
                }
            }
            Ok(ClientEvent::Disconnected { reason }) => {
                panic!("client {} disconnected: {reason}", client.name())
            }
            Ok(_) | Err(_) => {}
        }
    }
    panic!(
        "client {} never saw a view for {group} with {min_members}+ members",
        client.name()
    );
}

fn send_id(sender: &MultiRingClient, id: MsgId) {
    let mut backoff = Backoff::new(
        Duration::from_millis(10),
        Duration::from_millis(200),
        id.counter,
    );
    loop {
        match sender.multicast_sequenced(&["hot"], Bytes::from(id.payload()), Service::Agreed) {
            Ok(_) => return,
            Err(e) if backoff.attempts() >= 20 => panic!("send {id} failed for good: {e}"),
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
}

fn collect_ids(client: &MultiRingClient, want: usize, deadline: Duration) -> Vec<MsgId> {
    let start = Instant::now();
    let mut got = Vec::new();
    while got.len() < want && start.elapsed() < deadline {
        match client.events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::Message { payload, .. }) => {
                if let Some(id) = MsgId::parse(&payload) {
                    got.push(id);
                }
            }
            Ok(ClientEvent::Disconnected { reason }) => {
                panic!("client {} disconnected: {reason}", client.name())
            }
            Ok(_) | Err(_) => {}
        }
    }
    got
}

/// Polls until daemon `d`'s serving gate opens and its shard map reaches
/// at least `want_version`, returning the final inspect snapshot.
fn await_converged(
    cluster: &ChurnCluster,
    d: u16,
    want_version: u64,
    deadline: Duration,
) -> accelring_multiring::DaemonInspect {
    let start = Instant::now();
    let mut last = cluster.daemon(d).inspect().expect("daemon up");
    while start.elapsed() < deadline {
        last = cluster.daemon(d).inspect().expect("daemon up");
        if !last.catching_up && last.map_version >= want_version {
            return last;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

#[test]
fn restart_storm_keeps_the_merged_order_gap_free_and_exactly_once() {
    const NODES: u16 = 4;
    let seed = 17;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");

    // Durable clients on daemon 0, which storms never cycle.
    let obs_a = cluster.daemon(0).connect("obs-a").expect("connect");
    let obs_b = cluster.daemon(0).connect("obs-b").expect("connect");
    let sender = cluster.daemon(0).connect("src").expect("connect");
    for c in [&obs_a, &obs_b] {
        c.join("hot").expect("join hot");
    }
    for c in [&obs_a, &obs_b] {
        await_view_members(c, "hot", 2);
    }

    // Two correlated crashes of two daemons each, under steady traffic.
    let cfg = ChurnConfig {
        rings: RINGS,
        nodes: NODES,
        groups: vec!["hot".to_string(), "cold".to_string()],
        events: 2,
        min_gap: Duration::from_millis(700),
        max_gap: Duration::from_millis(1200),
        warmup: Duration::from_millis(400),
    };
    let schedule = ChurnSchedule::restart_storm(seed, &cfg, 2);
    let victims: BTreeSet<u16> = schedule
        .events
        .iter()
        .flat_map(|e| match &e.kind {
            ChurnKind::RestartStorm { daemons, .. } => daemons.clone(),
            _ => Vec::new(),
        })
        .collect();
    let last_event = schedule.events.last().expect("non-empty").at;

    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    let mut fired = 0;
    let start = Instant::now();
    let mut counter = 0;
    while start.elapsed() < last_event + Duration::from_millis(600) || counter < 20 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        send_id(&sender, id);
        sent.insert(id);
        counter += 1;
        cluster
            .apply_due(&schedule, start, &mut fired)
            .expect("storm applies");
        std::thread::sleep(Duration::from_millis(40));
    }
    while fired < schedule.events.len() {
        cluster
            .apply_due(&schedule, start, &mut fired)
            .expect("storm applies");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Every storm victim's final incarnation ran the catch-up protocol:
    // the gate opens (snapshot applied or deadline) and at least one
    // pull went out while it was closed.
    for d in &victims {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let ins = cluster.daemon(*d).inspect().expect("daemon up");
            if !ins.catching_up {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "seed {seed}: daemon {d} never opened its serving gate"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        let stats = cluster.daemon(*d).inspect().expect("daemon up");
        assert!(
            stats.recovery_pulls_sent >= 1,
            "seed {seed}: daemon {d} rejoined without pulling catch-up state"
        );
    }

    let want = sent.len();
    let a = collect_ids(&obs_a, want, Duration::from_secs(40));
    let b = collect_ids(&obs_b, want, Duration::from_secs(40));
    let violations = check_churn_handoff(&sent, &[(0, a), (1, b)]);
    assert!(
        violations.is_empty(),
        "seed {seed}: storm violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    cluster.shutdown();
}

#[test]
fn restart_storm_recovery_invariants_hold_after_map_churn() {
    const NODES: u16 = 3;
    let seed = 29;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");

    let observer = cluster.daemon(0).connect("obs").expect("connect");
    let sender = cluster.daemon(1).connect("src").expect("connect");
    observer.join("hot").expect("join hot");
    await_view_members(&observer, "hot", 1);

    // Ten sequenced sends through daemon 1 set its dedup watermark.
    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    for counter in 0..10 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        send_id(&sender, id);
        sent.insert(id);
    }
    assert_eq!(
        collect_ids(&observer, 10, Duration::from_secs(30)).len(),
        10,
        "workload must land before the storm"
    );

    // Migrate "hot" so the live map moves past what restarted daemons
    // are (deliberately) reborn with — the stale-map injection.
    cluster
        .daemon(0)
        .migrate("hot", RingIdx::new(1))
        .expect("migrate accepted");
    let commit_deadline = Instant::now() + Duration::from_secs(20);
    while cluster
        .daemon(0)
        .inspect()
        .expect("daemon up")
        .migrations_committed
        < 1
    {
        assert!(
            Instant::now() < commit_deadline,
            "seed {seed}: migration never committed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Correlated storm: daemons 1 and 2 die together; only daemon 0
    // survives as a catch-up source.
    let seqs_before: Vec<(u16, _)> = [1u16, 2]
        .iter()
        .map(|d| (*d, cluster.daemon(*d).export_seqs().expect("daemon up")))
        .collect();
    cluster.stop_daemon(1);
    cluster.stop_daemon(2);
    std::thread::sleep(Duration::from_millis(400));
    cluster.restart_daemon(1).expect("daemon 1 rebinds");
    cluster.restart_daemon(2).expect("daemon 2 rebinds");
    let map_before = cluster.daemon(0).inspect().expect("daemon up").map_version;

    let mut reports = Vec::new();
    for (d, before) in seqs_before {
        let ins = await_converged(&cluster, d, map_before, Duration::from_secs(20));
        reports.push(RecoveryReport {
            daemon: d,
            map_before,
            map_after: ins.map_version,
            seqs_before: before,
            seqs_after: cluster.daemon(d).export_seqs().expect("daemon up"),
        });
    }
    let violations = check_recovery(&reports);
    assert!(
        violations.is_empty(),
        "seed {seed}: recovery violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The direct regression for the dedup carry-forward: the reborn
    // daemon 1 still holds src's watermark even though no client has
    // spoken to it since the rebind.
    let carried = cluster.daemon(1).export_seqs().expect("daemon up");
    assert!(
        carried
            .iter()
            .flatten()
            .any(|(client, seq)| client == "src" && *seq >= 10),
        "seed {seed}: daemon 1 lost src's dedup watermark across the restart: {carried:?}"
    );
    // And the wire path engaged: both rejoiners applied a snapshot from
    // the surviving daemon.
    for d in [1u16, 2] {
        let stats = cluster.daemon(d).inspect().expect("daemon up");
        assert!(
            stats.recovery_snapshots_applied >= 1,
            "seed {seed}: daemon {d} never applied a catch-up snapshot"
        );
    }

    cluster.shutdown();
}

#[test]
fn session_client_resumes_across_daemon_restart_exactly_once() {
    const NODES: u16 = 3;
    let seed = 31;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");

    let watcher = cluster.daemon(0).connect("watch").expect("connect");
    watcher.join("hot").expect("join hot");
    await_view_members(&watcher, "hot", 1);

    let addr = cluster.daemon(2).session_addr().expect("session socket");
    let mut roam = SessionClient::connect(addr, "roam").expect("connect roam");
    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    for counter in 0..5 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        roam.multicast_sequenced(&["hot"], Bytes::from(id.payload()), Service::Agreed)
            .expect("send");
        sent.insert(id);
    }
    let first = collect_ids(&watcher, 5, Duration::from_secs(30));
    assert_eq!(first.len(), 5, "pre-restart sends must land");
    let watermark = roam.last_seq();

    // Cycle the daemon the session lives on. The restarted incarnation
    // binds a *new* ephemeral session port, so resuming means asking
    // the cluster for the address again.
    cluster.stop_daemon(2);
    std::thread::sleep(Duration::from_millis(300));
    cluster.restart_daemon(2).expect("daemon 2 rebinds");
    let new_addr = cluster.daemon(2).session_addr().expect("session socket");

    // Reconnect with the session watermark; HELLOs sent while the
    // daemon is still catching up are dropped (not refused), so retry
    // the whole connect until the gate opens.
    let deadline = Instant::now() + Duration::from_secs(15);
    let roam = loop {
        match SessionClient::connect_session(new_addr, "roam", watermark) {
            Ok(c) => break c,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "seed {seed}: roam could not resume: {e}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };

    // An in-doubt retransmission: seq 5 was already ordered before the
    // crash, and the recovered watermark must suppress it — without the
    // carry-forward this delivers twice.
    let dup = MsgId {
        sender: HOT_SENDER,
        counter: 4,
    };
    roam.resubmit(
        watermark,
        &["hot"],
        Bytes::from(dup.payload()),
        Service::Agreed,
    )
    .expect("resubmit");
    let mut roam = roam;
    for counter in 5..10 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        roam.multicast_sequenced(&["hot"], Bytes::from(id.payload()), Service::Agreed)
            .expect("send");
        sent.insert(id);
    }

    // The watcher's full stream is the pre-restart batch already
    // drained plus everything after the resume.
    let mut got = first;
    let want = sent.len() - got.len();
    got.extend(collect_ids(&watcher, want, Duration::from_secs(40)));
    let violations = check_churn_handoff(&sent, &[(0, got)]);
    assert!(
        violations.is_empty(),
        "seed {seed}: resume violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    roam.bye();
    cluster.shutdown();
}
