//! What an idle ring costs: node-thread CPU of rings that order nothing.
//!
//! ```text
//! cargo run --release -p accelring-bench --bin idle_cpu
//! cargo run --release -p accelring-bench --bin idle_cpu -- --secs 5
//! ```
//!
//! Each deployment is spawned with `spawn_local_ring_on` (or
//! `spawn_local_multiring_on`) with wall-clock membership timeouts and
//! left idle. After 1 s to form and settle, the CPU time of the node
//! threads (`accelring-*`) is read from `/proc/self/task/*/stat` at the
//! start and end of the window, together with the datagrams the nodes
//! sent. Linux only: elsewhere the CPU column reads 0.
//!
//! Then the price of idling: on an idle 3-daemon UDP ring, 600 single
//! messages (alternately Agreed and Safe, submitted round-robin at each
//! daemon, 1–25 ms apart so they land at every phase of the leader's
//! hold) are timed from submit until every member has delivered them,
//! reported separately for submits at the ring leader and at the other
//! members.

use std::time::{Duration, Instant};

use accelring_core::{ParticipantId, ProtocolConfig, Service};
use accelring_membership::MembershipConfig;
use accelring_transport::{spawn_local_multiring_on, AppEvent, NodeHandle, Transport};
use bytes::Bytes;

/// CPU seconds (utime + stime) of this process's `accelring-*` threads.
fn node_cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ...`: the name may contain spaces, so split
        // at the last ')'.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !stat[open + 1..close].starts_with("accelring-") {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        // After the name: state is field 0, utime 11, stime 12.
        let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        ticks += field(11).unwrap_or(0) + field(12).unwrap_or(0);
    }
    // USER_HZ is 100 on every mainstream Linux configuration.
    ticks as f64 / 100.0
}

fn datagrams_sent(rings: &[Vec<NodeHandle>]) -> u64 {
    rings
        .iter()
        .flatten()
        .map(|h| h.stats().hot.datagrams_tx)
        .sum()
}

fn main() {
    let mut secs = 5u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--secs" => {
                secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--secs takes a number")
            }
            other => {
                eprintln!("unknown argument {other}; usage: idle_cpu [--secs N]");
                std::process::exit(2);
            }
        }
    }
    println!("| idle deployment | node-thread CPU per {secs} s | datagrams sent per s |");
    println!("|---|---|---|");
    let deployments = [
        ("1 ring, 3 daemons, UDP", Transport::Udp, 1, 3),
        ("1 ring, 1 daemon, UDP", Transport::Udp, 1, 1),
        ("1 ring, 3 daemons, shm", Transport::Shm, 1, 3),
        ("2 rings, 3 daemons each, UDP", Transport::Udp, 2, 3),
    ];
    for (name, transport, rings, daemons) in deployments {
        let handles = spawn_local_multiring_on(
            transport,
            rings,
            daemons,
            ProtocolConfig::default(),
            MembershipConfig::for_wall_clock(),
            &[],
        )
        .expect("spawn rings");
        std::thread::sleep(Duration::from_secs(1));
        let (cpu0, sent0) = (node_cpu_seconds(), datagrams_sent(&handles));
        std::thread::sleep(Duration::from_secs(secs));
        let (cpu1, sent1) = (node_cpu_seconds(), datagrams_sent(&handles));
        println!(
            "| {name} | {:.2} s | {:.0} |",
            cpu1 - cpu0,
            (sent1 - sent0) as f64 / secs as f64
        );
        for node in handles.into_iter().flatten() {
            node.shutdown();
        }
    }
    idle_latency();
}

/// Submit-to-delivered-everywhere latency of single messages on an idle
/// 3-daemon UDP ring, by where they were submitted.
fn idle_latency() {
    const PROBES: u64 = 600;
    let ring = spawn_local_multiring_on(
        Transport::Udp,
        1,
        3,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    )
    .expect("spawn ring")
    .remove(0);
    let leader = ring_leader(&ring[0]);
    std::thread::sleep(Duration::from_secs(1));
    let (mut at_leader, mut at_member) = (Vec::new(), Vec::new());
    for k in 0..PROBES {
        let service = if k % 2 == 0 {
            Service::Agreed
        } else {
            Service::Safe
        };
        let sender = &ring[(k % 3) as usize];
        let t0 = Instant::now();
        sender
            .submit(Bytes::from(k.to_string()), service)
            .expect("submit");
        for node in &ring {
            loop {
                match node.events().recv_timeout(Duration::from_secs(5)) {
                    Ok(AppEvent::Delivered(d)) if d.payload == k.to_string().as_bytes() => break,
                    Ok(_) => {}
                    Err(_) => panic!("probe {k} was not delivered within 5 s"),
                }
            }
        }
        if sender.pid() == leader {
            at_leader.push(t0.elapsed());
        } else {
            at_member.push(t0.elapsed());
        }
        // A fixed stride through 1..=25 ms, so the probes sample every
        // phase of the hold the ring settles into between them.
        std::thread::sleep(Duration::from_millis(1 + k * 7 % 25));
    }
    let hot = |f: fn(&accelring_core::HotPathStats) -> u64| -> u64 {
        ring.iter().map(|h| f(&h.stats().hot)).sum()
    };
    println!(
        "idle 3-daemon UDP ring, {PROBES} single messages 1-25 ms apart, \
         submit to delivered everywhere:"
    );
    for (role, latencies) in [("leader", &mut at_leader), ("member", &mut at_member)] {
        latencies.sort();
        let at = |q: usize| latencies[(latencies.len() - 1) * q / 100];
        println!(
            "  submitted at the {role} ({}): p50 {:?}, p90 {:?}, p99 {:?}, max {:?}, \
             over 5 ms: {}",
            latencies.len(),
            at(50),
            at(90),
            at(99),
            at(100),
            latencies
                .iter()
                .filter(|l| **l > Duration::from_millis(5))
                .count()
        );
    }
    println!(
        "  token requests sent {}, holds released by request {}",
        hot(|h| h.token_requests_sent),
        hot(|h| h.holds_released_by_request)
    );
    for node in ring {
        node.shutdown();
    }
}

/// The leader (position 0) of the first full configuration `node`
/// installs.
fn ring_leader(node: &NodeHandle) -> ParticipantId {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match node.events().recv_timeout(left) {
            Ok(AppEvent::Config(c)) if !c.transitional && c.members.len() == 3 => {
                return c.members[0];
            }
            Ok(_) => {}
            Err(_) => panic!("the ring did not form within 10 s"),
        }
    }
}
