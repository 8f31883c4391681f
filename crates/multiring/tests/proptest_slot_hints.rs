//! Property (100 cases): slot-hint skip ticks keep the merged order a
//! pure function of the per-ring streams.
//!
//! Two rings turn rounds at different speeds — as they do when an idle
//! ring's leader holds the token — and seeded hint ticks (epoch and
//! merge-slot hints, at random positions on both rings) lift the slower
//! ring's merge clock. Every observer consuming the same two streams
//! must release the identical merged order, under every arrival
//! interleaving of the two streams (ring 0 first, ring 1 first,
//! alternating, seeded random), and must release every message.

use accelring_core::{Delivery, ParticipantId, RingIdx, Round, Seq, Service};
use accelring_daemon::packing::{tick_payload_with_epoch, tick_payload_with_slot};
use accelring_daemon::ClientEvent;
use accelring_multiring::{MultiOutput, MultiRingEngine, ShardMap};
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RINGS: usize = 2;
const OBSERVERS: usize = 2;

fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS as u16);
    map.assign("fast", RingIdx::new(0));
    map.assign("slow", RingIdx::new(1));
    map
}

/// One engine per observer, each with a client; the joins are ordered
/// on the streams like every other message.
fn fresh_engines() -> Vec<MultiRingEngine> {
    (0..OBSERVERS)
        .map(|pid| {
            let mut e = MultiRingEngine::new(ParticipantId::new(pid as u16), shards(), 1);
            e.client_connect(&format!("c{pid}")).unwrap();
            e
        })
        .collect()
}

/// Appends one delivery to a ring's stream, in the ring's current round.
fn append(streams: &mut [Vec<Delivery>], rounds: &[u64], ring: usize, payload: Bytes) {
    let s = &mut streams[ring];
    s.push(Delivery {
        seq: Seq::new(s.len() as u64 + 1),
        sender: ParticipantId::new(0),
        round: Round::new(rounds[ring]),
        service: Service::Agreed,
        payload,
    });
}

/// Builds two seeded ring streams: joins, data on both groups, hint
/// ticks at random positions, and rounds that advance fast on ring 0
/// and slowly on ring 1. Returns the streams and the data count.
fn build(seed: u64, steps: usize) -> (Vec<Vec<Delivery>>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut driver = fresh_engines();
    let mut streams: Vec<Vec<Delivery>> = vec![Vec::new(); RINGS];
    let mut rounds = [1u64; RINGS];
    let submit = |streams: &mut Vec<Vec<Delivery>>, rounds: &[u64], outs: Vec<MultiOutput>| {
        for o in outs {
            if let MultiOutput::Submit { ring, payload, .. } = o {
                append(streams, rounds, ring.as_usize(), payload);
            }
        }
    };
    for (d, engine) in driver.iter_mut().enumerate() {
        for group in ["fast", "slow"] {
            let outs = engine.client_join(&format!("c{d}"), group).unwrap();
            submit(&mut streams, &rounds, outs);
        }
    }
    let mut data = 0;
    for _ in 0..steps {
        // Ring 0 turns up to 6 rounds per step, ring 1 at most one.
        rounds[0] += rng.random_range(0..=6u64);
        rounds[1] += u64::from(rng.random_range(0..4u8) == 0);
        match rng.random_range(0..10u8) {
            0..=5 => {
                let d = rng.random_range(0..OBSERVERS);
                let group = if rng.random_range(0..4u8) == 0 {
                    "slow"
                } else {
                    "fast"
                };
                let outs = driver[d]
                    .client_multicast(
                        &format!("c{d}"),
                        &[group],
                        Bytes::from(format!("m{data}")),
                        Service::Agreed,
                    )
                    .unwrap();
                submit(&mut streams, &rounds, outs);
                data += 1;
            }
            6..=8 => {
                // A slot-hint tick on either ring, hinting around the
                // fast ring's slot range (sometimes above it, sometimes
                // stale).
                let ring = rng.random_range(0..RINGS);
                let slot = rng.random_range(0..=rounds[0] + 8);
                let epoch = rng.random_range(0..2u64);
                append(
                    &mut streams,
                    &rounds,
                    ring,
                    tick_payload_with_slot(epoch, slot),
                );
            }
            _ => {
                let ring = rng.random_range(0..RINGS);
                append(&mut streams, &rounds, ring, tick_payload_with_epoch(0));
            }
        }
        // The driver's packers hold nothing back between steps.
        for engine in driver.iter_mut() {
            let outs = engine.flush();
            submit(&mut streams, &rounds, outs);
        }
    }
    (streams, data)
}

/// Replays the streams into fresh observers in the given arrival order
/// and returns each observer's released messages.
fn replay(streams: &[Vec<Delivery>], order: &[usize]) -> Vec<Vec<String>> {
    let mut engines = fresh_engines();
    let mut cursors = [0usize; RINGS];
    let mut got: Vec<Vec<String>> = vec![Vec::new(); OBSERVERS];
    let collect = |d: usize, outs: Vec<MultiOutput>, got: &mut Vec<Vec<String>>| {
        for o in outs {
            if let MultiOutput::Local {
                event: ClientEvent::Message { payload, .. },
                ..
            } = o
            {
                got[d].push(String::from_utf8_lossy(&payload).into_owned());
            }
        }
    };
    for &r in order {
        let del = streams[r][cursors[r]].clone();
        cursors[r] += 1;
        for (d, e) in engines.iter_mut().enumerate() {
            let outs = e.on_delivery(RingIdx::new(r as u16), &del);
            collect(d, outs, &mut got);
        }
    }
    for (d, e) in engines.iter_mut().enumerate() {
        let outs = e.finish();
        collect(d, outs, &mut got);
    }
    got
}

fn interleavings(lens: [usize; RINGS], seed: u64) -> Vec<Vec<usize>> {
    let first = |a: usize, b: usize| -> Vec<usize> {
        std::iter::repeat_n(a, lens[a])
            .chain(std::iter::repeat_n(b, lens[b]))
            .collect()
    };
    let mut orders = vec![first(0, 1), first(1, 0)];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5107_4117);
    for random in [false, true] {
        let mut order = Vec::new();
        let (mut c0, mut c1) = (0, 0);
        while c0 < lens[0] || c1 < lens[1] {
            let pick0 = c1 >= lens[1]
                || (c0 < lens[0]
                    && (if random {
                        rng.random::<bool>()
                    } else {
                        c0 <= c1
                    }));
            if pick0 {
                order.push(0);
                c0 += 1;
            } else {
                order.push(1);
                c1 += 1;
            }
        }
        orders.push(order);
    }
    orders
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn hint_ticks_keep_the_merged_order_observer_invariant(seed in any::<u64>()) {
        let (streams, data) = build(seed, 80);
        let lens = [streams[0].len(), streams[1].len()];
        let mut reference: Option<Vec<String>> = None;
        for (i, order) in interleavings(lens, seed).into_iter().enumerate() {
            for (d, g) in replay(&streams, &order).into_iter().enumerate() {
                prop_assert_eq!(g.len(), data, "seed {}, observer {}: lost messages", seed, d);
                match &reference {
                    None => reference = Some(g),
                    Some(r) => prop_assert_eq!(
                        &g, r,
                        "seed {}, interleaving {}, observer {}: merged order diverged",
                        seed, i, d
                    ),
                }
            }
        }
    }
}
