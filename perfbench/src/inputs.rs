//! Seeded inputs. Everything a workload sends — payload bytes, keys,
//! values, which op is a transaction, which session submits — comes
//! from the `--seed` through these generators, so one seed gives one op
//! sequence, and the untraced and traced windows of a run replay
//! identical inputs.

use accelring_kv::{partition_of, KvOp, KvWrite};
use bytes::Bytes;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Payload size of the flood workloads, the paper's 1350-byte message.
pub const FLOOD_PAYLOAD: usize = 1350;

/// The byte image daemon `sender`'s flood messages share; message
/// `counter` is this image with the counter in its first 8 bytes.
pub fn flood_template(seed: u64, sender: u16) -> Vec<u8> {
    Rng::new(seed, 0xf100_0000 + u64::from(sender)).bytes(FLOOD_PAYLOAD)
}

/// Flood message `counter` of a sender with template `template`.
pub fn flood_message(template: &[u8], counter: u64) -> Bytes {
    let mut v = template.to_vec();
    v[..8].copy_from_slice(&counter.to_le_bytes());
    Bytes::from(v)
}

/// Key-space split of the kv workload.
pub const KV_PARTITIONS: u16 = 4;
/// Rings of the kv workload; partition `kv.p` lives on ring `p % 2`.
pub const KV_RINGS: u16 = 2;
/// Keys per partition in the kv key pool.
const KEYS_PER_PARTITION: usize = 16;
/// Length of every kv value.
const KV_VALUE_LEN: usize = 32;

/// One generated kv op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvInput {
    /// The op.
    pub op: KvOp,
    /// Whether it is a cross-ring transaction.
    pub txn: bool,
}

/// The kv op sequence: one op in every four is a two-key transaction
/// across both rings (the seed picks which of the four, and its keys);
/// the rest are single-key puts. Keys come from a seeded pool of
/// [`KEYS_PER_PARTITION`] keys in each partition.
#[derive(Debug, Clone)]
pub struct KvOps {
    rng: Rng,
    /// `pool[p]`: keys hashing to partition `kv.p`.
    pool: Vec<Vec<String>>,
    index: u64,
    txn_slot: u64,
}

impl KvOps {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> KvOps {
        let mut rng = Rng::new(seed, 0x4b56);
        let mut pool: Vec<Vec<String>> = vec![Vec::new(); KV_PARTITIONS as usize];
        while pool.iter().any(|keys| keys.len() < KEYS_PER_PARTITION) {
            let key = format!("k{:012x}", rng.next_u64() & 0xffff_ffff_ffff);
            let part: usize = partition_of(&key, KV_PARTITIONS)[3..]
                .parse()
                .expect("partition names are kv.<n>");
            if pool[part].len() < KEYS_PER_PARTITION {
                pool[part].push(key);
            }
        }
        KvOps {
            rng,
            pool,
            index: 0,
            txn_slot: 0,
        }
    }

    fn key_in(&mut self, part: usize) -> String {
        let keys = &self.pool[part];
        keys[self.rng.below(keys.len() as u64) as usize].clone()
    }

    fn value(&mut self) -> Bytes {
        Bytes::from(self.rng.bytes(KV_VALUE_LEN))
    }
}

impl Iterator for KvOps {
    type Item = KvInput;

    fn next(&mut self) -> Option<KvInput> {
        if self.index.is_multiple_of(4) {
            self.txn_slot = self.rng.below(4);
        }
        let txn = self.index % 4 == self.txn_slot;
        self.index += 1;
        let writes = if txn {
            // Partitions 0 and 2 sit on ring 0, 1 and 3 on ring 1.
            let on_ring0 = 2 * self.rng.below(2) as usize;
            let on_ring1 = 1 + 2 * self.rng.below(2) as usize;
            let (a, b) = (self.key_in(on_ring0), self.key_in(on_ring1));
            let (va, vb) = (self.value(), self.value());
            vec![
                KvWrite::Put { key: a, value: va },
                KvWrite::Put { key: b, value: vb },
            ]
        } else {
            let part = self.rng.below(u64::from(KV_PARTITIONS)) as usize;
            let key = self.key_in(part);
            vec![KvWrite::Put {
                key,
                value: self.value(),
            }]
        };
        Some(KvInput {
            op: KvOp::Write { writes },
            txn,
        })
    }
}

/// Payload size of the fanout workload.
pub const FANOUT_PAYLOAD: usize = 100;

/// One generated fanout submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutInput {
    /// Index of the sender session (in `0..senders`).
    pub sender: usize,
    /// The payload; its first 8 bytes are the op index.
    pub payload: Bytes,
}

/// The fanout submit sequence: a seeded sender session per op and
/// seeded payload bytes behind the op index.
#[derive(Debug, Clone)]
pub struct FanoutOps {
    rng: Rng,
    senders: usize,
    index: u64,
}

impl FanoutOps {
    /// The sequence for `seed` over `senders` sessions.
    pub fn new(seed: u64, senders: usize) -> FanoutOps {
        FanoutOps {
            rng: Rng::new(seed, 0xfa40),
            senders,
            index: 0,
        }
    }
}

impl Iterator for FanoutOps {
    type Item = FanoutInput;

    fn next(&mut self) -> Option<FanoutInput> {
        let sender = self.rng.below(self.senders as u64) as usize;
        let mut payload = self.rng.bytes(FANOUT_PAYLOAD);
        payload[..8].copy_from_slice(&self.index.to_le_bytes());
        self.index += 1;
        Some(FanoutInput {
            sender,
            payload: Bytes::from(payload),
        })
    }
}

/// The op index a fanout payload carries.
pub fn fanout_index(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelring_kv::{encode_op, involved_partitions};

    #[test]
    fn one_seed_gives_one_kv_sequence() {
        let a: Vec<Bytes> = KvOps::new(7).take(500).map(|i| encode_op(&i.op)).collect();
        let b: Vec<Bytes> = KvOps::new(7).take(500).map(|i| encode_op(&i.op)).collect();
        let c: Vec<Bytes> = KvOps::new(8).take(500).map(|i| encode_op(&i.op)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_fourth_kv_op_is_a_cross_ring_txn() {
        let ops: Vec<KvInput> = KvOps::new(3).take(400).collect();
        for block in ops.chunks(4) {
            assert_eq!(block.iter().filter(|i| i.txn).count(), 1);
        }
        for i in &ops {
            let parts = involved_partitions(&i.op, KV_PARTITIONS);
            let rings: std::collections::BTreeSet<u16> = parts
                .iter()
                .map(|p| p[3..].parse::<u16>().unwrap() % KV_RINGS)
                .collect();
            assert_eq!(rings.len(), if i.txn { 2 } else { 1 });
        }
        // The seed, not a fixed phase, places the transaction.
        let slots: std::collections::BTreeSet<usize> = ops
            .chunks(4)
            .map(|b| b.iter().position(|i| i.txn).unwrap())
            .collect();
        assert!(slots.len() > 1);
    }

    #[test]
    fn one_seed_gives_one_fanout_and_flood_sequence() {
        let a: Vec<FanoutInput> = FanoutOps::new(11, 10_000).take(300).collect();
        let b: Vec<FanoutInput> = FanoutOps::new(11, 10_000).take(300).collect();
        assert_eq!(a, b);
        assert_ne!(a, FanoutOps::new(12, 10_000).take(300).collect::<Vec<_>>());
        for (i, op) in a.iter().enumerate() {
            assert_eq!(op.payload.len(), FANOUT_PAYLOAD);
            assert_eq!(fanout_index(&op.payload), Some(i as u64));
            assert!(op.sender < 10_000);
        }
        assert_eq!(flood_template(5, 1), flood_template(5, 1));
        assert_ne!(flood_template(5, 1), flood_template(5, 2));
        assert_ne!(flood_template(5, 1), flood_template(6, 1));
        let m = flood_message(&flood_template(5, 0), 42);
        assert_eq!(m.len(), FLOOD_PAYLOAD);
        assert_eq!(u64::from_le_bytes(m[..8].try_into().unwrap()), 42);
    }
}
