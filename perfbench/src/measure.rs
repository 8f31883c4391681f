//! Measurement helpers: percentiles under the sample-count rule,
//! counter deltas across a measured window, per-thread and process CPU
//! from `/proc`, and peak resident memory.

use std::collections::BTreeMap;

use accelring_core::FrontendStats;
use accelring_transport::TransportStats;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/*/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
pub const USER_HZ: f64 = 100.0;

/// A percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may fall back to, highest first.
const CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile at or below `wanted` that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median is unsupported.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    CANDIDATES
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// The 1-based nearest rank of percentile `p` in `n` samples (guarded
/// against `p * n / 100` landing a hair above an integer).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (in percent) of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// A latency sample reduced to what the report prints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    /// Samples in the sample.
    pub n: usize,
    /// Median, in milliseconds (0 when `n` is below 20).
    pub p50_ms: f64,
    /// The supported tail percentile actually reported (99 when the
    /// sample allows it).
    pub tail_pct: f64,
    /// That percentile, in milliseconds.
    pub tail_ms: f64,
}

impl Latency {
    /// Sorts `ns` (nanoseconds) and reduces it under the sample-count
    /// rule, the tail capped at p99.
    pub fn of(ns: &mut [u64]) -> Latency {
        ns.sort_unstable();
        let ms = |p: f64| percentile(ns, p) as f64 / 1e6;
        let mut out = Latency {
            n: ns.len(),
            ..Latency::default()
        };
        if supported_percentile(ns.len(), 50.0).is_some() {
            out.p50_ms = ms(50.0);
        }
        if let Some(p) = supported_percentile(ns.len(), 99.0) {
            out.tail_pct = p;
            out.tail_ms = ms(p);
        }
        out
    }

    /// One human-readable line stating the sample count.
    pub fn describe(&self, what: &str) -> String {
        format!(
            "{what}: p50 {:.3} ms, p{} {:.3} ms (n={})",
            self.p50_ms, self.tail_pct, self.tail_ms, self.n
        )
    }
}

/// One thread's `(comm, utime + stime ticks)` from a
/// `/proc/<pid>/task/<tid>/stat` line. The command name sits between
/// the first `(` and the *last* `)` and may itself contain spaces and
/// parentheses, so the numeric fields are split only after that `)`.
pub fn parse_task_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // After the `)`: field 3 (state) onward; utime and stime are
    // fields 14 and 15.
    let fields: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// `(all ticks, steal ticks)` from the aggregate `cpu` line of
/// `/proc/stat`: time the host's hypervisor gave to other guests.
pub fn parse_host_stat(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}

/// CPU ticks of every live thread of this process, plus the process
/// total (which keeps the time of exited threads) and the host's.
#[derive(Debug, Clone, Default)]
pub struct CpuSnap {
    /// `tid → (comm, ticks)`.
    pub threads: BTreeMap<u64, (String, u64)>,
    /// utime + stime of the whole process, in ticks.
    pub process: u64,
    /// `(all, steal)` ticks of the whole machine.
    pub host: (u64, u64),
}

impl CpuSnap {
    /// Reads `/proc/self/stat` and every `/proc/self/task/*/stat`.
    pub fn take() -> CpuSnap {
        let mut snap = CpuSnap::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            snap.host = parse_host_stat(&stat).unwrap_or_default();
        }
        if let Ok(line) = std::fs::read_to_string("/proc/self/stat") {
            snap.process = parse_task_stat(&line).map_or(0, |(_, t)| t);
        }
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                if let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) {
                    if let Some(parsed) = parse_task_stat(&line) {
                        snap.threads.insert(tid, parsed);
                    }
                }
            }
        }
        snap
    }

    /// CPU seconds spent between `self` and `later` by threads whose
    /// name starts with `prefix` (threads born inside the window count
    /// from zero; threads that died inside it are lost).
    pub fn thread_secs(&self, later: &CpuSnap, prefix: &str) -> f64 {
        let ticks: u64 = later
            .threads
            .iter()
            .filter(|(_, (comm, _))| comm.starts_with(prefix))
            .map(|(tid, (_, t))| {
                t.saturating_sub(self.threads.get(tid).map_or(0, |(_, before)| *before))
            })
            .sum();
        ticks as f64 / USER_HZ
    }

    /// Process CPU seconds between `self` and `later`.
    pub fn process_secs(&self, later: &CpuSnap) -> f64 {
        later.process.saturating_sub(self.process) as f64 / USER_HZ
    }

    /// Share of the machine's CPU time, in percent, that the hypervisor
    /// stole between `self` and `later`.
    pub fn steal_pct(&self, later: &CpuSnap) -> f64 {
        let all = later.host.0.saturating_sub(self.host.0);
        let steal = later.host.1.saturating_sub(self.host.1);
        ratio(steal as f64 * 100.0, all as f64)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Transport counters summed over every node and taken as the
/// difference between two snapshots of the same nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportDelta {
    pub datagrams_tx: u64,
    pub datagrams_rx: u64,
    pub syscalls: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub shed: u64,
    pub decode_failures: u64,
    pub send_errors: u64,
    pub shm_datagrams_consumed: u64,
    pub shm_wakeups: u64,
    pub shm_ring_full_drops: u64,
}

impl TransportDelta {
    /// Sums `end[i] - start[i]` over nodes; `start` and `end` list the
    /// same nodes in the same order.
    pub fn between(start: &[TransportStats], end: &[TransportStats]) -> TransportDelta {
        let mut d = TransportDelta::default();
        for (a, b) in start.iter().zip(end) {
            d.datagrams_tx += b.hot.datagrams_tx - a.hot.datagrams_tx;
            d.datagrams_rx += b.hot.datagrams_rx - a.hot.datagrams_rx;
            d.syscalls +=
                (b.hot.syscalls_tx + b.hot.syscalls_rx) - (a.hot.syscalls_tx + a.hot.syscalls_rx);
            d.pool_hits += b.hot.pool_hits - a.hot.pool_hits;
            d.pool_misses += b.hot.pool_misses - a.hot.pool_misses;
            d.shed += b.submissions_shed - a.submissions_shed;
            d.decode_failures += b.decode_failures - a.decode_failures;
            d.send_errors += b.send_errors - a.send_errors;
            d.shm_datagrams_consumed += b.shm.datagrams_consumed - a.shm.datagrams_consumed;
            d.shm_wakeups += b.shm.doorbell_wakeups - a.shm.doorbell_wakeups;
            d.shm_ring_full_drops += b.shm.ring_full_drops - a.shm.ring_full_drops;
        }
        d
    }
}

/// Session-frontend counters summed over daemons, as a window delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendDelta {
    pub wakeups: u64,
    pub events_sent: u64,
    pub shed: u64,
    pub bad_frames: u64,
}

impl FrontendDelta {
    /// Sums `end[i] - start[i]` over daemons.
    pub fn between(start: &[FrontendStats], end: &[FrontendStats]) -> FrontendDelta {
        let mut d = FrontendDelta::default();
        for (a, b) in start.iter().zip(end) {
            d.wakeups += b.wakeups - a.wakeups;
            d.events_sent += b.events_sent - a.events_sent;
            d.shed += b.events_shed() - a.events_shed();
            d.bad_frames += b.bad_frames - a.bad_frames;
        }
        d
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(1_000, 99.0), Some(99.0));
        // 999 samples leave 9.99 beyond p99: fall back to p95.
        assert_eq!(supported_percentile(999, 99.0), Some(95.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(19, 99.0), None);
        assert_eq!(supported_percentile(0, 50.0), None);
        // p99.9 is offered only when asked for.
        assert_eq!(supported_percentile(1_000_000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(1_000_000, 99.9), Some(99.9));
        assert_eq!(supported_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(supported_percentile(9_999, 99.9), Some(99.0));
    }

    #[test]
    fn latency_reports_the_supported_tail_and_its_count() {
        let mut ns: Vec<u64> = (1..=200).rev().map(|i| i * 1_000_000).collect();
        let l = Latency::of(&mut ns);
        assert_eq!(l.n, 200);
        assert_eq!(l.tail_pct, 95.0);
        assert_eq!(l.tail_ms, 190.0);
        assert_eq!(l.p50_ms, 100.0);
        let mut few: Vec<u64> = vec![5; 19];
        assert_eq!(Latency::of(&mut few).p50_ms, 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 1.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn task_stat_parses_names_with_spaces_and_parens() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 111 222 13 14 15 16 17 18 19 20";
        for comm in ["accelring-P0", "kv-replica 0", "a) (b", "x)", "((y"] {
            let line = format!("4242 ({comm}) {tail}");
            assert_eq!(
                parse_task_stat(&line),
                Some((comm.to_string(), 333)),
                "comm {comm:?}"
            );
        }
        assert_eq!(parse_task_stat("4242 (short) S 1 2"), None);
        assert_eq!(parse_task_stat("garbage"), None);
    }

    #[test]
    fn host_stat_yields_total_and_steal_ticks() {
        let stat = "cpu  100 5 50 800 10 0 20 15 7 0\ncpu0 50 2 25 400 5 0 10 8 3 0\n";
        assert_eq!(parse_host_stat(stat), Some((1000, 15)));
        assert_eq!(parse_host_stat("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_stat("intr 5\n"), None);
        let a = CpuSnap {
            host: (1000, 15),
            ..CpuSnap::default()
        };
        let b = CpuSnap {
            host: (3000, 415),
            ..CpuSnap::default()
        };
        assert!((a.steal_pct(&b) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn thread_cpu_is_a_window_delta_by_name_prefix() {
        let mut a = CpuSnap::default();
        a.threads.insert(1, ("accelring-P0".into(), 100));
        a.threads.insert(2, ("accelring-P1".into(), 50));
        a.threads.insert(3, ("kv-replica-0".into(), 7));
        a.process = 1_000;
        let mut b = a.clone();
        b.threads.insert(1, ("accelring-P0".into(), 160));
        b.threads.insert(2, ("accelring-P1".into(), 90));
        // Born inside the window: counts from zero.
        b.threads.insert(4, ("accelring-P2".into(), 30));
        b.process = 1_250;
        assert!((a.thread_secs(&b, "accelring-") - 1.3).abs() < 1e-9);
        assert_eq!(a.thread_secs(&b, "kv-"), 0.0);
        assert!((a.process_secs(&b) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn this_process_cpu_is_readable() {
        let a = CpuSnap::take();
        assert!(!a.threads.is_empty());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = CpuSnap::take();
        assert!(b.process >= a.process);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn transport_delta_excludes_counts_before_the_window() {
        let mut a = TransportStats::default();
        a.hot.datagrams_tx = 1_000;
        a.hot.syscalls_tx = 40;
        a.hot.syscalls_rx = 60;
        a.hot.pool_hits = 500;
        a.submissions_shed = 3;
        a.shm.doorbell_wakeups = 9;
        let mut b = a;
        b.hot.datagrams_tx = 1_600;
        b.hot.syscalls_tx = 50;
        b.hot.syscalls_rx = 75;
        b.hot.pool_hits = 800;
        b.submissions_shed = 3;
        b.shm.doorbell_wakeups = 12;
        let mut c = TransportStats::default();
        c.hot.datagrams_tx = 10;
        let d = TransportDelta::between(&[a, c], &[b, c]);
        assert_eq!(d.datagrams_tx, 600);
        assert_eq!(d.syscalls, 25);
        assert_eq!(d.pool_hits, 300);
        assert_eq!(d.shed, 0);
        assert_eq!(d.shm_wakeups, 3);
    }

    #[test]
    fn frontend_delta_sums_daemons() {
        let a = FrontendStats {
            wakeups: 10,
            events_sent: 100,
            shed_slow_session: 1,
            ..FrontendStats::default()
        };
        let b = FrontendStats {
            wakeups: 30,
            events_sent: 400,
            shed_slow_session: 2,
            bad_frames: 1,
            ..FrontendStats::default()
        };
        let d = FrontendDelta::between(&[a, a], &[b, a]);
        assert_eq!(d.wakeups, 20);
        assert_eq!(d.events_sent, 300);
        assert_eq!(d.shed, 1);
        assert_eq!(d.bad_frames, 1);
    }
}
