//! What every workload shares: the run plan (warm-up, then the
//! measured window, split into an untraced and a traced half when
//! tracing), boundary snapshots of every layer's counters, set-up
//! timing, and the assembly of the reported metrics.

use std::time::{Duration, Instant};

use accelring_core::FrontendStats;
use accelring_daemon::ClientEvent;
use accelring_transport::TransportStats;
use crossbeam::channel::Receiver;

use crate::measure::{peak_rss_mib, ratio, CpuSnap, FrontendDelta, Latency, TransportDelta};

/// Load runs this long before the measured window opens, so ring
/// formation traffic, pool misses and lazy set-up stay outside it.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median and the last one serves
/// the measured window.
pub const SETUPS: usize = 3;

/// Thread-name prefixes (as `/proc` truncates them to 15 bytes) of the
/// layers the stack runs on its own threads.
pub const GEN_THREADS: &str = "gen-";
pub const TRANSPORT_THREADS: &str = "accelring-";
pub const DAEMON_THREADS: &str = "group-daemon-";
pub const MULTIRING_THREADS: &str = "multiring-daem";
pub const KV_THREADS: &str = "kv-";

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The run's phases on the wall clock. Phase 0 is the warm-up; phases
/// `1..` are measured. A traced run measures two halves on identical
/// inputs: phase 1 untraced, phase 2 traced.
#[derive(Debug, Clone)]
pub struct Plan {
    pub start: Instant,
    /// `bounds[k]` ends phase `k`.
    pub bounds: Vec<Instant>,
    pub traced: bool,
}

impl Plan {
    /// Starts the clock now.
    pub fn new(cfg: &Cfg) -> Plan {
        let start = Instant::now();
        let warm = start + WARMUP;
        let window = Duration::from_secs_f64(cfg.seconds);
        let bounds = if cfg.trace {
            vec![warm, warm + window / 2, warm + window]
        } else {
            vec![warm, warm + window]
        };
        Plan {
            start,
            bounds,
            traced: cfg.trace,
        }
    }

    /// The phase `t` falls in, or `None` once the plan is over.
    pub fn phase_at(&self, t: Instant) -> Option<usize> {
        self.bounds.iter().position(|&b| t < b)
    }

    /// Whether phase `k` records spans.
    pub fn is_traced(&self, k: usize) -> bool {
        self.traced && k == 2
    }

    /// When load stops.
    pub fn end(&self) -> Instant {
        *self.bounds.last().expect("a plan has phases")
    }

    /// Number of phases, warm-up included.
    pub fn phases(&self) -> usize {
        self.bounds.len()
    }

    /// Length of measured phase `k` in seconds.
    pub fn secs(&self, k: usize) -> f64 {
        (self.bounds[k] - self.bounds[k - 1]).as_secs_f64()
    }
}

/// Sleeps until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What the generator observed in one phase. Ops belong to the phase
/// their due time (open loop) or submit time (closed loop) falls in.
#[derive(Debug, Default)]
pub struct PhaseLoad {
    /// Ops issued.
    pub attempted: u64,
    /// Ops of any phase that completed inside this one.
    pub done_in: u64,
    /// Per completed op: due or submit time to completion at the last
    /// member, replica or watcher, in ns.
    pub lat_ns: Vec<u64>,
    /// The same for cross-ring transactions only.
    pub txn_lat_ns: Vec<u64>,
    /// How late the open loop issued its latest op, in ns.
    pub late_max_ns: u64,
    /// Traced: duration of each `NodeHandle::submit` call.
    pub submit_ns: Vec<u64>,
    /// `NodeHandle::submit` calls and how many were refused as
    /// backlogged.
    pub submit_calls: u64,
    pub backlogged: u64,
    /// Traced: duration of each session submit call.
    pub client_send_ns: Vec<u64>,
    /// Traced: due time to merged delivery at the last daemon.
    pub deliver_ns: Vec<u64>,
    pub txn_deliver_ns: Vec<u64>,
    /// Traced: merged delivery at the last daemon to apply at the last
    /// replica.
    pub apply_ns: Vec<u64>,
}

impl PhaseLoad {
    /// Ops that never completed.
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.lat_ns.len() as u64)
    }
}

/// Records one completed op: its latency under the phase it was issued
/// in, its completion under the phase it completed in. Returns the
/// issuing phase's load.
pub fn complete<'a>(
    loads: &'a mut [PhaseLoad],
    plan: &Plan,
    issued: usize,
    done: Instant,
    lat_ns: u64,
) -> &'a mut PhaseLoad {
    if let Some(k) = plan.phase_at(done) {
        loads[k].done_in += 1;
    }
    let load = &mut loads[issued];
    load.lat_ns.push(lat_ns);
    load
}

/// Counters of every layer at one phase boundary.
#[derive(Debug, Clone)]
pub struct Snap {
    pub cpu: CpuSnap,
    pub transport: Vec<TransportStats>,
    pub frontend: Vec<FrontendStats>,
    pub kv_txns_expired: u64,
    /// Regular configurations installed, summed over daemons.
    pub reforms: u64,
    pub token_retransmits: u64,
}

impl Snap {
    /// A snapshot with the CPU read now and no layer counters.
    pub fn cpu_only() -> Snap {
        Snap {
            cpu: CpuSnap::take(),
            transport: Vec::new(),
            frontend: Vec::new(),
            kv_txns_expired: 0,
            reforms: 0,
            token_retransmits: 0,
        }
    }
}

/// Drains event streams of in-process clients and counts the regular
/// configurations (ring re-formations) they were told about.
pub fn regular_configs<'a>(streams: impl Iterator<Item = &'a Receiver<ClientEvent>>) -> u64 {
    streams
        .flat_map(|rx| rx.try_iter())
        .filter(|ev| {
            matches!(
                ev,
                ClientEvent::Config {
                    transitional: false,
                    ..
                }
            )
        })
        .count() as u64
}

/// Takes `snap()` at every phase boundary of `plan` (sleeping in
/// between): `snaps[k]` closes phase `k`.
pub fn snap_boundaries(plan: &Plan, mut snap: impl FnMut() -> Snap) -> Vec<Snap> {
    plan.bounds
        .iter()
        .map(|&b| {
            sleep_until(b);
            snap()
        })
        .collect()
}

/// Set-up timings of every set-up in the run.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Spawn to fully serving (probe op at every member, replicas
    /// serving, sessions welcomed), in s.
    pub setup_s: Vec<f64>,
    /// Spawn to the ring probe op delivered at every member, in ms.
    pub form_ms: Vec<f64>,
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `setup` [`SETUPS`] times, tearing down all but the last, and
/// returns the last deployment with every timing.
pub fn repeated_setup<D>(
    mut setup: impl FnMut(&mut SetupTimes) -> Result<D, String>,
    teardown: impl Fn(D),
) -> Result<(D, SetupTimes), String> {
    let mut times = SetupTimes::default();
    for _ in 1..SETUPS {
        let d = setup(&mut times)?;
        teardown(d);
    }
    let d = setup(&mut times)?;
    Ok((d, times))
}

/// Correctness violations kept per run; a badly broken program would
/// otherwise record one per delivery.
const MAX_VIOLATIONS: usize = 100;

/// Records a correctness violation, keeping the first
/// [`MAX_VIOLATIONS`].
pub fn violation(list: &mut Vec<String>, what: String) {
    if list.len() < MAX_VIOLATIONS {
        list.push(what);
    }
}

/// Which layer hosts the session frontend a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendHost {
    None,
    Daemon,
    Multiring,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Everything a workload hands to [`assemble`].
pub struct Measured<'a> {
    pub plan: &'a Plan,
    /// Indexed by phase, warm-up included.
    pub loads: Vec<PhaseLoad>,
    pub snaps: Vec<Snap>,
    pub setup: SetupTimes,
    pub host: FrontendHost,
    /// Correctness-gate violations found over the whole run.
    pub violations: Vec<String>,
    /// In-doubt kv ops the generator resubmitted during the drain.
    pub kv_resubmitted: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn p50_ms(ns: &mut [u64]) -> f64 {
    Latency::of(ns).p50_ms
}

fn p50_us(ns: &mut [u64]) -> f64 {
    p50_ms(ns) * 1e3
}

/// The end-to-end numbers of one measured phase.
struct EndToEnd {
    lat: Latency,
    txn: Latency,
    ops_per_s: f64,
    cpu_us_per_op: f64,
    failed_ratio: f64,
}

fn end_to_end(load: &mut PhaseLoad, a: &Snap, b: &Snap, secs: f64) -> EndToEnd {
    EndToEnd {
        lat: Latency::of(&mut load.lat_ns),
        txn: Latency::of(&mut load.txn_lat_ns),
        ops_per_s: load.done_in as f64 / secs,
        cpu_us_per_op: ratio(a.cpu.process_secs(&b.cpu) * 1e6, load.done_in as f64),
        failed_ratio: ratio(load.failed() as f64, load.attempted as f64),
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Builds the reported metrics. An untraced run reports the bounded
/// end-to-end set. A traced run reports, from its traced half, the
/// per-layer set; from its untraced half, the end-to-end numbers too
/// noisy on a 2-core box to carry a bound (`e2e.*`); and the overhead
/// of tracing as the difference between the halves.
pub fn assemble(mut m: Measured<'_>) -> Outcome {
    let plan = m.plan;
    let mut notes = Vec::new();
    let attempted: u64 = m.loads[1..].iter().map(|l| l.attempted).sum();
    let failed: u64 = m.loads[1..].iter().map(PhaseLoad::failed).sum();
    for v in m.violations.iter().take(10) {
        notes.push(format!("VIOLATION: {v}"));
    }
    if let Some(last) = m.snaps.last() {
        let count = |prefix: &str| {
            last.cpu
                .threads
                .values()
                .filter(|(comm, _)| comm.starts_with(prefix))
                .count()
        };
        notes.push(format!(
            "threads: gen {}, transport {}, daemon {}, multiring {}, kv {}, all {}",
            count(GEN_THREADS),
            count(TRANSPORT_THREADS),
            count(DAEMON_THREADS),
            count(MULTIRING_THREADS),
            count(KV_THREADS),
            last.cpu.threads.len()
        ));
    }
    let setup_s = median(&m.setup.setup_s);
    let form_ms = median(&m.setup.form_ms);
    notes.push(format!(
        "setup_s samples {:?}, membership form_ms samples {:?}",
        m.setup.setup_s, m.setup.form_ms
    ));
    let rss_mib = peak_rss_mib();
    let window = (&m.snaps[0].cpu, &m.snaps[m.snaps.len() - 1].cpu);
    notes.push(format!(
        "host steal {:.1}% of all CPU time in the measured window",
        window.0.steal_pct(window.1)
    ));
    let e1 = end_to_end(&mut m.loads[1], &m.snaps[0], &m.snaps[1], plan.secs(1));
    notes.push(format!(
        "untraced window: ops_per_s {:.1}, p50_ms {:.4}, p99_ms {:.4} (as p{}, n={}), \
         txn_p50_ms {:.4} (n={}), cpu_us_per_op {:.3}, rss_mib {:.2}, failed_ratio {:.6} \
         ({} of {} ops)",
        e1.ops_per_s,
        e1.lat.p50_ms,
        e1.lat.tail_ms,
        e1.lat.tail_pct,
        e1.lat.n,
        e1.txn.p50_ms,
        e1.txn.n,
        e1.cpu_us_per_op,
        rss_mib,
        e1.failed_ratio,
        m.loads[1].failed(),
        m.loads[1].attempted,
    ));
    let correct = m.violations.is_empty();
    if !plan.traced {
        return Outcome {
            correct,
            attempted,
            failed,
            metrics: vec![
                metric("cpu_us_per_op", "us", e1.cpu_us_per_op),
                metric("setup_s", "s", setup_s),
            ],
            notes,
        };
    }

    let (a, b) = (&m.snaps[1], &m.snaps[2]);
    let secs = plan.secs(2);
    let late_max_ms = m.loads[1..]
        .iter()
        .map(|l| ms(l.late_max_ns))
        .fold(0.0, f64::max);
    let load = &mut m.loads[2];
    let e2 = end_to_end(load, a, b, secs);
    notes.push(e2.lat.describe("traced window latency"));
    let t = TransportDelta::between(&a.transport, &b.transport);
    let f = FrontendDelta::between(&a.frontend, &b.frontend);
    let cores = |prefix| a.cpu.thread_secs(&b.cpu, prefix) / secs;
    let completed = load.done_in as f64;
    let (daemon_fe, multiring_fe) = match m.host {
        FrontendHost::Daemon => (Some(f), None),
        FrontendHost::Multiring => (None, Some(f)),
        FrontendHost::None => (None, None),
    };
    let pct = |traced: f64, untraced: f64| ratio((traced - untraced) * 100.0, untraced);
    let metrics = vec![
        metric("e2e.ops_per_s", "1/s", e1.ops_per_s),
        metric("e2e.p50_ms", "ms", e1.lat.p50_ms),
        metric("e2e.p99_ms", "ms", e1.lat.tail_ms),
        metric("e2e.txn_p50_ms", "ms", e1.txn.p50_ms),
        metric("e2e.rss_mib", "MiB", rss_mib),
        metric("e2e.failed_ratio", "ratio", e1.failed_ratio),
        metric("gen.late_max_ms", "ms", late_max_ms),
        metric("gen.cpu_cores", "cores", cores(GEN_THREADS)),
        metric("gen.steal_pct", "%", a.cpu.steal_pct(&b.cpu)),
        metric("membership.form_ms", "ms", form_ms),
        metric(
            "membership.reforms",
            "count",
            b.reforms.saturating_sub(a.reforms) as f64,
        ),
        metric("transport.cpu_cores", "cores", cores(TRANSPORT_THREADS)),
        metric(
            "transport.datagrams_per_op",
            "count",
            ratio(t.datagrams_tx as f64, completed),
        ),
        metric(
            "transport.syscalls_per_datagram",
            "ratio",
            ratio(t.syscalls as f64, (t.datagrams_tx + t.datagrams_rx) as f64),
        ),
        metric(
            "transport.pool_hit_rate",
            "ratio",
            ratio(t.pool_hits as f64, (t.pool_hits + t.pool_misses) as f64),
        ),
        metric("transport.submit_us", "us", p50_us(&mut load.submit_ns)),
        metric(
            "transport.backlogged_ratio",
            "ratio",
            ratio(load.backlogged as f64, load.submit_calls as f64),
        ),
        metric(
            "transport.shm_datagrams_per_wakeup",
            "count",
            ratio(t.shm_datagrams_consumed as f64, t.shm_wakeups as f64),
        ),
        metric(
            "transport.token_retransmits",
            "count",
            b.token_retransmits.saturating_sub(a.token_retransmits) as f64,
        ),
        metric("transport.shed", "count", t.shed as f64),
        metric(
            "transport.decode_failures",
            "count",
            t.decode_failures as f64,
        ),
        metric("transport.send_errors", "count", t.send_errors as f64),
        metric(
            "transport.shm_ring_full_drops",
            "count",
            t.shm_ring_full_drops as f64,
        ),
        metric("daemon.cpu_cores", "cores", cores(DAEMON_THREADS)),
        metric(
            "daemon.wakeups_per_s",
            "1/s",
            daemon_fe.map_or(0.0, |f| f.wakeups as f64 / secs),
        ),
        metric(
            "daemon.events_per_wakeup",
            "count",
            daemon_fe.map_or(0.0, |f| ratio(f.events_sent as f64, f.wakeups as f64)),
        ),
        metric(
            "daemon.client_send_us",
            "us",
            p50_us(&mut load.client_send_ns),
        ),
        metric("daemon.shed", "count", f.shed as f64),
        metric("daemon.bad_frames", "count", f.bad_frames as f64),
        metric("multiring.cpu_cores", "cores", cores(MULTIRING_THREADS)),
        metric(
            "multiring.wakeups_per_s",
            "1/s",
            multiring_fe.map_or(0.0, |f| f.wakeups as f64 / secs),
        ),
        metric(
            "multiring.deliver_p50_ms",
            "ms",
            p50_ms(&mut load.deliver_ns),
        ),
        metric(
            "multiring.txn_deliver_p50_ms",
            "ms",
            p50_ms(&mut load.txn_deliver_ns),
        ),
        metric("kv.cpu_cores", "cores", cores(KV_THREADS)),
        metric("kv.apply_p50_ms", "ms", p50_ms(&mut load.apply_ns)),
        metric("kv.resubmitted", "count", m.kv_resubmitted as f64),
        metric(
            "kv.txns_expired",
            "count",
            b.kv_txns_expired.saturating_sub(a.kv_txns_expired) as f64,
        ),
        metric(
            "trace.cpu_overhead_pct",
            "%",
            pct(e2.cpu_us_per_op, e1.cpu_us_per_op),
        ),
        metric(
            "trace.p50_overhead_pct",
            "%",
            pct(e2.lat.p50_ms, e1.lat.p50_ms),
        ),
        metric(
            "trace.ops_per_s_overhead_pct",
            "%",
            ratio((e1.ops_per_s - e2.ops_per_s) * 100.0, e1.ops_per_s),
        ),
    ];
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Renders the result line: one JSON object with the four keys the
/// contract names. Metric values print with every digit measured.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_phases_split_the_window_when_traced() {
        let untraced = Plan::new(&Cfg {
            seed: 1,
            seconds: 4.0,
            trace: false,
        });
        assert_eq!(untraced.phases(), 2);
        assert!(!untraced.is_traced(1));
        assert_eq!(untraced.phase_at(untraced.start), Some(0));
        assert_eq!(untraced.phase_at(untraced.start + WARMUP), Some(1));
        assert_eq!(untraced.phase_at(untraced.end()), None);

        let traced = Plan::new(&Cfg {
            seed: 1,
            seconds: 4.0,
            trace: true,
        });
        assert_eq!(traced.phases(), 3);
        assert!(!traced.is_traced(1));
        assert!(traced.is_traced(2));
        assert!((traced.secs(1) - 2.0).abs() < 1e-9);
        assert!((traced.secs(2) - 2.0).abs() < 1e-9);
        let mid = traced.start + WARMUP + Duration::from_secs(3);
        assert_eq!(traced.phase_at(mid), Some(2));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "p50_ms",
                unit: "ms",
                value: 1.25,
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
