//! The ordering stack's benchmark: one command runs a named workload
//! from a seed against an in-process deployment, checks its outputs,
//! and prints every metric by name and unit. The last line of standard
//! output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flood --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced window.
//! `--trace 1` splits the window into an untraced and a traced half on
//! identical inputs and prints the per-layer metrics of the traced half
//! and the tracing overhead between the two. See `perfbench/README.md`
//! for why each workload exists and what each metric should move.

mod common;
mod fanout;
mod flood;
mod inputs;
mod kv;
mod measure;

use std::process::ExitCode;

use accelring_transport::Transport;

use common::{result_json, Cfg};

const USAGE: &str =
    "usage: perfbench --workload flood|flood_shm|kv|fanout --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(String, Cfg), String> {
    let mut workload = None;
    let mut cfg = Cfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(cfg.seconds >= 1.0 && cfg.seconds <= 600.0) {
        return Err("--seconds: need 1 to 600".into());
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "flood" => flood::run(&cfg, Transport::Udp),
        "flood_shm" => flood::run(&cfg, Transport::Shm),
        "kv" => kv::run(&cfg),
        "fanout" => fanout::run(&cfg),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {workload}, seed {}, {} s, trace {}, {} cores",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !outcome.correct {
        eprintln!("perfbench: {workload}: a correctness gate failed");
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
