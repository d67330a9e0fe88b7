//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream-1050|archive-markov|serve-wal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for about
//! `--seconds` seconds, checks the engine's answers against a reference
//! path and prints, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (see `BENCHMARK.json`); with
//! `--trace 1` they are the per-layer ones, taken from spans the
//! benchmark records around its own calls into the engine's public API
//! (the engine's tracer stays off). The lines before the result carry the
//! run record (host, seed, run length and count) and every metric under
//! its workload-specific name with median and quartiles.

mod archive;
mod loadgen;
mod out;
mod serve;
mod spans;
mod stats;
mod stream;

use out::Report;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::PathBuf::from(format!(
            ".perfbench/trace-{}-{}.json",
            self.workload, self.seed
        ))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !matches!(
        args.workload.as_str(),
        "stream-1050" | "archive-markov" | "serve-wal"
    ) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    let mut report = Report::new(&args);
    let cpu_before = out::cpu_jiffies();
    let budget = Duration::from_secs_f64(args.seconds);
    let run = match args.workload.as_str() {
        "stream-1050" => stream::run(&args, budget, process_start, &mut report),
        "archive-markov" => archive::run(&args, budget, process_start, &mut report),
        _ => serve::run(&args, budget, process_start, &mut report),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    // CPU time the host took from this machine while the run went on: a
    // run with a large share measured a busy host, not the code.
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, out::cpu_jiffies()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        report.named_value("host.cpu_steal_share", "ratio", share);
    }
    report.finish();
}
