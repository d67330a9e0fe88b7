//! The run record, the per-metric summary lines and the final result line.

use crate::stats::{median, quartiles};
use crate::Args;

/// One metric, with its samples (one per repeat, phase or request).
struct Metric {
    name: String,
    unit: String,
    samples: Vec<f64>,
}

fn push(list: &mut Vec<Metric>, name: &str, unit: &str, samples: &[f64]) {
    match list.iter_mut().find(|m| m.name == name) {
        Some(m) => m.samples.extend_from_slice(samples),
        None => list.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            samples: samples.to_vec(),
        }),
    }
}

/// Everything one run reports.
pub struct Report {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Operations attempted (ticks, μ series, requests).
    pub attempted: u64,
    /// Operations that errored, were refused, went missing or gave a
    /// wrong μ.
    pub failed: u64,
    /// Repeats of the workload's unit of work measured.
    pub repeats: usize,
    checks: Vec<(String, bool, String)>,
    named: Vec<Metric>,
    result: Vec<Metric>,
    notes: Vec<String>,
    peak_rss_mb: Option<f64>,
}

impl Report {
    pub fn new(args: &Args) -> Self {
        Self {
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            attempted: 0,
            failed: 0,
            repeats: 0,
            checks: Vec::new(),
            named: Vec::new(),
            result: Vec::new(),
            notes: Vec::new(),
            peak_rss_mb: None,
        }
    }

    /// Records a correctness check. A failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    /// Records a metric under its workload-specific name from its
    /// samples and returns their median, which the run reports.
    pub fn named(&mut self, name: &str, unit: &str, samples: &[f64]) -> f64 {
        push(&mut self.named, name, unit, samples);
        median(samples)
    }

    /// Records a metric that is a single value (a count, a percentile
    /// over the whole run, a share of its time).
    pub fn named_value(&mut self, name: &str, unit: &str, value: f64) -> f64 {
        self.named(name, unit, &[value])
    }

    /// Sets one key of the final result line (a name of `BENCHMARK.json`).
    pub fn result(&mut self, name: &str, value: f64, unit: &str) {
        push(&mut self.result, name, unit, &[value]);
    }

    /// A free-form line printed with the record (e.g. a ladder rung).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fixes the reported peak RSS at its current value, so that checks run
    /// after the measurement (e.g. a possible-worlds oracle) do not count.
    pub fn mark_peak_rss(&mut self) {
        self.peak_rss_mb = Some(peak_rss_mb());
    }

    /// Prints the record, the checks, every named metric (median over its
    /// samples, with quartiles), and the result line last.
    pub fn finish(mut self) {
        // Correctness is about the answers: a wrong μ fails a check (and
        // counts as a failed operation); a refused request only counts.
        let correct = self.checks.iter().all(|(_, ok, _)| *ok);
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let peak = self.peak_rss_mb.unwrap_or_else(peak_rss_mb);
        if self.trace {
            self.result("failed_ratio", failed_ratio, "ratio");
        } else {
            self.result("peak_rss_mb", peak, "MiB");
        }
        let fields: Vec<(&str, String)> = vec![
            ("workload", quote(&self.workload)),
            ("seed", self.seed.to_string()),
            ("seconds", num(self.seconds)),
            ("trace", self.trace.to_string()),
            ("repeats", self.repeats.to_string()),
            (
                "cores",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .to_string(),
            ),
            (
                "simd",
                quote(&format!("{:?}", lahar_core::simd::dispatch())),
            ),
            ("kernel", quote(&kernel_release())),
            ("rustc", quote(env!("PERFBENCH_RUSTC"))),
            ("git_rev", quote(&git_revision())),
            ("peak_rss_mb", num(peak)),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("failed_ratio", num(failed_ratio)),
        ];
        let record: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        println!("# record {{{}}}", record.join(","));
        for line in &self.notes {
            println!("# note {line}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "# check {name} {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for m in &self.named {
            let (q1, q3) = quartiles(&m.samples);
            println!(
                "# metric {} = {} {} (median of {}; q1 {}, q3 {})",
                m.name,
                num(median(&m.samples)),
                m.unit,
                m.samples.len(),
                num(q1),
                num(q3)
            );
        }
        let metrics: Vec<String> = self
            .result
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    num(median(&m.samples)),
                    quote(&m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `(steal, total)` CPU jiffies since boot, summed over CPUs
/// (`/proc/stat`).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The revision of the checkout, read from `.git` in the working
/// directory without running git (a checkout exported without history
/// reports `unknown`).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
