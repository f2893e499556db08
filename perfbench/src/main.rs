//! The repository benchmark: the whole user path, from netlist text to
//! oracle-checked rows and from socket to response.
//!
//! ```text
//! uds-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               --udsim PATH --work-dir DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` times each
//! layer from outside by wrapping calls to its public entry points.
//! Both check every output against the event-driven oracle. The last
//! stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); the exit code is nonzero when any check failed.
//! `perfbench/run.sh` builds this and the `udsim` daemon and runs it;
//! `perfbench/README.md` says what each metric should move.

// `SimError` is large but only travels on failure paths; the library
// makes the same trade.
#![allow(clippy::result_large_err)]

mod common;
mod serve;
mod stream;

use std::path::PathBuf;
use std::process::Command;

/// End-to-end metrics: (name, unit). Every workload reports each.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("vectors_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit, layer, what it should move). Every
/// traced run reports each; a layer a workload's path never enters
/// reads 0 there. "flat" names workloads where no change is predicted.
const PER_LAYER: [(&str, &str, &str, &str); 33] = [
    (
        "netlist.parse_s",
        "s",
        "uds-netlist",
        "setup_s on stream-c6288, native-c1908; vectors_per_s on serve-mix",
    ),
    (
        "netlist.levelize_s",
        "s",
        "uds-netlist",
        "setup_s on stream-c6288, native-c1908",
    ),
    (
        "parallel.compile_s",
        "s",
        "uds-parallel",
        "setup_s on stream-c6288; vectors_per_s on serve-mix (misses)",
    ),
    (
        "parallel.word_ops",
        "count",
        "uds-parallel",
        "vectors_per_s on stream-c6288, stream-c432",
    ),
    (
        "parallel.shifts_retained",
        "count",
        "uds-parallel",
        "vectors_per_s on stream-c6288, stream-c432",
    ),
    (
        "parallel.field_words",
        "count",
        "uds-parallel",
        "vectors_per_s on stream-c6288, stream-c432",
    ),
    (
        "parallel.raw_ns_per_vector",
        "ns",
        "uds-parallel",
        "vectors_per_s on stream-c6288, stream-c432",
    ),
    (
        "eventsim.prepass_s",
        "s",
        "uds-eventsim",
        "vectors_per_s on stream-c432; flat on stream-c6288",
    ),
    (
        "guard.overhead_ns_per_vector",
        "ns",
        "uds-core::guard",
        "vectors_per_s on stream-c432; flat on stream-c6288",
    ),
    (
        "guard.rss_bytes_per_vector",
        "B",
        "uds-core::guard",
        "peak_rss_mb on stream-c432",
    ),
    (
        "guard.fallbacks",
        "count",
        "uds-core::guard",
        "must stay 0 everywhere",
    ),
    (
        "batch.overhead_ns_per_vector",
        "ns",
        "uds-core::batch",
        "vectors_per_s on stream-c432, native-c1908",
    ),
    (
        "batch.shard_skew",
        "ratio",
        "uds-core::batch",
        "vectors_per_s on native-c1908",
    ),
    (
        "native.emit_s",
        "s",
        "uds-core::native",
        "setup_s on native-c1908; flat elsewhere",
    ),
    (
        "native.c_bytes",
        "B",
        "uds-core::native",
        "setup_s on native-c1908; flat elsewhere",
    ),
    (
        "native.build_cold_s",
        "s",
        "uds-core::native",
        "setup_s on native-c1908; flat elsewhere",
    ),
    (
        "native.build_warm_s",
        "s",
        "uds-core::native",
        "setup_s on native-c1908; flat elsewhere",
    ),
    (
        "native.cc_s",
        "s",
        "uds-core::native",
        "setup_s on native-c1908; flat elsewhere",
    ),
    (
        "native.raw_ns_per_vector",
        "ns",
        "uds-core::native",
        "vectors_per_s on native-c1908",
    ),
    (
        "native.jobs2_speedup",
        "ratio",
        "uds-core::native",
        "vectors_per_s on native-c1908",
    ),
    (
        "serve.queue_wait_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix",
    ),
    (
        "serve.parse_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix",
    ),
    (
        "serve.cache_lookup_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix",
    ),
    (
        "serve.compile_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix (misses)",
    ),
    (
        "serve.simulate_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix",
    ),
    (
        "serve.serialize_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix",
    ),
    (
        "serve.server_wall_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix",
    ),
    (
        "serve.unattributed_ms",
        "ms",
        "uds-core::serve",
        "vectors_per_s on serve-mix",
    ),
    (
        "http.client_gap_ms",
        "ms",
        "uds-core::http",
        "vectors_per_s on serve-mix",
    ),
    (
        "http.requests_per_connection",
        "count",
        "uds-core::http",
        "vectors_per_s on serve-mix",
    ),
    (
        "cache.hit_ratio",
        "ratio",
        "uds-core::cache",
        "vectors_per_s on serve-mix",
    ),
    (
        "trace.overhead",
        "ratio",
        "benchmark",
        "none: traced minus untraced path",
    ),
    (
        "unattributed_s",
        "s",
        "benchmark",
        "none: path time no timed layer covers",
    ),
];

const WORKLOADS: [&str; 4] = ["stream-c432", "stream-c6288", "native-c1908", "serve-mix"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `udsim` binary the serve workload runs as its daemon.
    pub udsim: PathBuf,
    /// Scratch space for native artifacts and request logs.
    pub work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10;
        let mut trace = false;
        let mut udsim = None;
        let mut work_dir = None;
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => trace = number()? != 0,
                "--udsim" => udsim = Some(PathBuf::from(&value)),
                "--work-dir" => work_dir = Some(PathBuf::from(&value)),
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of: {})",
                WORKLOADS.join(", ")
            ));
        }
        let work_dir = work_dir.ok_or("--work-dir is required")?;
        std::fs::create_dir_all(&work_dir)
            .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            udsim: udsim.ok_or("--udsim is required")?,
            work_dir,
        })
    }
}

/// What a run measured and how many of its operations failed.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; `fault` says why it failed.
    pub fn attempt(&mut self, fault: Option<String>) {
        self.attempted += 1;
        if let Some(fault) = fault {
            self.failed += 1;
            if self.faults.len() < 8 {
                self.faults.push(fault);
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn metric_names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(name, _)| name.as_str())
    }

    /// Takes over `other`'s checked operations and failures.
    pub fn absorb_checks(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.faults.extend(other.faults.iter().cloned());
        self.faults.truncate(8);
    }
}

/// First line of `program --version`, or why there is none.
fn version(program: &str) -> String {
    Command::new(program)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unavailable".to_owned())
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("uds-perfbench: {message}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cc = std::env::var("UDS_CC").unwrap_or_else(|_| "cc".to_owned());
    println!(
        "host: nproc {nproc}; rustc: {}; cc: {}",
        version("rustc"),
        version(&cc)
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("stream-c432", false) => stream::run(&args, &stream::STREAM_C432),
        ("stream-c432", true) => stream::trace(&args, &stream::STREAM_C432),
        ("stream-c6288", false) => stream::run(&args, &stream::STREAM_C6288),
        ("stream-c6288", true) => stream::trace(&args, &stream::STREAM_C6288),
        ("native-c1908", false) => stream::run(&args, &stream::NATIVE_C1908),
        ("native-c1908", true) => stream::trace(&args, &stream::NATIVE_C1908),
        (_, trace) => serve::run(&args, trace),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("uds-perfbench: {}: {message}", args.workload);
            std::process::exit(1);
        }
    };

    let table: Vec<(&str, &str, f64, String)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, layer, moves)| match report.value(name) {
                Some(value) => (name, unit, value, format!("{layer} -> {moves}")),
                None => (
                    name,
                    unit,
                    0.0,
                    format!("{layer}: not on this workload's path"),
                ),
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = report
                    .value(name)
                    .expect("every workload reports every metric");
                (name, unit, value, String::new())
            })
            .collect()
    };
    for (name, _, value, _) in &table {
        if !value.is_finite() {
            report.attempt(Some(format!("{name} is not a number: {value}")));
        }
    }
    for note in &report.notes {
        println!("{}: {note}", args.workload);
    }
    for fault in &report.faults {
        println!("{}: FAILED: {fault}", args.workload);
    }
    for (name, unit, value, layer) in &table {
        println!("  {name:<30} {value:>16.6} {unit:<6} {layer}");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit, value, _)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
