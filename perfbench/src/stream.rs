//! The stream workloads: one circuit's `.bench` text parsed and
//! compiled behind the guard, then a seeded vector stream pushed through
//! `run_batch`, every job checked against the oracle.
//!
//! Timed jobs are short slices of the stream, so a run holds hundreds
//! of them and its quantiles are well sampled; peak memory is taken on
//! jobs over the whole stream, where per-vector growth shows.

use std::path::{Path, PathBuf};
use std::time::Instant;

use uds_core::{
    build_native, build_simulator, chain_preferring, compiler_available, run_batch, shard_bounds,
    BatchOutput, Engine, GuardedSimulator, UnitDelaySimulator, WordWidth,
};
use uds_eventsim::zero_delay::stable_states;
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::{bench_format, levelize, Netlist, NoopProbe, ResourceLimits};
use uds_parallel::{codegen_c, Optimization, ParallelSimulator};

use crate::common::{
    fast, fast_secs, median, normalized, oracle_sample, proc_status_bytes, quantile, reference,
    release_free_memory, reset_peak_rss, secs, timed, GaugeProbe, Rng, MIB,
};
use crate::{Args, Report};

/// One stream workload.
pub struct StreamSpec {
    pub circuit: Iscas85,
    /// Run `Engine::Native` instead of the default guarded chain.
    pub native: bool,
    /// `run_batch` worker threads.
    pub jobs: usize,
    /// Vectors in the whole stream: one memory job.
    pub stream_vectors: usize,
    /// Vectors per timed job, a slice of the stream.
    pub job_vectors: usize,
}

pub const STREAM_C432: StreamSpec = StreamSpec {
    circuit: Iscas85::C432,
    native: false,
    jobs: 1,
    stream_vectors: 200_000,
    job_vectors: 2_500,
};

pub const STREAM_C6288: StreamSpec = StreamSpec {
    circuit: Iscas85::C6288,
    native: false,
    jobs: 1,
    stream_vectors: 10_000,
    job_vectors: 50,
};

pub const NATIVE_C1908: StreamSpec = StreamSpec {
    circuit: Iscas85::C1908,
    native: true,
    jobs: 2,
    stream_vectors: 40_000,
    job_vectors: 1_000,
};

/// Cold native set-ups per run (each runs `cc`); other workloads set up
/// again before every timed job.
const COLD_SETUPS: usize = 3;
/// Whole-stream jobs whose peak RSS `peak_rss_mb` is the median of.
const MEMORY_JOBS: usize = 3;
/// Fewest timed jobs a run measures, however slow they are.
const MIN_JOBS: usize = 20;
/// Stream positions checked against the oracle: the first vectors, and
/// a seeded sample of later ones.
const ORACLE_FIRST: usize = 32;
const ORACLE_SAMPLED: usize = 256;

/// Inputs of a stream run, generated from the seed.
struct Inputs {
    name: &'static str,
    text: String,
    stream: Vec<Vec<bool>>,
    checks: Vec<(usize, Vec<bool>)>,
    expected: Engine,
    chain: Vec<Engine>,
    job_vectors: usize,
}

impl Inputs {
    fn generate(spec: &StreamSpec, seed: u64) -> Inputs {
        let netlist = spec.circuit.build();
        let mut rng = Rng::new(seed);
        let stream = rng.vectors(netlist.primary_inputs().len(), spec.stream_vectors);
        let checks = oracle_sample(&netlist, &stream, ORACLE_FIRST, ORACLE_SAMPLED, &mut rng);
        let preferred = spec.native.then_some(Engine::Native);
        Inputs {
            name: spec.circuit.name(),
            text: bench_format::write(&netlist),
            stream,
            checks,
            expected: preferred.unwrap_or(GuardedSimulator::DEFAULT_CHAIN[0]),
            chain: chain_preferring(preferred),
            job_vectors: spec.job_vectors.min(spec.stream_vectors),
        }
    }

    /// The `k`-th timed job's slice: its offset in the stream and vectors.
    fn slice(&self, k: usize) -> (usize, &[Vec<bool>]) {
        let at = k % (self.stream.len() / self.job_vectors) * self.job_vectors;
        (at, &self.stream[at..at + self.job_vectors])
    }

    /// Why `out`, the rows of `len` vectors from stream position `at`
    /// on, is wrong, if it is: a row that differs from the oracle, a
    /// fallback, or an engine other than the one asked for.
    fn fault(&self, out: &BatchOutput, at: usize, len: usize) -> Option<String> {
        if out.rows.len() != len {
            return Some(format!("{} rows for {len} vectors", out.rows.len()));
        }
        if let Some(shard) = out
            .shards
            .iter()
            .find(|s| s.engine != self.expected || s.fallbacks > 0)
        {
            return Some(format!(
                "shard {} ran {} with {} fallbacks, expected {}",
                shard.index, shard.engine, shard.fallbacks, self.expected
            ));
        }
        let bad = self
            .checks
            .iter()
            .filter(|(pos, row)| (at..at + len).contains(pos) && out.rows[pos - at] != *row)
            .count();
        (bad > 0).then(|| format!("{bad} rows from {at} on differ from the oracle"))
    }

    /// Runs `vectors` (from stream position `at`) and checks the rows.
    fn job(
        &self,
        netlist: &Netlist,
        prototype: &GuardedSimulator,
        jobs: usize,
        at: usize,
        vectors: &[Vec<bool>],
        report: &mut Report,
    ) -> Result<(BatchOutput, f64), String> {
        let (out, s) = timed(|| run_batch(netlist, prototype, vectors, jobs, None));
        let out = out.map_err(|e| e.to_string())?;
        report.attempt(self.fault(&out, at, vectors.len()));
        Ok((out, s))
    }

    /// Parse and build the guarded engine: the user's set-up path.
    fn set_up(&self) -> Result<(Netlist, GuardedSimulator), String> {
        let netlist = bench_format::parse(&self.text, self.name).map_err(|e| e.to_string())?;
        let guard =
            GuardedSimulator::with_chain(&netlist, ResourceLimits::unlimited(), &self.chain)
                .map_err(|e| e.to_string())?;
        Ok((netlist, guard))
    }

    /// [`Inputs::set_up`], timed and checked for the engine asked for.
    fn timed_set_up(
        &self,
        report: &mut Report,
    ) -> Result<(Netlist, GuardedSimulator, f64), String> {
        let (built, s) = timed(|| self.set_up());
        let (netlist, guard) = built?;
        report.attempt(
            (guard.active_engine() != self.expected || !guard.fallbacks().is_empty()).then(|| {
                format!(
                    "guard runs {} after {} fallbacks, expected {}",
                    guard.active_engine(),
                    guard.fallbacks().len(),
                    self.expected
                )
            }),
        );
        Ok((netlist, guard, s))
    }

    /// Peak RSS above `baseline`, in MiB, over one job on the whole stream.
    fn memory_job(
        &self,
        netlist: &Netlist,
        prototype: &GuardedSimulator,
        jobs: usize,
        baseline: u64,
        report: &mut Report,
    ) -> Result<f64, String> {
        release_free_memory();
        reset_peak_rss("self");
        let out = self.job(netlist, prototype, jobs, 0, &self.stream, report)?;
        let peak = proc_status_bytes("self", "VmHWM");
        drop(out);
        Ok(peak.saturating_sub(baseline) as f64 / MIB)
    }
}

/// Native artifact cache directories a run created; dropping removes them.
#[derive(Default)]
struct NativeCaches(Vec<PathBuf>);

impl NativeCaches {
    /// Points the native artifact cache at a fresh, empty directory, so
    /// the next native build runs `cc`.
    fn fresh(&mut self, work: &Path, tag: &str) -> PathBuf {
        let dir = work.join(format!("native-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the work directory is writable");
        // No other thread is running: nothing reads the environment meanwhile.
        std::env::set_var("UDS_NATIVE_CACHE", &dir);
        self.0.push(dir.clone());
        dir
    }
}

impl Drop for NativeCaches {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn check_toolchain(spec: &StreamSpec) -> Result<(), String> {
    if spec.native && !compiler_available() {
        return Err("no C compiler answers `cc --version`; the native workload needs one".into());
    }
    Ok(())
}

/// The untraced run: set-up, whole-stream memory jobs, then timed jobs
/// (each after a fresh set-up, but for native) until the run's seconds
/// are spent.
pub fn run(args: &Args, spec: &StreamSpec) -> Result<Report, String> {
    check_toolchain(spec)?;
    let inputs = Inputs::generate(spec, args.seed);
    release_free_memory();
    let baseline = proc_status_bytes("self", "VmRSS");
    let mut report = Report::default();
    let mut caches = NativeCaches::default();

    // Every timed operation is normalized by the mean of the reference
    // runs just before and just after it (see `common::reference`).
    let threads = spec.jobs;
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..if spec.native { COLD_SETUPS } else { 1 } {
        if spec.native {
            caches.fresh(&args.work_dir, &rep.to_string());
        }
        let before = reference(threads);
        let (netlist, guard, s) = inputs.timed_set_up(&mut report)?;
        setups.push(normalized(s, (before + reference(threads)) / 2.0));
        ready = Some((netlist, guard));
    }
    let (netlist, prototype) = ready.as_ref().expect("set up at least once");
    let peaks = (0..MEMORY_JOBS)
        .map(|_| inputs.memory_job(netlist, prototype, spec.jobs, baseline, &mut report))
        .collect::<Result<Vec<f64>, String>>()?;

    let mut jobs = Vec::new();
    let mut before = reference(threads);
    let clock = Instant::now();
    while secs(clock) < args.seconds as f64 || jobs.len() < MIN_JOBS {
        if !spec.native {
            let (netlist, guard, s) = inputs.timed_set_up(&mut report)?;
            let after = reference(threads);
            setups.push(normalized(s, (before + after) / 2.0));
            before = after;
            ready = Some((netlist, guard));
        }
        let (netlist, prototype) = ready.as_ref().expect("set up at least once");
        let (at, slice) = inputs.slice(jobs.len());
        let (_, s) = inputs.job(netlist, prototype, spec.jobs, at, slice, &mut report)?;
        let after = reference(threads);
        jobs.push((s, normalized(s, (before + after) / 2.0)));
        before = after;
    }
    let wall: Vec<f64> = jobs.iter().map(|j| j.0).collect();
    let normal: Vec<f64> = jobs.iter().map(|j| j.1).collect();

    report.metric("setup_s", median(&setups));
    report.metric("vectors_per_s", inputs.job_vectors as f64 / median(&normal));
    report.metric("peak_rss_mb", median(&peaks));
    report.note(format!(
        "{}: {} set-ups; {} jobs of {} vectors at jobs {} on {}, wall time q05 {:.3} ms, median \
         {:.3} ms, p99 {:.3} ms, normalized median {:.3} ms; {} memory jobs of {} vectors",
        inputs.name,
        setups.len(),
        jobs.len(),
        inputs.job_vectors,
        spec.jobs,
        inputs.expected,
        fast(&wall) * 1e3,
        median(&wall) * 1e3,
        quantile(&wall, 0.99) * 1e3,
        median(&normal) * 1e3,
        peaks.len(),
        inputs.stream.len()
    ));
    Ok(report)
}

/// Runs `vectors` through `sim` and nothing else.
fn raw_loop(sim: &mut dyn UnitDelaySimulator, vectors: &[Vec<bool>]) {
    sim.reset();
    for vector in vectors {
        sim.simulate_vector(vector);
    }
}

/// Layer times the whole-path ledger adds up.
struct LayerTimes {
    parse_s: f64,
    compile_s: f64,
    emit_s: f64,
    /// One timed job through `run_batch`.
    batch_s: f64,
}

/// The per-layer metrics without the whole-path ledger: the serve
/// workload times its engine layers with this at the request's size.
pub fn layers_only(args: &Args, spec: &StreamSpec, budget_s: f64) -> Result<Report, String> {
    let inputs = Inputs::generate(spec, args.seed);
    let mut report = Report::default();
    layers(args, spec, &inputs, budget_s, &mut report)?;
    Ok(report)
}

/// Times each layer from outside by calling its public entry points.
/// Per-vector layers run interleaved on the same slices for `budget_s`
/// seconds, so each difference compares passes that ran under the same
/// host load.
fn layers(
    args: &Args,
    spec: &StreamSpec,
    inputs: &Inputs,
    budget_s: f64,
    report: &mut Report,
) -> Result<LayerTimes, String> {
    check_toolchain(spec)?;
    // Loaded native libraries stay registered by path after their
    // directories go, so later set-ups still find them in memory.
    let mut caches = NativeCaches::default();
    let limits = ResourceLimits::unlimited();
    let per_job = inputs.job_vectors as f64;
    // Repeat a small layer until about a tenth of the budget is spent.
    let reps = |one: f64| ((budget_s / 10.0 / one.max(1e-7)) as usize).clamp(5, 401);

    // uds-netlist
    let (netlist, one) = timed(|| bench_format::parse(&inputs.text, inputs.name));
    let netlist = netlist.map_err(|e| e.to_string())?;
    let parse_s = fast_secs(reps(one), || bench_format::parse(&inputs.text, inputs.name));
    let (_, one) = timed(|| levelize(&netlist));
    report.metric("netlist.parse_s", parse_s);
    report.metric(
        "netlist.levelize_s",
        fast_secs(reps(one), || levelize(&netlist)),
    );

    // uds-parallel: the chain head's compiler, and its gauges
    let probe = GaugeProbe::default();
    let compile = || {
        ParallelSimulator::compile_probed(
            &netlist,
            Optimization::PathTracingTrimming,
            &limits,
            &probe,
        )
    };
    let (twin, one) = timed(compile);
    let twin = twin.map_err(|e| e.to_string())?;
    let compile_s = fast_secs(reps(one), compile);
    report.metric("parallel.compile_s", compile_s);
    report.metric("parallel.word_ops", probe.get(".word_ops") as f64);
    report.metric(
        "parallel.shifts_retained",
        probe.get(".shifts_retained") as f64,
    );
    report.metric(
        "parallel.field_words",
        probe.get("parallel.field_words") as f64,
    );

    // uds-core::native: emit, cold build (runs `cc`), warm build (loads
    // an artifact found on disk)
    let mut emit_s = 0.0;
    let mut native = None;
    if spec.native {
        let (source, one) = timed(|| codegen_c::emit_native(&netlist, &twin));
        let source = source.map_err(|e| e.to_string())?;
        emit_s = fast_secs(reps(one), || codegen_c::emit_native(&netlist, &twin));
        let build = || {
            build_native(
                &netlist,
                Engine::Native,
                WordWidth::W32,
                &limits,
                &NoopProbe,
            )
        };
        let mut cold = Vec::new();
        let mut artifact = None;
        for rep in 0..2 {
            let dir = caches.fresh(&args.work_dir, &format!("cold{rep}"));
            let (built, s) = timed(build);
            built.map_err(|e| e.to_string())?;
            cold.push(s);
            artifact = std::fs::read_dir(&dir)
                .map_err(|e| e.to_string())?
                .filter_map(Result::ok)
                .map(|entry| entry.path())
                .find(|path| path.extension().is_some_and(|ext| ext == "so"));
        }
        let artifact = artifact.ok_or("the cold build left no artifact")?;
        let mut warm = Vec::new();
        for rep in 0..5 {
            let dir = caches.fresh(&args.work_dir, &format!("warm{rep}"));
            std::fs::copy(
                &artifact,
                dir.join(artifact.file_name().expect("a file name")),
            )
            .map_err(|e| e.to_string())?;
            let (built, s) = timed(build);
            native = Some(built.map_err(|e| e.to_string())?);
            warm.push(s);
        }
        report.metric("native.emit_s", emit_s);
        report.metric("native.c_bytes", source.len() as f64);
        report.metric("native.build_cold_s", median(&cold));
        report.metric("native.build_warm_s", median(&warm));
        report.metric("native.cc_s", median(&cold) - median(&warm));
    }

    // uds-core::guard: memory growth of a guarded loop over the whole stream
    let (netlist, prototype, _) = inputs.timed_set_up(report)?;
    let stray = |guard: &mut GuardedSimulator, vectors: &[Vec<bool>]| {
        let strays = vectors
            .iter()
            .filter(|v| !matches!(guard.simulate_vector(v), Ok(e) if e == inputs.expected))
            .count();
        (strays > 0).then(|| format!("{strays} guarded vectors left {}", inputs.expected))
    };
    let mut fallbacks = 0;
    let mut rss_per_vector = Vec::new();
    for _ in 0..3 {
        let mut guard = prototype.fork();
        release_free_memory();
        let before = proc_status_bytes("self", "VmRSS");
        reset_peak_rss("self");
        let fault = stray(&mut guard, &inputs.stream);
        let peak = proc_status_bytes("self", "VmHWM");
        rss_per_vector.push(peak.saturating_sub(before) as f64 / inputs.stream.len() as f64);
        fallbacks += guard.fallbacks().len();
        report.attempt(fault);
    }
    report.metric("guard.rss_bytes_per_vector", median(&rss_per_vector));

    // Per-vector layers, interleaved slice by slice: the raw engines,
    // the guarded loop, and run_batch (at jobs 1 too, for native).
    let mut interpreted = build_simulator(&netlist, Engine::ParallelPathTracingTrimming)
        .map_err(|e| e.to_string())?;
    let (mut parallel_raw, mut native_raw, mut guarded) = (Vec::new(), Vec::new(), Vec::new());
    let (mut batch, mut batch1, mut skews) = (Vec::new(), Vec::new(), Vec::new());
    let clock = Instant::now();
    while secs(clock) < budget_s || batch.len() < MIN_JOBS {
        let (at, slice) = inputs.slice(batch.len());
        parallel_raw.push(timed(|| raw_loop(interpreted.as_mut(), slice)).1);
        if let Some(native) = native.as_mut() {
            native_raw.push(timed(|| raw_loop(native.as_mut(), slice)).1);
        }
        let mut guard = prototype.fork();
        let (fault, s) = timed(|| stray(&mut guard, slice));
        guarded.push(s);
        fallbacks += guard.fallbacks().len();
        report.attempt(fault);
        let (out, s) = inputs.job(&netlist, &prototype, spec.jobs, at, slice, report)?;
        let shard_ns: Vec<f64> = out.shards.iter().map(|s| s.wall_ns as f64).collect();
        let slowest = shard_ns.iter().copied().fold(0.0, f64::max);
        skews.push(slowest * shard_ns.len() as f64 / shard_ns.iter().sum::<f64>());
        fallbacks += out.shards.iter().map(|s| s.fallbacks).sum::<usize>();
        batch.push(s);
        if spec.native {
            batch1.push(inputs.job(&netlist, &prototype, 1, at, slice, report)?.1);
        }
    }
    let raw = fast(if spec.native {
        &native_raw
    } else {
        &parallel_raw
    }) / per_job;
    let guarded = fast(&guarded) / per_job;
    let batch_s = fast(&batch);
    report.metric(
        "parallel.raw_ns_per_vector",
        fast(&parallel_raw) / per_job * 1e9,
    );
    report.metric("guard.overhead_ns_per_vector", (guarded - raw) * 1e9);
    report.metric("guard.fallbacks", fallbacks as f64);
    report.metric(
        "batch.overhead_ns_per_vector",
        (batch_s / per_job - guarded) * 1e9,
    );
    report.metric("batch.shard_skew", median(&skews));
    if spec.native {
        report.metric("native.raw_ns_per_vector", raw * 1e9);
        report.metric("native.jobs2_speedup", fast(&batch1) / batch_s);
    }

    // uds-eventsim: the zero-delay seeding of every shard but the first
    let (_, slice) = inputs.slice(0);
    let boundary: Vec<&[bool]> = shard_bounds(slice.len(), spec.jobs)[1..]
        .iter()
        .map(|&(start, _)| slice[start - 1].as_slice())
        .collect();
    let prepass = || stable_states(&netlist, boundary.iter().copied());
    let (_, one) = timed(prepass);
    report.metric("eventsim.prepass_s", fast_secs(reps(one), prepass));
    Ok(LayerTimes {
        parse_s,
        compile_s,
        emit_s,
        batch_s,
    })
}

/// The traced run: every layer, then the whole user path (parse, guard,
/// `run_batch`) timed plain and with a timer around each call.
pub fn trace(args: &Args, spec: &StreamSpec) -> Result<Report, String> {
    let inputs = Inputs::generate(spec, args.seed);
    let mut report = Report::default();
    let times = layers(args, spec, &inputs, args.seconds as f64 / 2.0, &mut report)?;

    // The native set-up here finds its library already loaded.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let clock = Instant::now();
    while secs(clock) < args.seconds as f64 / 4.0 || plain.len() < MIN_JOBS {
        let (at, slice) = inputs.slice(plain.len());
        let (out, s) = timed(|| -> Result<_, String> {
            let (netlist, guard) = inputs.set_up()?;
            run_batch(&netlist, &guard, slice, spec.jobs, None).map_err(|e| e.to_string())
        });
        plain.push(s);
        report.attempt(inputs.fault(&out?, at, slice.len()));

        let clock = Instant::now();
        let (netlist, _) = timed(|| bench_format::parse(&inputs.text, inputs.name));
        let netlist = netlist.map_err(|e| e.to_string())?;
        let (guard, _) = timed(|| {
            GuardedSimulator::with_chain(&netlist, ResourceLimits::unlimited(), &inputs.chain)
        });
        let guard = guard.map_err(|e| e.to_string())?;
        let (out, _) = timed(|| run_batch(&netlist, &guard, slice, spec.jobs, None));
        traced.push(secs(clock));
        report.attempt(inputs.fault(&out.map_err(|e| e.to_string())?, at, slice.len()));
    }
    let whole = fast(&plain);
    report.metric("trace.overhead", fast(&traced) / whole - 1.0);
    report.metric(
        "unattributed_s",
        whole - (times.parse_s + times.compile_s + times.emit_s + times.batch_s),
    );
    report.note(format!(
        "{}: layers over {}-vector slices at jobs {} on {}; {} ledger pairs",
        inputs.name,
        inputs.job_vectors,
        spec.jobs,
        inputs.expected,
        plain.len()
    ));
    Ok(report)
}
