//! Shared pieces: seeded inputs, order statistics, process memory, the
//! gauge-capturing probe and the event-driven oracle.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use uds_core::{build_simulator, Engine};
use uds_netlist::{NetId, Netlist, Probe};

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every input the program receives.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One random input vector of `width` bits.
    pub fn vector(&mut self, width: usize) -> Vec<bool> {
        let mut bits = Vec::with_capacity(width);
        let mut word = 0u64;
        for i in 0..width {
            if i % 64 == 0 {
                word = self.next_u64();
            }
            bits.push(word >> (i % 64) & 1 == 1);
        }
        bits
    }

    pub fn vectors(&mut self, width: usize, count: usize) -> Vec<Vec<bool>> {
        (0..count).map(|_| self.vector(width)).collect()
    }
}

/// Seconds elapsed since `clock`.
pub fn secs(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64()
}

/// Times one call, returning its value and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Instant::now();
    let value = f();
    (value, secs(clock))
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics. Panics on an empty sample: every caller measures at
/// least once.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The quantile per-layer timings report. On a shared virtual machine a
/// core can run at one of two speeds about 2x apart, switching within
/// seconds with its neighbours' load; a median of CPU-bound timings
/// lands on either, while the 5th percentile of many short samples
/// reads the fast speed whenever the run saw it at all.
pub const FAST_QUANTILE: f64 = 0.05;

pub fn fast(samples: &[f64]) -> f64 {
    quantile(samples, FAST_QUANTILE)
}

/// [`fast`] seconds over `reps` timed runs of `f`, which returns its
/// value so the work cannot be optimised away.
pub fn fast_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (value, s) = timed(&mut f);
            std::hint::black_box(value);
            s
        })
        .collect();
    fast(&times)
}

/// The nominal duration of one [`reference`] run, in seconds: about
/// what one thread of it takes on an unloaded 2-vCPU x86-64 host.
pub const REFERENCE_S: f64 = 0.4e-3;

/// Seconds one fixed reference workload takes now on `threads` threads.
/// It is shaped like a small `run_batch` job of the interpreter: a
/// thread per shard, each running a fixed random word-op program over a
/// small arena through a dispatch loop, and allocating one output row
/// per vector plus a logged copy. It is the benchmark's own code, so no
/// change to the program moves it, while host load that slows the
/// program slows it too.
pub fn reference(threads: usize) -> f64 {
    const VECTORS: usize = 600;
    const OPS: usize = 256;
    const ARENA: usize = 512;
    const WIDTH: usize = 36;
    timed(|| {
        std::thread::scope(|scope| {
            let shards: Vec<_> = (0..threads as u64)
                .map(|shard| {
                    scope.spawn(move || {
                        let mut rng = Rng::new(shard);
                        let program: Vec<[usize; 4]> = (0..OPS)
                            .map(|_| {
                                let r = rng.next_u64() as usize;
                                [r % ARENA, (r >> 16) % ARENA, (r >> 32) % ARENA, r >> 62]
                            })
                            .collect();
                        let mut arena = vec![0u32; ARENA];
                        let mut rows: Vec<Vec<bool>> = Vec::with_capacity(VECTORS);
                        let mut log: Vec<Vec<bool>> = Vec::new();
                        for _ in 0..VECTORS {
                            let input = rng.next_u64();
                            arena[0] = input as u32;
                            arena[1] = (input >> 32) as u32;
                            for &[dst, a, b, kind] in &program {
                                let (a, b) = (arena[a], arena[b]);
                                arena[dst] = match kind {
                                    0 => a & b,
                                    1 => a | b,
                                    2 => a ^ b,
                                    _ => a << 1 | b >> 31,
                                };
                            }
                            let row: Vec<bool> =
                                arena[ARENA - WIDTH..].iter().map(|w| w & 1 == 1).collect();
                            log.push(row.clone());
                            rows.push(row);
                        }
                        std::hint::black_box((rows, log));
                    })
                })
                .collect();
            for shard in shards {
                shard.join().expect("the reference does not panic");
            }
        })
    })
    .1
}

/// `op_s`, measured when [`reference`] took `reference_s`, in seconds
/// of a host running the reference at its nominal speed.
pub fn normalized(op_s: f64, reference_s: f64) -> f64 {
    op_s / reference_s * REFERENCE_S
}

/// A `/proc/<pid>/status` field in bytes (`VmRSS`, `VmHWM`).
pub fn proc_status_bytes(pid: &str, field: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Resets the peak-RSS mark of `pid` to its current RSS, so a later
/// `VmHWM` read covers only what ran in between.
pub fn reset_peak_rss(pid: &str) {
    // Best effort: without clear_refs the peak only over-reads.
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Hands the allocator's free pages back to the kernel, so RSS growth
/// measured next counts what a step allocates rather than what freed
/// memory it happens to reuse.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, touches only
        // the allocator's free lists, and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// A compile probe that keeps the gauges the compilers report.
#[derive(Default)]
pub struct GaugeProbe {
    gauges: RefCell<BTreeMap<String, u64>>,
}

impl GaugeProbe {
    /// The gauge whose name ends in `suffix`, or 0.
    pub fn get(&self, suffix: &str) -> u64 {
        let gauges = self.gauges.borrow();
        gauges
            .iter()
            .find(|(name, _)| name.ends_with(suffix))
            .map_or(0, |(_, &value)| value)
    }
}

impl Probe for GaugeProbe {
    fn span_start(&self, _name: &str) {}
    fn span_end(&self, _name: &str) {}
    fn count(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, name: &str, value: u64) {
        self.gauges.borrow_mut().insert(name.to_owned(), value);
    }
}

/// Output rows of `vectors`, simulated in order from power-up on the
/// event-driven engine — the reference every engine must match.
pub fn oracle_rows(netlist: &Netlist, vectors: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let mut sim = build_simulator(netlist, Engine::EventDriven).expect("oracle builds");
    let outputs: Vec<NetId> = netlist.primary_outputs().to_vec();
    vectors
        .iter()
        .map(|vector| {
            sim.simulate_vector(vector);
            outputs.iter().map(|&net| sim.final_value(net)).collect()
        })
        .collect()
}

/// Oracle rows for a sample of stream positions: every vector before
/// `first` and `sampled` seeded positions after it. A sampled row is
/// recomputed from the vector before it, which settles every net, so
/// the check does not replay the whole stream.
pub fn oracle_sample(
    netlist: &Netlist,
    stream: &[Vec<bool>],
    first: usize,
    sampled: usize,
    rng: &mut Rng,
) -> Vec<(usize, Vec<bool>)> {
    let first = first.clamp(1, stream.len());
    let mut checks: Vec<(usize, Vec<bool>)> = oracle_rows(netlist, &stream[..first])
        .into_iter()
        .enumerate()
        .collect();
    if stream.len() > first {
        for _ in 0..sampled {
            let at = first + rng.below(stream.len() - first);
            let rows = oracle_rows(netlist, &stream[at - 1..=at]);
            checks.push((at, rows[1].clone()));
        }
    }
    checks
}

/// Rows as the serve daemon renders them: one `0`/`1` string per vector.
pub fn bit_string(row: &[bool]) -> String {
    row.iter().map(|&b| if b { '1' } else { '0' }).collect()
}
