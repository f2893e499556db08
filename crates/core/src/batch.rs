//! Vector-batched multi-core execution.
//!
//! Unit-delay simulation of a vector stream looks inherently
//! sequential: vector *i* starts from the settled state vector *i - 1*
//! left behind (retention). The batch runner breaks that dependency
//! with a cheap **zero-delay prepass**: for a combinational circuit the
//! unit-delay settled state after vector *i* is exactly the zero-delay
//! (levelized) evaluation of vector *i* alone — the fixpoint is unique
//! and history-free (see
//! [`stable_states`](uds_eventsim::zero_delay::stable_states)). So the
//! stream splits into contiguous shards, each worker seeds its engine
//! with the zero-delay state of the vector just before its shard, and
//! all shards simulate independently — bit-exact with the sequential
//! run for *any* shard count.
//!
//! Each worker owns a [`GuardedSimulator`] fork, so a panicking or
//! budget-blowing engine degrades only its own shard; the others keep
//! their fast engines. Shard timings surface as `batch.shard.<k>`
//! telemetry spans with `batch.shards` / `batch.vectors_per_shard`
//! gauges.

// SimError is large but cold; see guard.rs.
#![allow(clippy::result_large_err)]

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use uds_eventsim::zero_delay::stable_states;
use uds_netlist::Netlist;

use crate::cancel::CancelToken;
use crate::error::{SimError, SimErrorKind, SimPhase};
use crate::guard::GuardedSimulator;
use crate::progress::{BatchProbe, Heartbeat, NoopBatchProbe};
use crate::telemetry::{SpanNode, Telemetry};
use crate::Engine;

/// What one shard did: its slice of the stream, wall-clock time, and
/// how its fallback chain fared.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (shards partition the stream in order).
    pub index: usize,
    /// First vector of the shard (index into the full stream).
    pub start: usize,
    /// Vectors the shard simulated.
    pub vectors: usize,
    /// When the shard started, in nanoseconds since the telemetry
    /// registry's epoch (0 when the run carried no telemetry) — what
    /// places `batch.shard.<k>` spans on the exported timeline.
    pub start_ns: u64,
    /// Wall-clock simulation time, excluding the prepass.
    pub wall_ns: u64,
    /// The engine that survived the shard.
    pub engine: Engine,
    /// Fallbacks fired inside this shard alone.
    pub fallbacks: usize,
}

/// The assembled result of a batch run.
#[derive(Clone, Debug)]
pub struct BatchOutput {
    /// Per-vector primary-output settled values, in stream order —
    /// bit-identical to a sequential run regardless of shard count.
    pub rows: Vec<Vec<bool>>,
    /// Per-shard execution reports, in shard order.
    pub shards: Vec<ShardReport>,
}

/// Splits `total` vectors into `jobs` contiguous, near-equal shards
/// (the first `total % jobs` shards get one extra vector). Returns
/// `(start, len)` pairs; empty shards are dropped. Public so batch
/// observers (the activity profiler) can size per-shard state to the
/// exact partition the runner will use.
pub fn shard_bounds(total: usize, jobs: usize) -> Vec<(usize, usize)> {
    let jobs = jobs.clamp(1, total.max(1));
    let base = total / jobs;
    let extra = total % jobs;
    let mut bounds = Vec::with_capacity(jobs);
    let mut start = 0;
    for k in 0..jobs {
        let len = base + usize::from(k < extra);
        if len > 0 {
            bounds.push((start, len));
            start += len;
        }
    }
    bounds
}

/// Runs `vectors` through forks of `prototype`, sharded across `jobs`
/// worker threads, and returns per-vector primary-output rows exactly
/// as a sequential run would produce them.
///
/// `prototype` should be freshly built (its current engine state is the
/// power-up state shard 0 starts from). Pass the session's [`Telemetry`]
/// to collect per-shard spans and gauges.
///
/// # Errors
///
/// Any vector of the wrong width is a usage error; a zero-delay prepass
/// failure surfaces as its structural class; a shard whose entire
/// fallback chain dies returns that shard's [`SimError`].
pub fn run_batch(
    netlist: &Netlist,
    prototype: &GuardedSimulator,
    vectors: &[Vec<bool>],
    jobs: usize,
    telemetry: Option<&Telemetry>,
) -> Result<BatchOutput, SimError> {
    run_batch_cancellable(
        netlist,
        prototype,
        vectors,
        jobs,
        telemetry,
        &NoopBatchProbe,
        &CancelToken::new(),
    )
}

/// [`run_batch`] observed and cancellable — the general entry point.
///
/// `probe` observes the workers: periodic per-shard heartbeats
/// (`--progress` in the CLI) and/or a borrow of each shard's engine
/// after every vector (the activity profiler). Both hooks are
/// capability-gated, so a probe that wants neither costs nothing in
/// the per-vector loop.
///
/// Every worker polls `cancel` between vectors, so a tripped token (an
/// explicit cancel or a passed deadline) stops the batch within one
/// vector per shard. The interrupted run returns
/// [`SimErrorKind::Cancelled`] carrying how many vectors the reporting
/// worker had finished — the partial-work figure the serve daemon's
/// timeout telemetry records. Pass `&CancelToken::new()` to run to
/// completion.
///
/// # Errors
///
/// As [`run_batch`], plus [`SimErrorKind::Cancelled`] when the token
/// trips mid-run.
pub fn run_batch_cancellable(
    netlist: &Netlist,
    prototype: &GuardedSimulator,
    vectors: &[Vec<bool>],
    jobs: usize,
    telemetry: Option<&Telemetry>,
    probe: &dyn BatchProbe,
    cancel: &CancelToken,
) -> Result<BatchOutput, SimError> {
    let outputs = netlist.primary_outputs();
    let epoch = telemetry.map(Telemetry::epoch);
    let heartbeats = probe.wants_heartbeats();
    let observe_vectors = probe.wants_vectors();
    let interval = probe.heartbeat_interval();
    let results = run_shards(
        netlist,
        prototype,
        vectors,
        jobs,
        telemetry,
        |shard, start, guard, slice| {
            let clock = Instant::now();
            let start_ns = epoch
                .map(|epoch| {
                    u64::try_from(clock.saturating_duration_since(epoch).as_nanos())
                        .unwrap_or(u64::MAX)
                })
                .unwrap_or(0);
            let beat = |guard: &GuardedSimulator, done: usize, finished: bool| {
                probe.heartbeat(&Heartbeat {
                    shard,
                    done,
                    total: slice.len(),
                    wall_ns: u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    engine: guard.active_engine(),
                    fallbacks: guard.fallbacks().len(),
                    finished,
                });
            };
            if heartbeats {
                beat(guard, 0, false);
            }
            let mut last_beat = Instant::now();
            let mut rows = Vec::with_capacity(slice.len());
            for (done, vector) in slice.iter().enumerate() {
                if let Some(cause) = cancel.cause() {
                    return Err(SimError::new(
                        SimErrorKind::Cancelled {
                            cause,
                            vectors_done: done,
                        },
                        SimPhase::Run,
                    ));
                }
                guard.simulate_vector(vector)?;
                rows.push(outputs.iter().map(|&po| guard.final_value(po)).collect());
                if observe_vectors {
                    probe.vector_done(shard, guard.active_simulator());
                }
                if heartbeats {
                    let finished = done + 1 == slice.len();
                    let now = Instant::now();
                    if finished || now.duration_since(last_beat) >= interval {
                        last_beat = now;
                        beat(guard, done + 1, finished);
                    }
                }
            }
            Ok((
                rows,
                ShardReport {
                    index: shard,
                    start,
                    vectors: slice.len(),
                    start_ns,
                    wall_ns: u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    engine: guard.active_engine(),
                    fallbacks: guard.fallbacks().len(),
                },
            ))
        },
    )?;
    if vectors.is_empty() && heartbeats {
        // Even a degenerate batch announces completion: consumers keyed
        // on `finished` (progress bars, the NDJSON stream) must never
        // wait on a batch that will say nothing.
        probe.heartbeat(&Heartbeat {
            shard: 0,
            done: 0,
            total: 0,
            wall_ns: 0,
            engine: prototype.active_engine(),
            fallbacks: 0,
            finished: true,
        });
    }

    let mut rows = Vec::with_capacity(vectors.len());
    let mut shards = Vec::with_capacity(results.len());
    for result in results {
        let (shard_rows, report) = result?;
        rows.extend(shard_rows);
        if let Some(telemetry) = telemetry {
            telemetry.attach_span(SpanNode {
                name: format!("batch.shard.{}", report.index),
                start_ns: report.start_ns,
                wall_ns: report.wall_ns,
                // Worker spans get their own timeline lane: tid 0 is
                // the coordinating thread's span stack.
                tid: report.index as u64 + 1,
                children: Vec::new(),
            });
            telemetry.add("batch.shard_fallbacks", report.fallbacks as u64);
        }
        shards.push(report);
    }
    Ok(BatchOutput { rows, shards })
}

/// The one shard runner behind [`run_batch_cancellable`] and the
/// hot-path profiler: checks every vector's width, splits the stream
/// with [`shard_bounds`], seeds each shard by the zero-delay prepass,
/// and runs `body(shard, start, guard, slice)` on one worker thread per
/// shard, each with its own seeded fork of `prototype`. A panic above
/// the engine layer fells only its own shard. Returns per-shard results
/// in shard order — empty for an empty stream. With `telemetry`, the
/// prepass is a `batch.prepass` span and the partition sets the
/// `batch.shards` / `batch.vectors_per_shard` gauges.
pub(crate) fn run_shards<T: Send>(
    netlist: &Netlist,
    prototype: &GuardedSimulator,
    vectors: &[Vec<bool>],
    jobs: usize,
    telemetry: Option<&Telemetry>,
    body: impl Fn(usize, usize, &mut GuardedSimulator, &[Vec<bool>]) -> Result<T, SimError> + Sync,
) -> Result<Vec<Result<T, SimError>>, SimError> {
    let expected = netlist.primary_inputs().len();
    for vector in vectors {
        if vector.len() != expected {
            return Err(SimError::new(
                SimErrorKind::VectorWidth {
                    expected,
                    got: vector.len(),
                },
                SimPhase::Run,
            ));
        }
    }
    let bounds = shard_bounds(vectors.len(), jobs);
    if let Some(telemetry) = telemetry {
        telemetry.set_gauge("batch.shards", bounds.len() as u64);
        telemetry.set_gauge(
            "batch.vectors_per_shard",
            bounds.iter().map(|&(_, len)| len as u64).max().unwrap_or(0),
        );
    }
    if vectors.is_empty() {
        return Ok(Vec::new());
    }

    // Zero-delay prepass: the stable state at each shard boundary.
    // Shard 0 starts from the prototype's state; shard k > 0 from the
    // settled state of the vector just before it — one levelized
    // evaluation each.
    let boundary_vectors: Vec<&[bool]> = bounds[1..]
        .iter()
        .map(|&(start, _)| vectors[start - 1].as_slice())
        .collect();
    let seeds = {
        let _span = telemetry.map(|t| t.span("batch.prepass"));
        stable_states(netlist, boundary_vectors)?
    };

    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(shard, &(start, len))| {
                let mut guard = prototype.fork();
                let seed = (shard > 0).then(|| seeds[shard - 1].as_slice());
                let slice = &vectors[start..start + len];
                scope.spawn(move || {
                    // The guard contains engine panics itself; this
                    // outer net catches anything above the engine layer
                    // so one shard cannot abort its siblings.
                    panic::catch_unwind(AssertUnwindSafe(|| {
                        if let Some(seed) = seed {
                            guard.seed_stable(seed);
                        }
                        body(shard, start, &mut guard, slice)
                    }))
                    .unwrap_or_else(|payload| Err(SimError::from_panic(payload, SimPhase::Run)))
                })
            })
            .collect();
        Ok(handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            })
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardedSimulator;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::ResourceLimits;

    fn stimulus(vectors: usize) -> Vec<Vec<bool>> {
        // A fixed LCG keeps the stream deterministic without rand.
        let mut state = 0x5EED_1990_u64;
        (0..vectors)
            .map(|_| {
                (0..5)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state >> 63 != 0
                    })
                    .collect()
            })
            .collect()
    }

    fn sequential_rows(vectors: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let nl = c17();
        let mut guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        vectors
            .iter()
            .map(|v| {
                guard.simulate_vector(v).unwrap();
                nl.primary_outputs()
                    .iter()
                    .map(|&po| guard.final_value(po))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn shard_bounds_partition_the_stream() {
        for total in [0usize, 1, 2, 7, 100] {
            for jobs in [1usize, 2, 3, 8, 200] {
                let bounds = shard_bounds(total, jobs);
                let mut next = 0;
                for &(start, len) in &bounds {
                    assert_eq!(start, next, "contiguous");
                    assert!(len > 0, "no empty shards");
                    next += len;
                }
                assert_eq!(next, total, "total={total} jobs={jobs}");
                if total > 0 {
                    let max = bounds.iter().map(|&(_, l)| l).max().unwrap();
                    let min = bounds.iter().map(|&(_, l)| l).min().unwrap();
                    assert!(max - min <= 1, "near-equal: total={total} jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn batch_rows_match_sequential_for_any_shard_count() {
        let nl = c17();
        let vectors = stimulus(23);
        let expected = sequential_rows(&vectors);
        for jobs in [1usize, 2, 5, 23, 64] {
            let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
            let out = run_batch(&nl, &guard, &vectors, jobs, None).unwrap();
            assert_eq!(out.rows, expected, "jobs={jobs}");
            assert_eq!(
                out.shards.iter().map(|s| s.vectors).sum::<usize>(),
                vectors.len()
            );
        }
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let out = run_batch(&nl, &guard, &[], 4, None).unwrap();
        assert!(out.rows.is_empty());
        assert!(out.shards.is_empty());
    }

    #[test]
    fn empty_stream_still_announces_completion() {
        use crate::progress::{BatchProbe, Heartbeat};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder(Mutex<Vec<Heartbeat>>);
        impl BatchProbe for Recorder {
            fn wants_heartbeats(&self) -> bool {
                true
            }
            fn heartbeat(&self, beat: &Heartbeat) {
                self.0.lock().unwrap().push(*beat);
            }
        }

        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let recorder = Recorder::default();
        run_batch_cancellable(&nl, &guard, &[], 4, None, &recorder, &CancelToken::new()).unwrap();
        let beats = recorder.0.lock().unwrap();
        assert_eq!(beats.len(), 1, "exactly one completion record");
        assert!(beats[0].finished);
        assert_eq!((beats[0].done, beats[0].total), (0, 0));
    }

    #[test]
    fn wrong_width_vector_is_a_usage_error_before_any_thread_spawns() {
        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let err = run_batch(&nl, &guard, &[vec![true; 3]], 2, None).unwrap_err();
        assert_eq!(err.class(), crate::FailureClass::Usage);
    }

    #[test]
    fn observed_batch_fires_heartbeats_and_vector_hooks() {
        use crate::progress::{BatchProbe, Heartbeat};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder {
            beats: Mutex<Vec<Heartbeat>>,
            vectors: Mutex<Vec<usize>>,
        }
        impl BatchProbe for Recorder {
            fn wants_heartbeats(&self) -> bool {
                true
            }
            fn heartbeat(&self, beat: &Heartbeat) {
                self.beats.lock().unwrap().push(*beat);
            }
            fn wants_vectors(&self) -> bool {
                true
            }
            fn vector_done(&self, shard: usize, _sim: &dyn crate::UnitDelaySimulator) {
                self.vectors.lock().unwrap().push(shard);
            }
        }

        let nl = c17();
        let vectors = stimulus(10);
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let recorder = Recorder::default();
        let out = run_batch_cancellable(
            &nl,
            &guard,
            &vectors,
            3,
            None,
            &recorder,
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(
            out.rows,
            sequential_rows(&vectors),
            "probe must not perturb"
        );
        let beats = recorder.beats.lock().unwrap();
        for shard in 0..3 {
            assert!(
                beats
                    .iter()
                    .any(|b| b.shard == shard && b.finished && b.done == b.total),
                "shard {shard} must emit a final heartbeat"
            );
        }
        assert_eq!(
            recorder.vectors.lock().unwrap().len(),
            vectors.len(),
            "one vector_done per vector"
        );
    }

    #[test]
    fn tripped_token_stops_the_batch_as_budget_class() {
        use crate::cancel::{CancelCause, CancelToken};
        use crate::progress::NoopBatchProbe;

        let nl = c17();
        let vectors = stimulus(40);
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = run_batch_cancellable(&nl, &guard, &vectors, 2, None, &NoopBatchProbe, &cancel)
            .unwrap_err();
        assert_eq!(err.class(), crate::FailureClass::Budget);
        match err.kind {
            SimErrorKind::Cancelled {
                cause,
                vectors_done,
            } => {
                assert_eq!(cause, CancelCause::Cancelled);
                assert_eq!(vectors_done, 0, "tripped before the first vector");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn live_token_leaves_the_batch_bit_exact() {
        use crate::cancel::CancelToken;
        use crate::progress::NoopBatchProbe;

        let nl = c17();
        let vectors = stimulus(23);
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let out = run_batch_cancellable(
            &nl,
            &guard,
            &vectors,
            3,
            None,
            &NoopBatchProbe,
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out.rows, sequential_rows(&vectors));
    }

    #[test]
    fn shard_spans_carry_distinct_thread_ids() {
        let nl = c17();
        let vectors = stimulus(10);
        let telemetry = Telemetry::new();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        run_batch(&nl, &guard, &vectors, 2, Some(&telemetry)).unwrap();
        let report = telemetry.snapshot();
        let mut tids: Vec<u64> = (0..2)
            .map(|shard| {
                report
                    .find_span(&format!("batch.shard.{shard}"))
                    .expect("shard span")
                    .tid
            })
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids, vec![1, 2], "each shard on its own timeline lane");
    }

    #[test]
    fn telemetry_gains_shard_spans_and_gauges() {
        let nl = c17();
        let vectors = stimulus(10);
        let telemetry = Telemetry::new();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        run_batch(&nl, &guard, &vectors, 3, Some(&telemetry)).unwrap();
        assert_eq!(telemetry.gauge_value("batch.shards"), Some(3));
        assert_eq!(telemetry.gauge_value("batch.vectors_per_shard"), Some(4));
        let report = telemetry.snapshot();
        for shard in 0..3 {
            assert!(
                report.find_span(&format!("batch.shard.{shard}")).is_some(),
                "missing span for shard {shard}"
            );
        }
        assert!(report.find_span("batch.prepass").is_some());
    }
}
