//! Guarded execution: budget-enforced compilation, panic containment,
//! and graceful degradation across a chain of engines.
//!
//! The compiled techniques are the fast path; the interpreted
//! event-driven baseline is the robust one. [`GuardedSimulator`] runs
//! the fastest engine that fits a [`ResourceLimits`] budget and falls
//! back down [`GuardedSimulator::DEFAULT_CHAIN`] whenever an engine
//! fails to compile, blows its budget, or panics mid-run. Every
//! fallback is recorded; nothing fails silently.
//!
//! The only state one vector hands the next is each net's settled
//! value, and for a combinational netlist that is the zero-delay settle
//! of the last vector alone (DESIGN.md §12). So a replacement engine is
//! seeded with [`stable_states`] of the last vector run and continues
//! bit-exactly; keeping that one vector is all the memory the hand-off
//! needs, however long the stream.
//!
//! Panics are contained with [`std::panic::catch_unwind`]: a buggy
//! engine surfaces as [`SimErrorKind::EnginePanicked`] instead of
//! killing the batch.
//!
//! Engines come from an [`EngineFactory`]. The default one,
//! [`DefaultEngineFactory`] (at a word width, optionally monitoring
//! every net), hands each build to the crate's one engine constructor,
//! which also builds [`crate::build_simulator`] and
//! [`crate::build_native`] engines; the chaos harness and tests
//! substitute their own factories. [`GuardedSimulator::observed`] is
//! the general constructor; `new`, `with_chain` and `with_factory`
//! fill in its defaults.

// SimError deliberately carries full context (phase, engine, circuit,
// cause chain) and only travels on cold failure paths, so clippy's
// Err-size heuristic trades the wrong way here.
#![allow(clippy::result_large_err)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use uds_eventsim::zero_delay::stable_states;
use uds_netlist::{NetId, Netlist, NoopProbe, Probe, ResourceLimits};

use crate::error::{FailureClass, SimError, SimErrorKind, SimPhase};
use crate::simulator::build_engine;
use crate::telemetry::Telemetry;
use crate::{crosscheck, Engine, TracedEventSim, UnitDelaySimulator, WordWidth};

/// Builds engines for a [`GuardedSimulator`]. The default factory
/// compiles the real engines; the chaos harness substitutes faulty ones.
///
/// Factories are `Send` and cloneable so [`GuardedSimulator::fork`] can
/// hand each batch worker a guard that degrades the same way.
pub trait EngineFactory: Send {
    /// Builds `engine` under `limits`, panic-contained, reporting
    /// compile phases and the paper's static metrics (PC-set sizes,
    /// words trimmed, shifts retained/eliminated) into `probe`.
    fn build(
        &self,
        netlist: &Netlist,
        engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError>;

    /// Clones the factory behind the trait object.
    fn clone_box(&self) -> Box<dyn EngineFactory>;
}

/// The factory that compiles the workspace's real engines at one
/// parallel word width. Budget violations surface as
/// [`SimErrorKind::Budget`], compile panics as
/// [`SimErrorKind::EnginePanicked`]; every error carries the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultEngineFactory {
    word: WordWidth,
    monitor_all: bool,
}

impl DefaultEngineFactory {
    /// A factory compiling parallel engines at the given word width.
    pub fn with_word(word: WordWidth) -> Self {
        DefaultEngineFactory {
            word,
            monitor_all: false,
        }
    }

    /// A factory that compiles every engine with **all nets
    /// monitored**, so per-net histories — and therefore toggle
    /// streams — are available on every net whichever engine survives
    /// the chain. This is the activity profiler's factory: the default
    /// one lets path tracing prune untracked fields, which is faster
    /// but leaves most nets unobservable.
    pub fn monitoring(word: WordWidth) -> Self {
        DefaultEngineFactory {
            word,
            monitor_all: true,
        }
    }
}

impl EngineFactory for DefaultEngineFactory {
    fn build(
        &self,
        netlist: &Netlist,
        engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        build_engine(
            netlist,
            engine,
            false,
            self.word,
            self.monitor_all,
            limits,
            probe,
        )
    }

    fn clone_box(&self) -> Box<dyn EngineFactory> {
        Box::new(*self)
    }
}

/// The guarded degradation chain headed by `preferred`: the preferred
/// engine (when given) followed by [`GuardedSimulator::DEFAULT_CHAIN`]
/// minus duplicates. This is how [`Engine::Native`] — deliberately
/// absent from the default chain — joins it: `--engine native
/// --fallback` (and the daemon's `engine=native`) run
/// `chain_preferring(Some(Engine::Native))`, so a host without a C
/// toolchain degrades to the interpreted engines instead of failing.
pub fn chain_preferring(preferred: Option<Engine>) -> Vec<Engine> {
    let mut chain = Vec::with_capacity(GuardedSimulator::DEFAULT_CHAIN.len() + 1);
    if let Some(engine) = preferred {
        chain.push(engine);
    }
    for engine in GuardedSimulator::DEFAULT_CHAIN {
        if Some(engine) != preferred {
            chain.push(engine);
        }
    }
    chain
}

/// A fallback that fired: the engine given up on and why.
#[derive(Debug)]
pub struct FiredFallback {
    /// The engine that failed.
    pub from: Engine,
    /// What went wrong with it.
    pub error: SimError,
}

/// A budget-enforced, panic-contained simulator with graceful
/// degradation down a chain of engines.
///
/// Construction tries each engine in the chain until one compiles
/// within budget. Per-vector runs are panic-contained: a mid-run panic
/// triggers a fallback, and the next engine is seeded with the settled
/// state of the last vector run so retained state (each vector's
/// dependence on the previous one) is preserved bit-exactly.
pub struct GuardedSimulator {
    /// Shared with every fork: forks run the same circuit.
    netlist: Arc<Netlist>,
    limits: ResourceLimits,
    chain: Vec<Engine>,
    position: usize,
    active: Box<dyn UnitDelaySimulator>,
    factory: Box<dyn EngineFactory>,
    fired: Vec<FiredFallback>,
    /// Stable state applied before any vector (see
    /// [`GuardedSimulator::seed_stable`]); a degradation before the
    /// first vector re-applies it to the fresh engine.
    seed: Option<Vec<bool>>,
    /// The last vector run, in one reused buffer; meaningful once
    /// `vectors_run > 0`.
    last: Vec<bool>,
    /// Vectors run since construction or the last seed.
    vectors_run: usize,
    telemetry: Option<Telemetry>,
}

/// Records one fallback into the registry: the degradation itself plus
/// its failure class (`guard.budget_trips`, `guard.engine_panics`).
fn note_fallback(telemetry: Option<&Telemetry>, error: &SimError) {
    let Some(telemetry) = telemetry else { return };
    telemetry.add("guard.fallbacks", 1);
    match error.class() {
        FailureClass::Budget => telemetry.add("guard.budget_trips", 1),
        FailureClass::Panic => telemetry.add("guard.engine_panics", 1),
        _ => {}
    }
}

impl std::fmt::Debug for GuardedSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedSimulator")
            .field("chain", &self.chain)
            .field("active", &self.active_engine())
            .field("fallbacks_fired", &self.fired.len())
            .field("vectors_run", &self.vectors_run)
            .finish_non_exhaustive()
    }
}

impl GuardedSimulator {
    /// The default degradation order: fastest compiled engine first,
    /// the interpreted baseline as the engine of last resort.
    pub const DEFAULT_CHAIN: [Engine; 4] = [
        Engine::ParallelPathTracingTrimming,
        Engine::Parallel,
        Engine::PcSet,
        Engine::EventDriven,
    ];

    /// Builds with the default chain and factory.
    pub fn new(netlist: &Netlist, limits: ResourceLimits) -> Result<Self, SimError> {
        Self::with_chain(netlist, limits, &Self::DEFAULT_CHAIN)
    }

    /// Builds with an explicit chain (tried in order).
    pub fn with_chain(
        netlist: &Netlist,
        limits: ResourceLimits,
        chain: &[Engine],
    ) -> Result<Self, SimError> {
        Self::with_factory(
            netlist,
            limits,
            chain,
            Box::new(DefaultEngineFactory::default()),
        )
    }

    /// Builds with an explicit chain and engine factory (the chaos
    /// harness injects faulty factories here).
    pub fn with_factory(
        netlist: &Netlist,
        limits: ResourceLimits,
        chain: &[Engine],
        factory: Box<dyn EngineFactory>,
    ) -> Result<Self, SimError> {
        Self::observed(netlist, limits, chain, factory, None, None)
    }

    /// The fully general constructor: an explicit chain and factory,
    /// plus what observes the build.
    ///
    /// * `telemetry` — the session registry. It hears every compile
    ///   (the initial ones and any fallback's) and records fallbacks
    ///   and cross-check mismatches (the CLI passes it for `--stats`).
    /// * `compile_probe` — overrides the registry for the initial
    ///   compiles only. It can be request-scoped where the registry is
    ///   shared: the serve daemon passes one that routes compile
    ///   phases into a per-request trace while forwarding counters to
    ///   its registry, and no `telemetry`, so runtime fallbacks are
    ///   read from [`GuardedSimulator::fallbacks`] instead.
    pub fn observed(
        netlist: &Netlist,
        limits: ResourceLimits,
        chain: &[Engine],
        factory: Box<dyn EngineFactory>,
        telemetry: Option<Telemetry>,
        compile_probe: Option<&dyn Probe>,
    ) -> Result<Self, SimError> {
        assert!(!chain.is_empty(), "fallback chain must name an engine");
        let probe: &dyn Probe = match (compile_probe, &telemetry) {
            (Some(p), _) => p,
            (None, Some(t)) => t,
            (None, None) => &NoopProbe,
        };
        let mut fired = Vec::new();
        for (position, &engine) in chain.iter().enumerate() {
            match factory.build(netlist, engine, &limits, probe) {
                Ok(active) => {
                    return Ok(GuardedSimulator {
                        netlist: Arc::new(netlist.clone()),
                        limits,
                        chain: chain.to_vec(),
                        position,
                        active,
                        factory,
                        fired,
                        seed: None,
                        last: Vec::new(),
                        vectors_run: 0,
                        telemetry,
                    })
                }
                Err(error) => {
                    note_fallback(telemetry.as_ref(), &error);
                    fired.push(FiredFallback {
                        from: engine,
                        error,
                    });
                }
            }
        }
        Err(SimError::new(
            SimErrorKind::ChainExhausted(fired.into_iter().map(|f| f.error).collect()),
            SimPhase::Compile,
        ))
    }

    /// The engine currently executing vectors.
    pub fn active_engine(&self) -> Engine {
        self.chain[self.position]
    }

    /// Seeds the guard with a stable state (parallel to the netlist's
    /// nets), as if every vector leading there had been simulated. The
    /// vector count restarts from the seed, and a degradation before
    /// the next vector seeds the replacement engine the same way. The
    /// batch runner seeds each shard with the zero-delay settled state
    /// of its boundary vector.
    pub fn seed_stable(&mut self, stable: &[bool]) {
        self.active.seed_stable(stable);
        self.seed = Some(stable.to_vec());
        self.vectors_run = 0;
    }

    /// A fresh guard sharing this one's netlist, budget, chain, and
    /// factory, with the active engine cloned (a parallel engine shares
    /// its compiled program and copies only its state) along with the
    /// hand-off state a fallback would seed a replacement from — so a
    /// fork degrades exactly as this guard would. It carries no
    /// telemetry registry: workers report timings back to the
    /// coordinating thread instead of contending on a shared registry.
    /// Fallbacks already fired are not inherited; each fork degrades
    /// independently.
    pub fn fork(&self) -> GuardedSimulator {
        GuardedSimulator {
            netlist: Arc::clone(&self.netlist),
            limits: self.limits,
            chain: self.chain.clone(),
            position: self.position,
            active: self.active.clone_box(),
            factory: self.factory.clone_box(),
            fired: Vec::new(),
            seed: self.seed.clone(),
            last: self.last.clone(),
            vectors_run: self.vectors_run,
            telemetry: None,
        }
    }

    /// Every fallback that fired, in order (compile-time and run-time).
    pub fn fallbacks(&self) -> &[FiredFallback] {
        &self.fired
    }

    /// Number of vectors successfully simulated since construction or
    /// the last [`GuardedSimulator::seed_stable`].
    pub fn vectors_run(&self) -> usize {
        self.vectors_run
    }

    /// The active engine as a trait object — for consumers like the VCD
    /// recorder that take any [`UnitDelaySimulator`].
    pub fn active_simulator(&self) -> &dyn UnitDelaySimulator {
        self.active.as_ref()
    }

    /// Runtime counters of the active engine (see
    /// [`UnitDelaySimulator::run_counters`]). A fallback replaces the
    /// engine and hands it only the settled state, so after a
    /// degradation the counts cover the survivor's own vectors since
    /// the hand-off.
    pub fn run_counters(&self) -> Vec<(&'static str, u64)> {
        self.active.run_counters()
    }

    /// Simulates one vector, panic-contained. On an engine panic the
    /// chain degrades: the remaining engines are tried in order, each
    /// seeded with the state the last vector settled to before it runs
    /// the current vector. Returns the engine that (finally) ran the
    /// vector.
    pub fn simulate_vector(&mut self, inputs: &[bool]) -> Result<Engine, SimError> {
        self.run_vector(inputs, |sim| sim.simulate_vector(inputs))
    }

    /// [`GuardedSimulator::simulate_vector`] with per-level time
    /// attribution into `profile` (see
    /// [`UnitDelaySimulator::simulate_vector_leveled`]). Panic
    /// containment and degradation work exactly as in the unprofiled
    /// path; a vector that degrades mid-flight leaves whatever partial
    /// timing the failed engine accumulated in `profile` — self-time is
    /// observability, not simulation state, so it is never rolled back.
    ///
    /// The guard's own per-vector bookkeeping (width/deadline checks,
    /// panic containment, keeping the last vector) happens between the
    /// engine's timer lifetimes, so this wrapper times the whole call
    /// and attributes the engine-unattributed remainder to level 0 —
    /// per-vector setup by definition — keeping the sum contract
    /// ("everything inside a profiled call lands in some level")
    /// honest for small circuits where bookkeeping is a visible slice.
    pub fn simulate_vector_leveled(
        &mut self,
        inputs: &[bool],
        profile: &mut uds_netlist::LevelProfile,
    ) -> Result<Engine, SimError> {
        let call_clock = std::time::Instant::now();
        let attributed_before = profile.total_self_ns();
        let engine = self.run_vector(inputs, |sim| sim.simulate_vector_leveled(inputs, profile))?;
        let call_ns = u64::try_from(call_clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let engine_ns = profile.total_self_ns() - attributed_before;
        profile.ensure_level(0);
        profile.levels[0].self_ns += call_ns.saturating_sub(engine_ns);
        Ok(engine)
    }

    /// The one guarded run loop: checks width and deadline, then runs
    /// `run` on the active engine panic-contained, degrading and
    /// retrying until an engine finishes the vector or the chain is
    /// exhausted.
    fn run_vector(
        &mut self,
        inputs: &[bool],
        mut run: impl FnMut(&mut dyn UnitDelaySimulator),
    ) -> Result<Engine, SimError> {
        let expected = self.netlist.primary_inputs().len();
        if inputs.len() != expected {
            return Err(SimError::new(
                SimErrorKind::VectorWidth {
                    expected,
                    got: inputs.len(),
                },
                SimPhase::Run,
            )
            .with_engine(self.active_engine()));
        }
        self.limits
            .check_deadline()
            .map_err(|e| SimError::new(SimErrorKind::Budget(e), SimPhase::Run))?;
        loop {
            let active = self.active.as_mut();
            match panic::catch_unwind(AssertUnwindSafe(|| run(active))) {
                Ok(()) => {
                    self.last.clear();
                    self.last.extend_from_slice(inputs);
                    self.vectors_run += 1;
                    return Ok(self.active_engine());
                }
                Err(payload) => {
                    let error = SimError::from_panic(payload, SimPhase::Run)
                        .with_engine(self.active_engine());
                    self.degrade(error)?;
                }
            }
        }
    }

    /// The active engine's static per-level cost model, when it has one
    /// (see [`UnitDelaySimulator::level_static_profile`]).
    pub fn level_static_profile(&self) -> Option<uds_netlist::LevelProfile> {
        self.active.level_static_profile()
    }

    /// Abandons the active engine for the given reason and brings up
    /// the next one in the chain that compiles and accepts the hand-off
    /// state: the zero-delay settle of the last vector run, or the seed
    /// (power-up when unseeded) if no vector has run since. Errors with
    /// [`SimErrorKind::ChainExhausted`] when no engine remains.
    fn degrade(&mut self, error: SimError) -> Result<(), SimError> {
        note_fallback(self.telemetry.as_ref(), &error);
        self.fired.push(FiredFallback {
            from: self.active_engine(),
            error,
        });
        let handoff = if self.vectors_run > 0 {
            stable_states(&self.netlist, [self.last.as_slice()])?.pop()
        } else {
            self.seed.clone()
        };
        let probe: &dyn Probe = match &self.telemetry {
            Some(t) => t,
            None => &NoopProbe,
        };
        for position in self.position + 1..self.chain.len() {
            let engine = self.chain[position];
            let candidate = self
                .factory
                .build(&self.netlist, engine, &self.limits, probe)
                .and_then(|mut sim| {
                    let Some(state) = &handoff else {
                        return Ok(sim);
                    };
                    panic::catch_unwind(AssertUnwindSafe(|| sim.seed_stable(state)))
                        .map(|()| sim)
                        .map_err(|payload| {
                            SimError::from_panic(payload, SimPhase::Run).with_engine(engine)
                        })
                });
            match candidate {
                Ok(sim) => {
                    self.active = sim;
                    self.position = position;
                    return Ok(());
                }
                Err(error) => {
                    note_fallback(self.telemetry.as_ref(), &error);
                    self.fired.push(FiredFallback {
                        from: engine,
                        error,
                    });
                }
            }
        }
        Err(SimError::new(
            SimErrorKind::ChainExhausted(self.fired.iter().map(|f| f.error.clone()).collect()),
            SimPhase::Run,
        ))
    }

    /// The settled value of a net for the last vector.
    pub fn final_value(&self, net: NetId) -> bool {
        self.active.final_value(net)
    }

    /// The history of a net for the last vector, where the active
    /// engine tracks it.
    pub fn history(&self, net: NetId) -> Option<Vec<bool>> {
        self.active.history(net)
    }

    /// Circuit depth.
    pub fn depth(&self) -> u32 {
        self.active.depth()
    }

    /// Cross-checks the surviving engine against a fresh event-driven
    /// baseline by running `stimulus` — every vector this guard ran
    /// since construction or its seed — through both (using
    /// [`crosscheck::run`]), panic-contained. A divergence is a
    /// [`SimErrorKind::Mismatch`]; agreement means every answer this
    /// simulator produced is bit-exact with the baseline.
    pub fn crosscheck_baseline(&self, stimulus: &[Vec<bool>]) -> Result<(), SimError> {
        let engine = self.active_engine();
        let mut baseline: Box<dyn UnitDelaySimulator> = Box::new(
            TracedEventSim::new(&self.netlist)
                .map_err(|e| SimError::from(e).with_engine(engine))?,
        );
        let mut candidate = self
            .factory
            .build(&self.netlist, engine, &self.limits, &NoopProbe)?;
        if let Some(seed) = &self.seed {
            baseline.seed_stable(seed);
            candidate.seed_stable(seed);
        }
        let mut sims = vec![baseline, candidate];
        let netlist = &self.netlist;
        let checked = panic::catch_unwind(AssertUnwindSafe(|| {
            crosscheck::run(netlist, &mut sims, stimulus.iter().cloned())
        }));
        match checked {
            Ok(Ok(())) => Ok(()),
            Ok(Err(mismatch)) => {
                if let Some(telemetry) = &self.telemetry {
                    telemetry.add("guard.crosscheck_mismatches", 1);
                }
                Err(SimError::from(mismatch).with_engine(engine))
            }
            Err(payload) => {
                Err(SimError::from_panic(payload, SimPhase::CrossCheck).with_engine(engine))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureClass;
    use uds_netlist::generators::iscas::c17;

    #[test]
    fn prefers_the_fastest_engine_within_budget() {
        let nl = c17();
        let guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        assert_eq!(guarded.active_engine(), Engine::ParallelPathTracingTrimming);
        assert!(guarded.fallbacks().is_empty());
    }

    /// A chain of `n` buffers: depth n, trivially correct, deep enough
    /// to defeat small word budgets.
    fn buffer_chain(n: usize) -> uds_netlist::Netlist {
        use uds_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new();
        let mut prev = b.input("a");
        for i in 0..n {
            prev = b.gate(GateKind::Buf, &[prev], format!("b{i}")).unwrap();
        }
        b.output(prev);
        b.finish().unwrap()
    }

    #[test]
    fn degrades_when_budget_rejects_compiled_engines() {
        // A one-word budget the unoptimized parallel engine cannot
        // satisfy on a circuit deeper than 31 (uniform fields span the
        // whole depth) — pc-set has no bit-fields and takes over.
        let nl = buffer_chain(40);
        let limits = ResourceLimits {
            max_field_words: Some(1),
            ..ResourceLimits::unlimited()
        };
        let chain = [Engine::Parallel, Engine::PcSet, Engine::EventDriven];
        let mut guarded = GuardedSimulator::with_chain(&nl, limits, &chain).unwrap();
        assert_eq!(guarded.active_engine(), Engine::PcSet);
        let fired: Vec<Engine> = guarded.fallbacks().iter().map(|f| f.from).collect();
        assert_eq!(fired, vec![Engine::Parallel]);
        for fallback in guarded.fallbacks() {
            assert_eq!(fallback.error.class(), FailureClass::Budget);
        }
        // The survivor still answers correctly.
        guarded.simulate_vector(&[true]).unwrap();
        guarded.crosscheck_baseline(&[vec![true]]).unwrap();
    }

    /// All 32 input patterns of c17, in counting order.
    fn exhaustive_c17() -> Vec<Vec<bool>> {
        (0u32..32)
            .map(|pattern| (0..5).map(|i| pattern >> i & 1 != 0).collect())
            .collect()
    }

    #[test]
    fn guarded_results_match_baseline() {
        let nl = c17();
        let mut guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let stimulus = exhaustive_c17();
        for inputs in &stimulus {
            guarded.simulate_vector(inputs).unwrap();
        }
        assert_eq!(guarded.vectors_run(), 32);
        guarded.crosscheck_baseline(&stimulus).unwrap();
    }

    #[test]
    fn wrong_vector_width_is_typed_not_a_panic() {
        let nl = c17();
        let mut guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let err = guarded.simulate_vector(&[true]).unwrap_err();
        assert_eq!(err.class(), FailureClass::Usage);
        assert!(guarded.fallbacks().is_empty(), "no fallback on bad input");
    }

    #[test]
    fn chain_preferring_prepends_without_duplicates() {
        assert_eq!(chain_preferring(None), GuardedSimulator::DEFAULT_CHAIN);
        let native = chain_preferring(Some(Engine::Native));
        assert_eq!(native[0], Engine::Native);
        assert_eq!(native[1..], GuardedSimulator::DEFAULT_CHAIN);
        let already = chain_preferring(Some(Engine::ParallelPathTracingTrimming));
        assert_eq!(already, GuardedSimulator::DEFAULT_CHAIN);
    }

    #[test]
    fn guarded_native_runs_or_degrades_bit_exactly() {
        // With a C toolchain the native engine heads the chain; without
        // one the toolchain failure is contained and an interpreted
        // engine takes over. Either way the answers cross-check.
        let _env = crate::native::env_lock();
        let nl = c17();
        let chain = chain_preferring(Some(Engine::Native));
        let mut guarded =
            GuardedSimulator::with_chain(&nl, ResourceLimits::production(), &chain).unwrap();
        if crate::native::compiler_available() {
            assert_eq!(guarded.active_engine(), Engine::Native);
            assert!(guarded.fallbacks().is_empty());
        } else {
            assert_eq!(
                guarded.fallbacks()[0].error.class(),
                FailureClass::Toolchain
            );
        }
        let stimulus = exhaustive_c17();
        for inputs in &stimulus {
            guarded.simulate_vector(inputs).unwrap();
        }
        guarded.crosscheck_baseline(&stimulus).unwrap();
    }

    #[test]
    fn chain_exhaustion_reports_every_failure() {
        let nl = c17();
        let limits = ResourceLimits {
            max_depth: Some(1),
            ..ResourceLimits::unlimited()
        };
        let err = GuardedSimulator::new(&nl, limits).unwrap_err();
        assert_eq!(err.class(), FailureClass::Budget);
        match err.kind {
            SimErrorKind::ChainExhausted(errors) => {
                assert_eq!(errors.len(), GuardedSimulator::DEFAULT_CHAIN.len());
            }
            other => panic!("expected chain exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn monitoring_factory_makes_every_net_observable_on_every_engine() {
        let nl = c17();
        let limits = ResourceLimits::production();
        for engine in Engine::ALL {
            let mut sim = DefaultEngineFactory::monitoring(WordWidth::default())
                .build(&nl, engine, &limits, &NoopProbe)
                .unwrap();
            sim.simulate_vector(&[true, false, true, false, true]);
            for net in nl.net_ids() {
                assert!(
                    sim.for_each_toggle(net, &mut |_| {}).is_some(),
                    "{engine}: net {} must expose a toggle stream",
                    nl.net_name(net)
                );
            }
        }
    }

    #[test]
    fn build_engine_contains_budget_errors_per_engine() {
        let nl = c17();
        let limits = ResourceLimits {
            max_gates: Some(1),
            ..ResourceLimits::unlimited()
        };
        for engine in Engine::ALL {
            let err = DefaultEngineFactory::default()
                .build(&nl, engine, &limits, &NoopProbe)
                .err()
                .expect("a one-gate budget rejects c17");
            assert_eq!(err.class(), FailureClass::Budget, "{engine}");
            assert_eq!(err.engine, Some(engine));
        }
    }
}
