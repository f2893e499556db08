//! End-to-end proof that the emitted C actually compiles and runs: for
//! every native flavor (the PC-set method and each parallel
//! optimization level) at every arena word width, compile the emitted C
//! with the system C compiler, `dlopen` it, and cross-check its
//! waveforms vector by vector against the interpreted event-driven
//! baseline on the fixture circuits.
//!
//! A `run_batch` run at `--jobs 2` then pins that shards calling one
//! loaded artifact concurrently keep independent state: the emitted C
//! owns none, and nothing serializes the calls.
//!
//! The whole suite skips — with a visible notice on stderr — when no C
//! compiler is on `PATH` (`$UDS_CC` overrides the default `cc`), so
//! toolchain-free hosts stay green without silently losing coverage.

use unit_delay_sim::core::guard::EngineFactory;
use unit_delay_sim::core::vectors::{Exhaustive, RandomVectors};
use unit_delay_sim::core::{
    build_native, compiler_available, crosscheck, run_batch, GuardedSimulator, SimError, WordWidth,
};
use unit_delay_sim::netlist::generators::adders::{ripple_carry_adder, AdderStyle};
use unit_delay_sim::netlist::generators::iscas::{c17, Iscas85};
use unit_delay_sim::netlist::generators::trees::mux_tree;
use unit_delay_sim::netlist::{NoopProbe, Probe, ResourceLimits};
use unit_delay_sim::prelude::*;

/// Every engine flavor the native builder can compile to C. The
/// PC-set method's stream is always 64-bit, so it is paired only with
/// [`WordWidth::W64`]; each parallel level runs at both widths.
fn flavors() -> Vec<(Engine, Vec<WordWidth>)> {
    let both = vec![WordWidth::W32, WordWidth::W64];
    vec![
        (Engine::PcSet, vec![WordWidth::W64]),
        (Engine::Parallel, both.clone()),
        (Engine::ParallelTrimming, both.clone()),
        (Engine::ParallelPathTracing, both.clone()),
        (Engine::ParallelPathTracingTrimming, both.clone()),
        (Engine::ParallelCycleBreaking, both),
    ]
}

/// True (after printing the visible notice) when the suite cannot run
/// because the host has no C compiler.
fn skip_without_compiler(test: &str) -> bool {
    if compiler_available() {
        return false;
    }
    eprintln!("SKIP {test}: no C compiler on PATH (set $UDS_CC to override) — native e2e not run");
    true
}

/// Cross-checks every flavor × width of `netlist` against the
/// interpreted event-driven baseline over `stimulus`.
fn check_all_flavors(netlist: &Netlist, stimulus: &[Vec<bool>]) {
    for (flavor, widths) in flavors() {
        for word in widths {
            let native = build_native(
                netlist,
                flavor,
                word,
                &ResourceLimits::unlimited(),
                &NoopProbe,
            )
            .unwrap_or_else(|e| panic!("{flavor} at w{} must build: {e}", word.bits()));
            assert_eq!(native.engine_name(), "native");
            let baseline = build_simulator(netlist, Engine::EventDriven).expect("baseline builds");
            let mut sims = vec![baseline, native];
            crosscheck::run(netlist, &mut sims, stimulus.iter().cloned()).unwrap_or_else(|e| {
                panic!(
                    "{flavor} at w{} diverged from the interpreter on {}: {e}",
                    word.bits(),
                    netlist.name()
                )
            });
        }
    }
}

#[test]
fn c17_exhaustive_every_flavor_and_width() {
    if skip_without_compiler("c17_exhaustive_every_flavor_and_width") {
        return;
    }
    let nl = c17();
    // Every consecutive pair of the 32 patterns, in both orders.
    let stimulus: Vec<Vec<bool>> = Exhaustive::new(5)
        .chain(Exhaustive::new(5).skip(1))
        .collect();
    check_all_flavors(&nl, &stimulus);
}

#[test]
fn generator_circuits_random_every_flavor_and_width() {
    if skip_without_compiler("generator_circuits_random_every_flavor_and_width") {
        return;
    }
    for nl in [
        ripple_carry_adder(6, AdderStyle::NativeXor).unwrap(),
        mux_tree(3).unwrap(),
    ] {
        let width = nl.primary_inputs().len();
        let stimulus: Vec<Vec<bool>> = RandomVectors::new(width, 0x17).take(24).collect();
        check_all_flavors(&nl, &stimulus);
    }
}

#[test]
fn c432_random_every_flavor_and_width() {
    if skip_without_compiler("c432_random_every_flavor_and_width") {
        return;
    }
    let nl = Iscas85::C432.build();
    let width = nl.primary_inputs().len();
    let stimulus: Vec<Vec<bool>> = RandomVectors::new(width, 1990).take(16).collect();
    check_all_flavors(&nl, &stimulus);
}

/// Builds [`Engine::Native`] as the native compile of one flavor, so a
/// guarded batch can run the PC-set artifact too.
#[derive(Clone, Copy)]
struct NativeFlavor {
    flavor: Engine,
    word: WordWidth,
}

impl EngineFactory for NativeFlavor {
    fn build(
        &self,
        netlist: &Netlist,
        engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        assert_eq!(engine, Engine::Native);
        build_native(netlist, self.flavor, self.word, limits, probe)
    }

    fn clone_box(&self) -> Box<dyn EngineFactory> {
        Box::new(*self)
    }
}

#[test]
fn c432_run_batch_jobs_2_matches_the_oracle_row_by_row() {
    if skip_without_compiler("c432_run_batch_jobs_2_matches_the_oracle_row_by_row") {
        return;
    }
    let nl = Iscas85::C432.build();
    let stimulus: Vec<Vec<bool>> = RandomVectors::new(nl.primary_inputs().len(), 432)
        .take(400)
        .collect();
    let mut oracle = build_simulator(&nl, Engine::EventDriven).expect("oracle builds");
    let expected: Vec<Vec<bool>> = stimulus
        .iter()
        .map(|vector| {
            oracle.simulate_vector(vector);
            let outputs = nl.primary_outputs().iter();
            outputs.map(|&po| oracle.final_value(po)).collect()
        })
        .collect();
    for (flavor, word) in [
        (Engine::ParallelPathTracingTrimming, WordWidth::W32),
        (Engine::ParallelPathTracingTrimming, WordWidth::W64),
        (Engine::PcSet, WordWidth::W64),
    ] {
        let label = format!("{flavor} at w{}", word.bits());
        let factory = Box::new(NativeFlavor { flavor, word });
        let prototype = GuardedSimulator::with_factory(
            &nl,
            ResourceLimits::unlimited(),
            &[Engine::Native],
            factory,
        )
        .unwrap_or_else(|e| panic!("{label} must build: {e}"));
        let out = run_batch(&nl, &prototype, &stimulus, 2, None)
            .unwrap_or_else(|e| panic!("{label} batch failed: {e}"));
        assert_eq!(out.shards.len(), 2, "{label}");
        for shard in &out.shards {
            assert_eq!(shard.engine, Engine::Native, "{label}");
            assert_eq!(shard.fallbacks, 0, "{label}");
        }
        assert_eq!(out.rows.len(), expected.len(), "{label}");
        for (index, (row, want)) in out.rows.iter().zip(&expected).enumerate() {
            assert_eq!(row, want, "{label}: row {index} differs from the oracle");
        }
    }
}
