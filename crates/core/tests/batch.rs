//! Exactness contract of the batch runner: sharded execution must be
//! byte-identical to sequential for every engine, shard count, and
//! word width — including while chaos faults knock engines over
//! mid-shard. Seeded and dependency-free (stimulus comes from
//! [`RandomVectors`]).

use uds_core::chaos::{ChaosFactory, Fault, FaultPlan};
use uds_core::vectors::RandomVectors;
use uds_core::{
    build_simulator, run_batch, DefaultEngineFactory, Engine, GuardedSimulator, Telemetry,
    WordWidth,
};
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::generators::random::{layered, LayeredConfig};
use uds_netlist::{Netlist, ResourceLimits};

/// A circuit deep enough that 32-bit parallel fields span two words and
/// retention (each vector starting from the last one's settled state)
/// actually matters.
fn circuit() -> Netlist {
    let mut config = LayeredConfig::new("batch-prop", 220, 40);
    config.primary_inputs = 8;
    config.seed = 0xBA7C;
    config.locality = 0.4;
    config.xor_fraction = 0.25;
    layered(&config).unwrap()
}

fn stimulus(nl: &Netlist, vectors: usize) -> Vec<Vec<bool>> {
    RandomVectors::new(nl.primary_inputs().len(), 0x5EED_1990)
        .take(vectors)
        .collect()
}

/// Primary-output rows from a plain sequential run of `chain`.
fn sequential_rows(
    nl: &Netlist,
    chain: &[Engine],
    word: WordWidth,
    vectors: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let factory = Box::new(DefaultEngineFactory::with_word(word));
    let mut guard =
        GuardedSimulator::with_factory(nl, ResourceLimits::production(), chain, factory).unwrap();
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
fn batch_is_byte_identical_for_every_engine_job_count_and_width() {
    let nl = circuit();
    let vectors = stimulus(&nl, 40);
    for engine in [
        Engine::ParallelPathTracingTrimming,
        Engine::Parallel,
        Engine::PcSet,
        Engine::EventDriven,
    ] {
        let chain = [engine];
        for word in [WordWidth::W32, WordWidth::W64] {
            let expected = sequential_rows(&nl, &chain, word, &vectors);
            for jobs in [1usize, 2, 7] {
                let factory = Box::new(DefaultEngineFactory::with_word(word));
                let prototype = GuardedSimulator::with_factory(
                    &nl,
                    ResourceLimits::production(),
                    &chain,
                    factory,
                )
                .unwrap();
                let out = run_batch(&nl, &prototype, &vectors, jobs, None).unwrap();
                assert_eq!(
                    out.rows, expected,
                    "{engine} diverged at word={word} jobs={jobs}"
                );
                assert_eq!(out.shards.len(), jobs.min(vectors.len()));
            }
        }
    }
}

#[test]
fn batch_stays_exact_while_chaos_panics_an_engine_in_every_shard() {
    let nl = circuit();
    let vectors = stimulus(&nl, 30);
    // The expected answers come from an unsabotaged sequential run.
    let expected = sequential_rows(
        &nl,
        &GuardedSimulator::DEFAULT_CHAIN,
        WordWidth::W32,
        &vectors,
    );
    // The lead engine panics at its third vector — in *each* shard,
    // since fault coordinates are engine-local. Every worker must
    // degrade independently and still produce the exact rows.
    let plan = FaultPlan::single(
        "panic-mid-shard",
        Fault::RunPanicAt {
            engine: Engine::ParallelPathTracingTrimming,
            vector: 2,
        },
    );
    for jobs in [1usize, 2, 7] {
        let telemetry = Telemetry::new();
        let prototype = GuardedSimulator::observed(
            &nl,
            ResourceLimits::production(),
            &GuardedSimulator::DEFAULT_CHAIN,
            Box::new(ChaosFactory::new(plan.clone())),
            Some(telemetry.clone()),
            None,
        )
        .unwrap();
        let out = run_batch(&nl, &prototype, &vectors, jobs, Some(&telemetry)).unwrap();
        assert_eq!(out.rows, expected, "jobs={jobs}");
        for shard in &out.shards {
            assert!(
                shard.fallbacks > 0,
                "jobs={jobs}: shard {} never hit its injected panic",
                shard.index
            );
            assert_ne!(
                shard.engine,
                Engine::ParallelPathTracingTrimming,
                "jobs={jobs}"
            );
        }
        assert_eq!(
            telemetry.counter("batch.shard_fallbacks"),
            out.shards.iter().map(|s| s.fallbacks as u64).sum::<u64>()
        );
    }
}

#[test]
fn forked_guards_inherit_the_prototype_seed() {
    // Seeding the prototype then batching a *suffix* of the stream must
    // equal the corresponding suffix of the sequential run — the fork
    // carries the seed into shard 0, the prepass covers the rest.
    let nl = circuit();
    let vectors = stimulus(&nl, 20);
    let expected = sequential_rows(
        &nl,
        &GuardedSimulator::DEFAULT_CHAIN,
        WordWidth::W32,
        &vectors,
    );
    let settled = uds_eventsim::zero_delay::stable_states(&nl, [vectors[9].as_slice()])
        .unwrap()
        .remove(0);
    let factory = Box::new(DefaultEngineFactory::default());
    let mut prototype = GuardedSimulator::with_factory(
        &nl,
        ResourceLimits::production(),
        &GuardedSimulator::DEFAULT_CHAIN,
        factory,
    )
    .unwrap();
    prototype.seed_stable(&settled);
    let out = run_batch(&nl, &prototype, &vectors[10..], 3, None).unwrap();
    assert_eq!(out.rows.as_slice(), &expected[10..]);

    // The seed reproduces every net's full waveform, not just settled
    // values: a fork seeded with the zero-delay settle of vector 3
    // matches the event-driven run of the whole stream on the history
    // of every net, for every engine and word width.
    for circuit in [Iscas85::C432, Iscas85::C1908] {
        let nl = circuit.build();
        let vectors = stimulus(&nl, 16);
        let mut reference = build_simulator(&nl, Engine::EventDriven).unwrap();
        let mut expected: Vec<Vec<Option<Vec<bool>>>> = Vec::new();
        for (index, vector) in vectors.iter().enumerate() {
            reference.simulate_vector(vector);
            if index > 3 {
                expected.push(nl.net_ids().map(|net| reference.history(net)).collect());
            }
        }
        let settled = uds_eventsim::zero_delay::stable_states(&nl, [vectors[3].as_slice()])
            .unwrap()
            .remove(0);
        for engine in Engine::ALL {
            for word in [WordWidth::W32, WordWidth::W64] {
                let factory = Box::new(DefaultEngineFactory::monitoring(word));
                let mut prototype = GuardedSimulator::with_factory(
                    &nl,
                    ResourceLimits::unlimited(),
                    &[engine],
                    factory,
                )
                .unwrap();
                prototype.seed_stable(&settled);
                let mut fork = prototype.fork();
                for (vector, expected) in vectors[4..].iter().zip(&expected) {
                    fork.simulate_vector(vector).unwrap();
                    let got: Vec<Option<Vec<bool>>> =
                        nl.net_ids().map(|net| fork.history(net)).collect();
                    assert_eq!(&got, expected, "{circuit:?} {engine} {word:?}");
                }
            }
        }
    }
}

#[test]
fn forked_guard_degrades_from_the_prototype_state() {
    // A prototype that has run vectors hands its fork the state a
    // fallback must start from: the fork panics on its first vector,
    // degrades, and the replacement must reproduce the event-driven
    // waveform of every net — not one started from power-up.
    let nl = Iscas85::C432.build();
    let vectors = stimulus(&nl, 5);
    let plan = FaultPlan::single(
        "fork-handoff",
        Fault::RunPanicAt {
            engine: Engine::Parallel,
            vector: 4,
        },
    );
    let mut prototype = GuardedSimulator::with_factory(
        &nl,
        ResourceLimits::production(),
        &[Engine::Parallel, Engine::EventDriven],
        Box::new(ChaosFactory::new(plan)),
    )
    .unwrap();
    for vector in &vectors[..4] {
        prototype.simulate_vector(vector).unwrap();
    }
    let mut fork = prototype.fork();
    assert_eq!(
        fork.simulate_vector(&vectors[4]).unwrap(),
        Engine::EventDriven
    );
    assert_eq!(fork.fallbacks().len(), 1);

    let mut reference = build_simulator(&nl, Engine::EventDriven).unwrap();
    for vector in &vectors {
        reference.simulate_vector(vector);
    }
    for net in nl.net_ids() {
        assert_eq!(
            fork.history(net),
            reference.history(net),
            "net {}",
            nl.net_name(net)
        );
    }
}
