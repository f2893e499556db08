//! Golden emitted C: `codegen_c::emit` for c17 and c432 under every
//! optimization at 32-bit words, and `emit_native` for c432 with path
//! tracing and trimming at both word widths, must match the committed
//! fixtures under `tests/golden/` byte for byte. Both circuits fit every
//! field in one 32-bit word, so a 24-bit ripple-carry adder, whose carry
//! chain spans two words, pins the multi-word shift emission under path
//! tracing and under cycle breaking, each with trimming. The emitter
//! reads its constants from the same op stream the interpreter runs, so
//! these fixtures pin that a change to the op encoding leaves the
//! generated code untouched.

use std::path::PathBuf;

use uds_netlist::generators::adders::{ripple_carry_adder, AdderStyle};
use uds_netlist::generators::iscas::{c17, Iscas85};
use uds_netlist::Netlist;
use uds_parallel::codegen_c::{emit, emit_native};
use uds_parallel::{Optimization, ParallelSim, Word};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("missing fixture {}: {err}", path.display()))
}

fn assert_matches_fixture(name: &str, code: &str) {
    let expected = fixture(name);
    if code != expected {
        let line = code
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| code.lines().count().min(expected.lines().count()));
        panic!(
            "{name}: emitted C differs from the fixture at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            code.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

#[test]
fn emit_matches_golden_for_every_optimization() {
    let circuits: [(&str, Netlist); 2] = [("c17", c17()), ("c432", Iscas85::C432.build())];
    for (name, netlist) in &circuits {
        for optimization in Optimization::ALL {
            let sim = ParallelSim::<u32>::compile(netlist, optimization).unwrap();
            let code = emit(netlist, &sim).unwrap();
            assert_matches_fixture(&format!("{name}_{}_w32.c", optimization.key()), &code);
        }
    }
}

#[test]
fn emit_matches_golden_for_multi_word_fields() {
    let netlist = ripple_carry_adder(24, AdderStyle::NativeXor).unwrap();
    for optimization in [
        Optimization::PathTracingTrimming,
        Optimization::CycleBreakingTrimming,
    ] {
        let sim = ParallelSim::<u32>::compile(&netlist, optimization).unwrap();
        let code = emit(&netlist, &sim).unwrap();
        assert!(code.contains("_w1 = "), "{optimization:?}: two-word fields");
        assert_matches_fixture(&format!("rca24_{}_w32.c", optimization.key()), &code);
    }
}

fn native_case<W: Word>() {
    let netlist = Iscas85::C432.build();
    let sim = ParallelSim::<W>::compile(&netlist, Optimization::PathTracingTrimming).unwrap();
    let code = emit_native(&netlist, &sim).unwrap();
    assert_matches_fixture(&format!("c432_pt-trim_w{}_native.c", W::BITS), &code);
}

#[test]
fn emit_native_matches_golden_at_both_widths() {
    native_case::<u32>();
    native_case::<u64>();
}
