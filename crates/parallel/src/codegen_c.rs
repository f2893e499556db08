//! C code emission for the parallel technique — the output format of the
//! paper's Figs. 6, 8, and 18.
//!
//! The emitted translation unit declares one `word` static per arena
//! word plus the scratch words, and a `simulate_one_vector` function
//! whose statements correspond one-to-one to the compiled word ops, so
//! its line count tracks the generated-code-size comparison between the
//! techniques. The output is self-contained — every referenced
//! identifier is defined in the same translation unit — so `cc` can
//! compile it directly. [`emit_native`] wraps the same statements as
//! the native engine runs them: per-level blocks over a caller-owned
//! arena.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use uds_netlist::Netlist;
use uds_pcset::codegen_c::{gate_expression, unique_stem, write_driver};

use crate::program::{Funnel, WOp};
use crate::word::Word;
use crate::ParallelSim;

/// Error returned by [`emit`]: the simulator was compiled from a
/// different netlist than the one it is being emitted against, so the
/// generated names would be misleading (or out of range).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmitError {
    /// The netlist's net count disagrees with the compiled program's.
    NetlistMismatch {
        netlist_nets: usize,
        program_nets: usize,
    },
    /// The netlist's primary-input count disagrees with the program's.
    InputMismatch {
        netlist_inputs: usize,
        program_inputs: usize,
    },
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EmitError::NetlistMismatch {
                netlist_nets,
                program_nets,
            } => write!(
                f,
                "simulator was compiled from a different netlist: \
                 {program_nets} nets in the program, {netlist_nets} in the netlist"
            ),
            EmitError::InputMismatch {
                netlist_inputs,
                program_inputs,
            } => write!(
                f,
                "simulator was compiled from a different netlist: \
                 {program_inputs} primary inputs in the program, {netlist_inputs} in the netlist"
            ),
        }
    }
}

impl std::error::Error for EmitError {}

/// Emits the compiled program as a C translation unit. The `word`
/// typedef and shift-merge carry counts follow the simulator's word
/// width (`uint32_t` / `uint64_t`).
///
/// # Errors
///
/// Returns [`EmitError`] when `simulator` was not compiled from
/// `netlist` (net or primary-input counts disagree).
pub fn emit<W: Word>(netlist: &Netlist, simulator: &ParallelSim<W>) -> Result<String, EmitError> {
    emit_impl(netlist, simulator, false)
}

/// Like [`emit`], but as the native engine's translation unit: the C
/// owns no state. Arena word `k` is `s[k]` of a caller-owned
/// `word *restrict s`, and each compile-time level segment
/// (`ParallelSim::level_segments`) becomes its own `noinline`
/// function `uds_block_<i>`. The one exported function,
/// `uds_run(s, pi, tick, ctx)`, runs the blocks in order: one vector.
/// Bounded functions keep `cc -O2` time near linear in the circuit
/// size.
pub fn emit_native<W: Word>(
    netlist: &Netlist,
    simulator: &ParallelSim<W>,
) -> Result<String, EmitError> {
    emit_impl(netlist, simulator, true)
}

/// Number of lines [`emit`] produces.
///
/// # Errors
///
/// Returns [`EmitError`] when `simulator` was not compiled from
/// `netlist`.
pub fn line_count<W: Word>(
    netlist: &Netlist,
    simulator: &ParallelSim<W>,
) -> Result<usize, EmitError> {
    Ok(emit(netlist, simulator)?.lines().count())
}

fn emit_impl<W: Word>(
    netlist: &Netlist,
    simulator: &ParallelSim<W>,
    native: bool,
) -> Result<String, EmitError> {
    let program = simulator.program();
    if simulator.layout_count() != netlist.net_count() {
        return Err(EmitError::NetlistMismatch {
            netlist_nets: netlist.net_count(),
            program_nets: simulator.layout_count(),
        });
    }
    if program.input_count != netlist.primary_inputs().len() {
        return Err(EmitError::InputMismatch {
            netlist_inputs: netlist.primary_inputs().len(),
            program_inputs: program.input_count,
        });
    }
    let b = W::BITS;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* parallel-technique unit-delay simulation of `{}` ({}) */",
        netlist.name(),
        simulator.optimization()
    );
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "typedef {} word;", W::C_TYPE);
    let names: Vec<String> = if native {
        (0..program.arena_words)
            .map(|w| format!("s[{w}]"))
            .collect()
    } else {
        let names = field_names(netlist, simulator);
        // Initializers reproduce the simulator's consistent power-up
        // state (every field filled with the value the circuit settles
        // to under all-zero inputs), so the first vector's retained bits
        // are right.
        let initial = simulator.initial_arena();
        for (slot, name) in names.iter().enumerate() {
            let value = if initial[slot] != W::ZERO {
                "~(word)0"
            } else {
                "0"
            };
            let _ = writeln!(out, "static word {name} = {value};");
        }
        names
    };
    if !native {
        let _ = writeln!(out, "\nvoid simulate_one_vector(const word *pi)\n{{");
    }
    // The segments tile the op stream in order: the plain emit runs
    // them in one function, the native one wraps each in its own.
    let segments = simulator.level_segments();
    for (index, segment) in segments.iter().enumerate() {
        if native {
            let _ = writeln!(
                out,
                "\n__attribute__((noinline, visibility(\"hidden\")))\n\
                 void uds_block_{index}(word *restrict s, const word *restrict pi)\n{{"
            );
        }
        for op in &program.ops[segment.start..segment.end] {
            if let Some((kind, dst, operands)) = op.gate_operands(&program.operands) {
                let operands: Vec<&str> = operands
                    .iter()
                    .map(|&word| names[word as usize].as_str())
                    .collect();
                let _ = writeln!(
                    out,
                    "    {} = {};",
                    names[dst as usize],
                    gate_expression(kind, &operands)
                );
                continue;
            }
            if let Some(funnel) = op.funnel::<W>() {
                emit_funnel(&mut out, &names, &funnel, b);
                continue;
            }
            match *op {
                WOp::MergeShl1Low { dst, src } => {
                    let _ = writeln!(
                        out,
                        "    {} |= {} << 1;",
                        names[dst as usize], names[src as usize]
                    );
                }
                WOp::MergeShl1 { dst, src, carry } => {
                    let _ = writeln!(
                        out,
                        "    {} |= ({} << 1) | ({} >> {});",
                        names[dst as usize],
                        names[src as usize],
                        names[carry as usize],
                        b - 1
                    );
                }
                WOp::BroadcastBit { dst, src, bit } => {
                    let _ = writeln!(
                        out,
                        "    {} = (word)0 - ({} >> {bit} & 1);",
                        names[dst as usize], names[src as usize]
                    );
                }
                WOp::ExtractBit { dst, src, bit } => {
                    let _ = writeln!(
                        out,
                        "    {} = {} >> {bit} & 1;",
                        names[dst as usize], names[src as usize]
                    );
                }
                WOp::Zero { dst } => {
                    let _ = writeln!(out, "    {} = 0;", names[dst as usize]);
                }
                // An aligned load with no negative times degenerates to
                // a broadcast.
                WOp::InputBroadcast { dst, words, index }
                | WOp::InputAligned {
                    dst,
                    words,
                    neg_bits: 0,
                    index,
                } => {
                    for w in 0..u32::from(words) {
                        let _ = writeln!(
                            out,
                            "    {} = (word)0 - pi[{index}];",
                            names[(dst + w) as usize]
                        );
                    }
                }
                WOp::InputAligned {
                    dst,
                    words,
                    neg_bits,
                    index,
                } => {
                    // The low `neg_bits` bits keep the previous input value
                    // (read before any word is overwritten); all other bits
                    // get the new one. Word counts and split masks are
                    // compile-time constants, so the load unrolls into
                    // straight-line statements.
                    let neg = u32::from(neg_bits);
                    let prev_word = names[(dst + neg / b) as usize].clone();
                    let _ = writeln!(
                        out,
                        "    {{ /* input {index}: {neg_bits} previous-value bit(s) */"
                    );
                    let _ = writeln!(
                        out,
                        "        const word uds_p = (word)0 - ({prev_word} >> {} & (word)1);",
                        neg % b
                    );
                    let _ = writeln!(out, "        const word uds_n = (word)0 - pi[{index}];");
                    for w in 0..u32::from(words) {
                        let name = &names[(dst + w) as usize];
                        let low = w * b;
                        if neg >= low + b {
                            let _ = writeln!(out, "        {name} = uds_p;");
                        } else if neg <= low {
                            let _ = writeln!(out, "        {name} = uds_n;");
                        } else {
                            let mask = mask_literal(neg - low);
                            let _ = writeln!(
                                out,
                                "        {name} = (uds_p & {mask}) | (uds_n & ~{mask});"
                            );
                        }
                    }
                    let _ = writeln!(out, "    }}");
                }
                // Gate evaluations and shifts were written above.
                WOp::Pass { .. }
                | WOp::Invert { .. }
                | WOp::And2 { .. }
                | WOp::And3 { .. }
                | WOp::Nand2 { .. }
                | WOp::Nand3 { .. }
                | WOp::Or2 { .. }
                | WOp::Or3 { .. }
                | WOp::Nor2 { .. }
                | WOp::Nor3 { .. }
                | WOp::Xor2 { .. }
                | WOp::Xor3 { .. }
                | WOp::Xnor2 { .. }
                | WOp::Xnor3 { .. }
                | WOp::Eval { .. }
                | WOp::ShiftUp { .. }
                | WOp::ShiftDown { .. }
                | WOp::ShiftWords { .. } => unreachable!("written above"),
                #[cfg(test)]
                WOp::ShiftField { .. } => unreachable!("written above"),
            }
        }
        if native {
            let _ = writeln!(out, "}}");
        }
    }
    if native {
        write_driver(&mut out, segments.len());
    } else {
        let _ = writeln!(out, "}}");
    }
    Ok(out)
}

/// Materializes a shifted presentation of a field (Fig. 18) from its
/// funnel constants. Bottom/top fills and the funnel offsets are
/// compile-time constants; source and destination never overlap, so the
/// per-word funnel unrolls directly.
fn emit_funnel(out: &mut String, names: &[String], funnel: &Funnel, b: u32) {
    let Funnel {
        dst,
        dst_words,
        src,
        base,
        offset,
        top_word,
        top_bit,
    } = *funnel;
    let src_at = |i: i64| -> String {
        if i < 0 {
            "uds_bf".to_owned()
        } else if i as u32 > top_word {
            "uds_tf".to_owned()
        } else if i as u32 == top_word {
            "uds_st".to_owned()
        } else {
            names[(src + i as u32) as usize].clone()
        }
    };
    let raw_top = names[(src + top_word) as usize].clone();
    let _ = writeln!(
        out,
        "    {{ /* shifted field presentation ({:+}) */",
        funnel.shift(b)
    );
    let _ = writeln!(
        out,
        "        const word uds_bf = (word)0 - ({} & (word)1);",
        names[src as usize]
    );
    let _ = writeln!(
        out,
        "        const word uds_tf = (word)0 - ({raw_top} >> {top_bit} & (word)1);"
    );
    if top_bit + 1 == b {
        // Full top word: the sanitization mask is all ones.
        let _ = writeln!(out, "        const word uds_st = {raw_top};");
    } else {
        let mask = mask_literal(top_bit + 1);
        let _ = writeln!(
            out,
            "        const word uds_st = ({raw_top} & {mask}) | (uds_tf & ~{mask});"
        );
    }
    for w in 0..i64::from(dst_words) {
        let dname = &names[(dst + w as u32) as usize];
        if offset == 0 {
            let _ = writeln!(out, "        {dname} = {};", src_at(base + w));
        } else {
            let _ = writeln!(
                out,
                "        {dname} = ({} >> {offset}) | ({} << {});",
                src_at(base + w),
                src_at(base + w + 1),
                b - offset
            );
        }
    }
    let _ = writeln!(out, "    }}");
}

/// One C identifier per arena word: field words get net-derived names,
/// scratch words get t<k>. Sanitized stems are deduplicated (and the
/// aliases themselves reserved), so no two nets share a C variable.
fn field_names<W: Word>(netlist: &Netlist, simulator: &ParallelSim<W>) -> Vec<String> {
    let mut names: Vec<String> = (0..simulator.program().arena_words)
        .map(|w| format!("t{w}"))
        .collect();
    let mut used: HashMap<String, usize> = HashMap::new();
    // Reserve the generic scratch names so a net literally named `t5`
    // dedups instead of aliasing scratch word 5.
    for name in &names {
        used.insert(name.clone(), 0);
    }
    for net in netlist.net_ids() {
        let layout = simulator.field_layout(net);
        let stem = unique_stem(&mut used, netlist.net_name(net));
        for w in 0..layout.words {
            names[(layout.base + w) as usize] = if layout.words == 1 {
                stem.clone()
            } else {
                format!("{stem}_w{w}")
            };
        }
    }
    names
}

/// Low-mask constant with the bottom `k` bits set, as a C literal.
/// Emitted as a hex literal (never a shift expression) so mask
/// plumbing is not mistaken for a retained `<< 1` merge by code-size
/// accounting. `k` is always strictly between 0 and the word width.
fn mask_literal(k: u32) -> String {
    debug_assert!(k > 0 && k < 128);
    format!("(word)0x{:x}", (1u128 << k) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimization, ParallelSimulator, ParallelSimulator64};
    use uds_netlist::{GateKind, NetlistBuilder};

    fn fig6() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let bn = b.input("B");
        let c = b.input("C");
        let d = b.gate(GateKind::And, &[a, bn], "D").unwrap();
        let e = b.gate(GateKind::And, &[d, c], "E").unwrap();
        b.output(e);
        b.finish().unwrap()
    }

    #[test]
    fn unoptimized_code_has_fig6_shape() {
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        // Fig. 6: initialization moves the final value into bit 0; each
        // gate is an AND followed by a shift-merge.
        assert!(
            code.contains("D = D >> 2 & 1;"),
            "expected extract-bit init:\n{code}"
        );
        assert!(code.contains("|="), "expected shift-merge:\n{code}");
        assert!(code.contains("A & B"), "{code}");
    }

    #[test]
    fn shift_eliminated_code_has_fig10_shape() {
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        let code = emit(&nl, &sim).unwrap();
        // Fig. 10: no shifts at all, plain assignments.
        assert!(!code.contains("<< 1"), "{code}");
        assert!(!code.contains("shift_field"), "{code}");
        assert!(code.contains("D = A & B;"), "{code}");
        assert!(code.contains("E = D & C;"), "{code}");
    }

    #[test]
    fn dedup_chain_cannot_alias_nets() {
        // n.1 and n_1 sanitize identically; a third net literally named
        // n_1_d1 must not collide with the generated alias either.
        let mut b = NetlistBuilder::new();
        let a = b.input("n.1");
        let c = b.input("n_1");
        let d = b.input("n_1_d1");
        let y = b.gate(GateKind::And, &[a, c, d], "t0").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        let decls: Vec<&str> = code
            .lines()
            .filter(|l| l.starts_with("static word "))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for decl in &decls {
            assert!(seen.insert(*decl), "duplicate declaration {decl}:\n{code}");
        }
        // The net named like a scratch word got deduplicated too.
        assert!(code.contains("t0_d1"), "{code}");
    }

    #[test]
    fn reserved_names_cannot_shadow_emitted_identifiers() {
        // Nets named after C keywords or the emitter's own identifiers
        // must not produce uncompilable or shadowing declarations.
        let mut b = NetlistBuilder::new();
        let a = b.input("if");
        let c = b.input("word");
        let d = b.input("pi");
        let y = b.gate(GateKind::And, &[a, c, d], "int").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        for renamed in ["if_", "word_", "pi_", "int_"] {
            assert!(
                code.contains(&format!("static word {renamed} = ")),
                "expected {renamed}:\n{code}"
            );
        }
        for shadowed in [
            "static word if =",
            "static word word =",
            "static word pi =",
            "static word int =",
        ] {
            assert!(!code.contains(shadowed), "emitted `{shadowed}`:\n{code}");
        }
    }

    #[test]
    fn emit_rejects_a_mismatched_netlist() {
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let y = b.gate(GateKind::Not, &[a], "Y").unwrap();
        b.output(y);
        let other = b.finish().unwrap();
        assert!(matches!(
            emit(&other, &sim),
            Err(EmitError::NetlistMismatch { .. })
        ));
        assert!(line_count(&other, &sim).is_err());
    }

    #[test]
    fn native_emit_owns_no_state_and_has_one_block_per_segment() {
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C432.build();
        for optimization in [Optimization::None, Optimization::PathTracingTrimming] {
            let sim = ParallelSimulator::compile(&nl, optimization).unwrap();
            let code = emit_native(&nl, &sim).unwrap();
            for stateful in ["static", "uds_state_", "uds_arena"] {
                assert!(!code.contains(stateful), "native C has `{stateful}`");
            }
            let segments = sim.level_segments().len();
            let blocks = code.matches("\nvoid uds_block_");
            assert_eq!(blocks.count(), segments, "{optimization}");
            // The driver calls every block once, in order.
            assert_eq!(code.matches("(s, pi);").count(), segments);
            let last = sim.level_segments().len() - 1;
            assert!(
                code.contains(&format!("void uds_block_{last}(")),
                "{optimization}"
            );
            // The paper-format emit keeps named statics: it never
            // addresses a caller-owned arena.
            assert!(!emit(&nl, &sim).unwrap().contains("s["), "{optimization}");
        }
    }

    #[test]
    fn aligned_ops_unroll_without_undefined_references() {
        // The shift-eliminated compiler's aligned loads and shifted
        // presentations must emit self-contained statements, not calls
        // to helper functions that exist nowhere.
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C432.build();
        for optimization in [Optimization::PathTracing, Optimization::CycleBreaking] {
            let sim = ParallelSimulator::compile(&nl, optimization).unwrap();
            let code = emit(&nl, &sim).unwrap();
            assert!(
                !code.contains("load_aligned_input") && !code.contains("shift_field"),
                "undefined helper referenced ({optimization}):\n{}",
                &code[..code.len().min(2000)]
            );
        }
        // Non-vacuous: c432's retained shifts emit the funnel blocks.
        let sim = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        let code = emit(&nl, &sim).unwrap();
        assert!(code.contains("uds_"), "expected unrolled blocks:\n{code}");
    }

    #[test]
    fn declarations_carry_settled_initializers() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let y = b.gate(GateKind::Not, &[a], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        // y settles to 1 under all-zero inputs: its field initializes to
        // all-ones so the first vector's retained bit 0 is correct.
        assert!(code.contains("static word y = ~(word)0;"), "{code}");
        assert!(code.contains("static word a = 0;"), "{code}");
    }

    #[test]
    fn emitted_word_type_follows_the_width() {
        let nl = fig6();
        let sim32 = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let sim64 = ParallelSimulator64::compile(&nl, Optimization::None).unwrap();
        assert!(emit(&nl, &sim32)
            .unwrap()
            .contains("typedef uint32_t word;"));
        let code64 = emit(&nl, &sim64).unwrap();
        assert!(code64.contains("typedef uint64_t word;"), "{code64}");
        assert!(
            !code64.contains(">> 31"),
            "carry must use bit 63:\n{code64}"
        );
    }

    #[test]
    fn shift_statements_track_retained_shifts() {
        let nl = fig6();
        let unopt = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let aligned = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        let shifts = |sim: &ParallelSimulator| emit(&nl, sim).unwrap().matches("<< 1").count();
        assert_eq!(shifts(&unopt), nl.gate_count());
        assert_eq!(shifts(&aligned), 0);
        assert!(line_count(&nl, &unopt).unwrap() > 0);
    }
}
