//! The straight-line word-op program and its executor.
//!
//! Compiled parallel-technique simulations lower to a flat list of
//! fixed-shape operations over a dense word arena. The op inventory
//! mirrors the statements the paper's code generator emits — per-word
//! bit-parallel gate evaluations, one-bit shift-merges (Fig. 6/8),
//! initialization loads, trimming's broadcast fills (Fig. 9), and the
//! multi-bit input-alignment shifts of the shift-eliminated compiler
//! (Fig. 18) — so op counts and execution time track generated-code size
//! and speed the way the paper's tables do.
//!
//! The ops arrive decoded: everything the paper's generator folds into
//! an emitted statement as a constant is folded into the op by the
//! compiler. A gate with one to three inputs is one variant per gate
//! kind with its operand words inline, so evaluating it is one bitwise
//! expression, like the emitted `D = A & B;`; only wider gates read the
//! shared operand pool. A shifted field presentation that fits one word
//! is a one-word shift by a fixed amount; any other presentation carries
//! its funnel's bit offset, base word and top word precomputed, so each
//! presented word is two shifts by fixed amounts and an OR, as in the
//! emitted funnel. So
//! [`Program::run`] dispatches once per op and does no arithmetic that
//! is fixed at compile time, and the C emitter reads the same constants
//! from the same ops.
//!
//! The op encodings bake in the word size the program was compiled for
//! (word counts, bit positions, shift amounts), so [`Program::run`] must
//! be driven with the same [`Word`] type the compiler used;
//! [`crate::ParallelSim`] pairs them by construction.

use uds_netlist::limits::{narrow_u16, narrow_u32, LimitExceeded};
use uds_netlist::GateKind;

use crate::word::Word;

/// One word-level operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum WOp {
    /// `arena[dst] = arena[src]` — one word of a one-input gate whose
    /// expression is its operand: BUF, or a one-input AND, OR or XOR.
    /// `kind` only picks the C spelling.
    Pass { kind: GateKind, dst: u32, src: u32 },
    /// `arena[dst] = !arena[src]` — one word of NOT, or of a one-input
    /// NAND, NOR or XNOR. `kind` only picks the C spelling.
    Invert { kind: GateKind, dst: u32, src: u32 },
    /// `arena[dst] = arena[src[0]] & arena[src[1]]`.
    And2 { dst: u32, src: [u32; 2] },
    /// `arena[dst] = arena[src[0]] & arena[src[1]] & arena[src[2]]`.
    And3 { dst: u32, src: [u32; 3] },
    /// `arena[dst] = !(arena[src[0]] & arena[src[1]])`.
    Nand2 { dst: u32, src: [u32; 2] },
    /// `arena[dst] = !(arena[src[0]] & arena[src[1]] & arena[src[2]])`.
    Nand3 { dst: u32, src: [u32; 3] },
    /// `arena[dst] = arena[src[0]] | arena[src[1]]`.
    Or2 { dst: u32, src: [u32; 2] },
    /// `arena[dst] = arena[src[0]] | arena[src[1]] | arena[src[2]]`.
    Or3 { dst: u32, src: [u32; 3] },
    /// `arena[dst] = !(arena[src[0]] | arena[src[1]])`.
    Nor2 { dst: u32, src: [u32; 2] },
    /// `arena[dst] = !(arena[src[0]] | arena[src[1]] | arena[src[2]])`.
    Nor3 { dst: u32, src: [u32; 3] },
    /// `arena[dst] = arena[src[0]] ^ arena[src[1]]`.
    Xor2 { dst: u32, src: [u32; 2] },
    /// `arena[dst] = arena[src[0]] ^ arena[src[1]] ^ arena[src[2]]`.
    Xor3 { dst: u32, src: [u32; 3] },
    /// `arena[dst] = !(arena[src[0]] ^ arena[src[1]])`.
    Xnor2 { dst: u32, src: [u32; 2] },
    /// `arena[dst] = !(arena[src[0]] ^ arena[src[1]] ^ arena[src[2]])`.
    Xnor3 { dst: u32, src: [u32; 3] },
    /// `arena[dst] = kind(arena[operands...])` — one word of a gate with
    /// no inputs or more than three, its operand words in
    /// `operands[first_operand..][..operand_count]` of the shared pool.
    Eval {
        kind: GateKind,
        dst: u32,
        first_operand: u32,
        operand_count: u16,
    },
    /// `arena[dst] |= arena[src] << 1` — low word of a unit-delay
    /// shift-merge (preserves bit 0, the time-zero value).
    MergeShl1Low { dst: u32, src: u32 },
    /// `arena[dst] |= (arena[src] << 1) | (arena[carry] >> (B-1))` —
    /// upper word of a multi-word shift-merge (Fig. 8).
    MergeShl1 { dst: u32, src: u32, carry: u32 },
    /// `arena[dst] = broadcast(bit of arena[src])` — trimming's fills:
    /// low-order constant words and gap words (Fig. 9).
    BroadcastBit { dst: u32, src: u32, bit: u8 },
    /// `arena[dst] = (arena[src] >> bit) & 1` — unoptimized per-vector
    /// initialization: the final value moves into the low-order bit.
    ExtractBit { dst: u32, src: u32, bit: u8 },
    /// `arena[dst] = 0`.
    Zero { dst: u32 },
    /// Broadcast primary input `index` through `words` words at `dst`.
    InputBroadcast { dst: u32, words: u16, index: u16 },
    /// Aligned primary-input load: the low `neg_bits` bits (negative
    /// times) keep the *previous* input value; all remaining bits get
    /// the new one (§4's negative alignments).
    InputAligned {
        dst: u32,
        words: u16,
        neg_bits: u16,
        index: u16,
    },
    // The shift ops materialize a shifted presentation of a field
    // (Fig. 18: shifts at gate inputs; also output re-alignment under
    // cycle breaking). Presented bit `i` is source bit `i - shift`,
    // replicating source bit 0 below the field and its top bit above
    // it. [`WOp::shift_field`] picks the shape.
    /// A one-word presentation of a one-word field shifted up by
    /// `shift` (`1..B`): `t = (arena[src] << lift).sar(lift)` replicates
    /// the field's top bit over the `lift = B - width` bits above it,
    /// then `arena[dst] = (t << shift) | broadcast(bit 0) & low_mask(shift)`.
    ShiftUp {
        dst: u32,
        src: u32,
        lift: u8,
        shift: u8,
    },
    /// A one-word presentation of a one-word field shifted down by
    /// `drop - lift` bits, less than the field's width:
    /// `arena[dst] = (arena[src] << lift).sar(drop)` with
    /// `lift = B - width`, so every bit read from above the field is its
    /// top bit.
    ShiftDown {
        dst: u32,
        src: u32,
        lift: u8,
        drop: u8,
    },
    /// Any other presentation, as a funnel over `dst_words` words:
    /// `arena[dst + w] = (s(base + w) >> offset) | (s(base + w + 1) <<
    /// (B - offset))` (the second term dropped when `offset` is 0),
    /// where `s(k)` is source word `k`, with word `top_word`'s bits
    /// above the field replaced by its top bit (`(word << top_lift)
    /// .sar(top_lift)`), the bottom fill below word 0 and the top fill
    /// above `top_word`. `base * B + offset` is `-shift`.
    ShiftWords {
        dst: u32,
        dst_words: u16,
        src: u32,
        base: i32,
        offset: u8,
        top_word: u16,
        top_lift: u8,
    },
    /// The undecoded presentation, as tests state it in the documented
    /// semantics; the executor decodes it for its word type first, so
    /// it runs through the decoded shapes above.
    #[cfg(test)]
    ShiftField {
        dst: u32,
        dst_words: u16,
        src: u32,
        src_width: u32,
        shift: i32,
    },
}

/// The multi-word funnel view of a shift op: the constants the C
/// emitter unrolls it from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Funnel {
    pub dst: u32,
    pub dst_words: u32,
    pub src: u32,
    /// `-shift = base * B + offset`, `offset` in `0..B`.
    pub base: i64,
    pub offset: u32,
    /// Word index and in-word position of the field's top bit.
    pub top_word: u32,
    pub top_bit: u32,
}

impl Funnel {
    /// The field shift this funnel presents.
    pub fn shift(&self, bits: u32) -> i64 {
        -(self.base * i64::from(bits) + i64::from(self.offset))
    }
}

impl WOp {
    /// Approximate word writes this op performs — the static work
    /// weight the level profiler uses (most ops touch one word; the
    /// multi-word loads and shifts touch their whole span).
    pub(crate) fn weight(&self) -> u64 {
        match *self {
            WOp::InputBroadcast { words, .. } | WOp::InputAligned { words, .. } => u64::from(words),
            WOp::ShiftWords { dst_words, .. } => u64::from(dst_words),
            #[cfg(test)]
            WOp::ShiftField { dst_words, .. } => u64::from(dst_words),
            _ => 1,
        }
    }

    /// The op evaluating one word of a `kind` gate into `dst` from the
    /// operand words `inputs`: inline operands for one to three inputs,
    /// else the operands appended to `pool`.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] when the pool outgrows its `u32` index or the
    /// gate its `u16` operand count.
    pub(crate) fn gate(
        kind: GateKind,
        dst: u32,
        mut inputs: impl ExactSizeIterator<Item = u32>,
        pool: &mut Vec<u32>,
    ) -> Result<WOp, LimitExceeded> {
        use GateKind::{And, Buf, Nand, Nor, Not, Or, Xnor, Xor};
        let count = inputs.len();
        let mut next = || inputs.next().expect("ExactSizeIterator yields its length");
        let op = match (kind, count) {
            (And | Or | Xor | Buf, 1) => WOp::Pass {
                kind,
                dst,
                src: next(),
            },
            (Nand | Nor | Xnor | Not, 1) => WOp::Invert {
                kind,
                dst,
                src: next(),
            },
            (And | Nand | Or | Nor | Xor | Xnor, 2) => {
                let src = [next(), next()];
                match kind {
                    And => WOp::And2 { dst, src },
                    Nand => WOp::Nand2 { dst, src },
                    Or => WOp::Or2 { dst, src },
                    Nor => WOp::Nor2 { dst, src },
                    Xor => WOp::Xor2 { dst, src },
                    _ => WOp::Xnor2 { dst, src },
                }
            }
            (And | Nand | Or | Nor | Xor | Xnor, 3) => {
                let src = [next(), next(), next()];
                match kind {
                    And => WOp::And3 { dst, src },
                    Nand => WOp::Nand3 { dst, src },
                    Or => WOp::Or3 { dst, src },
                    Nor => WOp::Nor3 { dst, src },
                    Xor => WOp::Xor3 { dst, src },
                    _ => WOp::Xnor3 { dst, src },
                }
            }
            _ => {
                let first_operand = narrow_u32(pool.len() as u64)?;
                let operand_count = narrow_u16(count)?;
                pool.extend(inputs);
                WOp::Eval {
                    kind,
                    dst,
                    first_operand,
                    operand_count,
                }
            }
        };
        Ok(op)
    }

    /// The gate a gate-evaluation op computes — its kind, destination
    /// word and operand words (inline, or in `pool`) — or `None` for any
    /// other op.
    pub(crate) fn gate_operands<'a>(
        &'a self,
        pool: &'a [u32],
    ) -> Option<(GateKind, u32, &'a [u32])> {
        use std::slice::from_ref;
        Some(match self {
            WOp::Pass { kind, dst, src } | WOp::Invert { kind, dst, src } => {
                (*kind, *dst, from_ref(src))
            }
            WOp::And2 { dst, src } => (GateKind::And, *dst, &src[..]),
            WOp::And3 { dst, src } => (GateKind::And, *dst, &src[..]),
            WOp::Nand2 { dst, src } => (GateKind::Nand, *dst, &src[..]),
            WOp::Nand3 { dst, src } => (GateKind::Nand, *dst, &src[..]),
            WOp::Or2 { dst, src } => (GateKind::Or, *dst, &src[..]),
            WOp::Or3 { dst, src } => (GateKind::Or, *dst, &src[..]),
            WOp::Nor2 { dst, src } => (GateKind::Nor, *dst, &src[..]),
            WOp::Nor3 { dst, src } => (GateKind::Nor, *dst, &src[..]),
            WOp::Xor2 { dst, src } => (GateKind::Xor, *dst, &src[..]),
            WOp::Xor3 { dst, src } => (GateKind::Xor, *dst, &src[..]),
            WOp::Xnor2 { dst, src } => (GateKind::Xnor, *dst, &src[..]),
            WOp::Xnor3 { dst, src } => (GateKind::Xnor, *dst, &src[..]),
            WOp::Eval {
                kind,
                dst,
                first_operand,
                operand_count,
            } => {
                let first = *first_operand as usize;
                (
                    *kind,
                    *dst,
                    &pool[first..first + usize::from(*operand_count)],
                )
            }
            _ => return None,
        })
    }

    /// The op presenting the `src_width`-bit field at `src` shifted by
    /// `shift` (presented bit `i` is source bit `i - shift`, replicated
    /// outside the field) in `dst_words` words at `dst`, decoded for
    /// `W`: a one-word shift when source and destination each fit one
    /// word and the shift reads inside the word, else a funnel.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] when the field's top word index outgrows `u16`.
    pub(crate) fn shift_field<W: Word>(
        dst: u32,
        dst_words: u16,
        src: u32,
        src_width: u32,
        shift: i32,
    ) -> Result<WOp, LimitExceeded> {
        debug_assert!(src_width > 0, "fields are at least one bit wide");
        let b = W::BITS;
        if dst_words == 1 && src_width <= b {
            let lift = (b - src_width) as u8;
            if (1..b as i32).contains(&shift) {
                let shift = shift as u8;
                return Ok(WOp::ShiftUp {
                    dst,
                    src,
                    lift,
                    shift,
                });
            }
            if shift < 0 && shift.unsigned_abs() < src_width {
                let drop = lift + shift.unsigned_abs() as u8;
                return Ok(WOp::ShiftDown {
                    dst,
                    src,
                    lift,
                    drop,
                });
            }
        }
        let top_bit = src_width - 1;
        let down = -i64::from(shift);
        let offset = down.rem_euclid(i64::from(b));
        Ok(WOp::ShiftWords {
            dst,
            dst_words,
            src,
            base: ((down - offset) / i64::from(b)) as i32,
            offset: offset as u8,
            top_word: narrow_u16((top_bit / b) as usize)?,
            top_lift: (b - 1 - top_bit % b) as u8,
        })
    }

    /// The funnel view of a shift op (`None` for any other op), for
    /// `W`-bit words.
    pub(crate) fn funnel<W: Word>(&self) -> Option<Funnel> {
        let b = W::BITS;
        match *self {
            WOp::ShiftUp {
                dst,
                src,
                lift,
                shift,
            } => Some(Funnel {
                dst,
                dst_words: 1,
                src,
                base: -1,
                offset: b - u32::from(shift),
                top_word: 0,
                top_bit: b - 1 - u32::from(lift),
            }),
            WOp::ShiftDown {
                dst,
                src,
                lift,
                drop,
            } => Some(Funnel {
                dst,
                dst_words: 1,
                src,
                base: 0,
                offset: u32::from(drop - lift),
                top_word: 0,
                top_bit: b - 1 - u32::from(lift),
            }),
            WOp::ShiftWords {
                dst,
                dst_words,
                src,
                base,
                offset,
                top_word,
                top_lift,
            } => Some(Funnel {
                dst,
                dst_words: u32::from(dst_words),
                src,
                base: i64::from(base),
                offset: u32::from(offset),
                top_word: u32::from(top_word),
                top_bit: b - 1 - u32::from(top_lift),
            }),
            #[cfg(test)]
            WOp::ShiftField {
                dst,
                dst_words,
                src,
                src_width,
                shift,
            } => WOp::shift_field::<W>(dst, dst_words, src, src_width, shift)
                .ok()?
                .funnel::<W>(),
            _ => None,
        }
    }
}

/// A compiled parallel-technique program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct Program {
    pub ops: Vec<WOp>,
    /// Shared operand pool for [`WOp::Eval`] (gates with no inputs or
    /// more than three).
    pub operands: Vec<u32>,
    /// Total arena words (fields + scratch).
    pub arena_words: usize,
    pub input_count: usize,
}

impl Program {
    /// Executes one input vector. `W` must be the word type the program
    /// was compiled for.
    pub fn run<W: Word>(&self, arena: &mut [W], inputs: &[bool]) {
        debug_assert_eq!(inputs.len(), self.input_count);
        debug_assert_eq!(arena.len(), self.arena_words);
        for op in &self.ops {
            self.exec_op(arena, inputs, op);
        }
    }

    /// Executes the ops in `start..end` — one compile-time level
    /// segment of the op stream. `run` is exactly
    /// `run_op_range(0..ops.len())`; the leveled profiling executor
    /// walks the same stream in segments, never reordering ops.
    pub(crate) fn run_op_range<W: Word>(
        &self,
        arena: &mut [W],
        inputs: &[bool],
        start: usize,
        end: usize,
    ) {
        for op in &self.ops[start..end] {
            self.exec_op(arena, inputs, op);
        }
    }

    #[inline(always)]
    fn exec_op<W: Word>(&self, arena: &mut [W], inputs: &[bool], op: &WOp) {
        let at = |arena: &[W], index: u32| arena[index as usize];
        match *op {
            WOp::Pass { dst, src, .. } => arena[dst as usize] = at(arena, src),
            WOp::Invert { dst, src, .. } => arena[dst as usize] = !at(arena, src),
            WOp::And2 { dst, src: [a, b] } => arena[dst as usize] = at(arena, a) & at(arena, b),
            WOp::And3 {
                dst,
                src: [a, b, c],
            } => {
                arena[dst as usize] = at(arena, a) & at(arena, b) & at(arena, c);
            }
            WOp::Nand2 { dst, src: [a, b] } => arena[dst as usize] = !(at(arena, a) & at(arena, b)),
            WOp::Nand3 {
                dst,
                src: [a, b, c],
            } => {
                arena[dst as usize] = !(at(arena, a) & at(arena, b) & at(arena, c));
            }
            WOp::Or2 { dst, src: [a, b] } => arena[dst as usize] = at(arena, a) | at(arena, b),
            WOp::Or3 {
                dst,
                src: [a, b, c],
            } => {
                arena[dst as usize] = at(arena, a) | at(arena, b) | at(arena, c);
            }
            WOp::Nor2 { dst, src: [a, b] } => arena[dst as usize] = !(at(arena, a) | at(arena, b)),
            WOp::Nor3 {
                dst,
                src: [a, b, c],
            } => {
                arena[dst as usize] = !(at(arena, a) | at(arena, b) | at(arena, c));
            }
            WOp::Xor2 { dst, src: [a, b] } => arena[dst as usize] = at(arena, a) ^ at(arena, b),
            WOp::Xor3 {
                dst,
                src: [a, b, c],
            } => {
                arena[dst as usize] = at(arena, a) ^ at(arena, b) ^ at(arena, c);
            }
            WOp::Xnor2 { dst, src: [a, b] } => arena[dst as usize] = !(at(arena, a) ^ at(arena, b)),
            WOp::Xnor3 {
                dst,
                src: [a, b, c],
            } => {
                arena[dst as usize] = !(at(arena, a) ^ at(arena, b) ^ at(arena, c));
            }
            WOp::Eval {
                kind,
                dst,
                first_operand,
                operand_count,
            } => {
                let operands = &self.operands
                    [first_operand as usize..(first_operand as usize + operand_count as usize)];
                arena[dst as usize] = eval_word(kind, operands, arena);
            }
            WOp::MergeShl1Low { dst, src } => {
                let merged = arena[src as usize] << 1;
                arena[dst as usize] |= merged;
            }
            WOp::MergeShl1 { dst, src, carry } => {
                let merged = (arena[src as usize] << 1) | (arena[carry as usize] >> (W::BITS - 1));
                arena[dst as usize] |= merged;
            }
            WOp::BroadcastBit { dst, src, bit } => {
                arena[dst as usize] = W::splat(arena[src as usize].bit(u32::from(bit)));
            }
            WOp::ExtractBit { dst, src, bit } => {
                arena[dst as usize] = (arena[src as usize] >> u32::from(bit)) & W::ONE;
            }
            WOp::Zero { dst } => arena[dst as usize] = W::ZERO,
            WOp::InputBroadcast { dst, words, index } => {
                let fill = W::splat(inputs[index as usize]);
                for w in 0..words {
                    arena[(dst + u32::from(w)) as usize] = fill;
                }
            }
            WOp::InputAligned {
                dst,
                words,
                neg_bits,
                index,
            } => {
                // The previous value currently occupies every
                // non-negative-time bit; bit `neg_bits` is time 0.
                let prev_word = arena[(dst + u32::from(neg_bits) / W::BITS) as usize];
                let prev = W::splat(prev_word.bit(u32::from(neg_bits) % W::BITS));
                let new = W::splat(inputs[index as usize]);
                for w in 0..u32::from(words) {
                    let word_low_bit = w * W::BITS;
                    let word = if u32::from(neg_bits) >= word_low_bit + W::BITS {
                        prev
                    } else if u32::from(neg_bits) <= word_low_bit {
                        new
                    } else {
                        let mask = W::low_mask(u32::from(neg_bits) - word_low_bit);
                        (prev & mask) | (new & !mask)
                    };
                    arena[(dst + w) as usize] = word;
                }
            }
            WOp::ShiftUp {
                dst,
                src,
                lift,
                shift,
            } => {
                let word = at(arena, src);
                let field = (word << u32::from(lift)).sar(u32::from(lift));
                let bottom = W::splat(word.bit(0)) & !(W::ONES << u32::from(shift));
                arena[dst as usize] = (field << u32::from(shift)) | bottom;
            }
            WOp::ShiftDown {
                dst,
                src,
                lift,
                drop,
            } => arena[dst as usize] = (at(arena, src) << u32::from(lift)).sar(u32::from(drop)),
            WOp::ShiftWords {
                dst,
                dst_words,
                src,
                base,
                offset,
                top_word,
                top_lift,
            } => shift_words(arena, dst, dst_words, src, base, offset, top_word, top_lift),
            #[cfg(test)]
            WOp::ShiftField {
                dst,
                dst_words,
                src,
                src_width,
                shift,
            } => {
                let decoded = WOp::shift_field::<W>(dst, dst_words, src, src_width, shift)
                    .expect("test fields are small");
                self.exec_op(arena, inputs, &decoded);
            }
        }
    }
}

fn eval_word<W: Word>(kind: GateKind, operands: &[u32], arena: &[W]) -> W {
    match kind {
        GateKind::And => operands
            .iter()
            .fold(W::ONES, |acc, &s| acc & arena[s as usize]),
        GateKind::Nand => !operands
            .iter()
            .fold(W::ONES, |acc, &s| acc & arena[s as usize]),
        GateKind::Or => operands
            .iter()
            .fold(W::ZERO, |acc, &s| acc | arena[s as usize]),
        GateKind::Nor => !operands
            .iter()
            .fold(W::ZERO, |acc, &s| acc | arena[s as usize]),
        GateKind::Xor => operands
            .iter()
            .fold(W::ZERO, |acc, &s| acc ^ arena[s as usize]),
        GateKind::Xnor => !operands
            .iter()
            .fold(W::ZERO, |acc, &s| acc ^ arena[s as usize]),
        GateKind::Not => !arena[operands[0] as usize],
        GateKind::Buf => arena[operands[0] as usize],
        GateKind::Const0 => W::ZERO,
        GateKind::Const1 => W::ONES,
        GateKind::Dff => unreachable!("sequential gates are rejected at compile time"),
    }
}

/// Executes [`WOp::ShiftWords`]. The fill words and the sanitized top
/// word are computed once per call, so the per-word funnel is two shifts
/// and an OR — the same cost as the shift statements the paper's code
/// generator emits.
#[inline]
#[allow(clippy::too_many_arguments)]
fn shift_words<W: Word>(
    arena: &mut [W],
    dst: u32,
    dst_words: u16,
    src: u32,
    base: i32,
    offset: u8,
    top_word: u16,
    top_lift: u8,
) {
    debug_assert!(
        dst + u32::from(dst_words) <= src || src + u32::from(top_word) < dst,
        "shift source and destination must not overlap"
    );
    let top_word = u32::from(top_word);
    let bottom_fill = W::splat(arena[src as usize].bit(0));
    let sanitized_top =
        (arena[(src + top_word) as usize] << u32::from(top_lift)).sar(u32::from(top_lift));
    let top_fill = sanitized_top.sar(W::BITS - 1);

    let word_at = |arena: &[W], index: i64| -> W {
        if index < 0 {
            bottom_fill
        } else if index as u32 > top_word {
            top_fill
        } else if index as u32 == top_word {
            sanitized_top
        } else {
            arena[(src + index as u32) as usize]
        }
    };

    let base = i64::from(base);
    let offset = u32::from(offset);
    if offset == 0 {
        for w in 0..i64::from(dst_words) {
            let word = word_at(arena, base + w);
            arena[(dst + w as u32) as usize] = word;
        }
    } else {
        // Each word's high source word is the next word's low one.
        let mut lo = word_at(arena, base);
        for w in 0..i64::from(dst_words) {
            let hi = word_at(arena, base + w + 1);
            arena[(dst + w as u32) as usize] = (lo >> offset) | (hi << (W::BITS - offset));
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_shl1_carries_across_words() {
        let program = Program {
            ops: vec![
                WOp::MergeShl1Low { dst: 2, src: 0 },
                WOp::MergeShl1 {
                    dst: 3,
                    src: 1,
                    carry: 0,
                },
            ],
            operands: vec![],
            arena_words: 4,
            input_count: 0,
        };
        let mut arena = vec![0x8000_0001u32, 0b0101, 0, 0];
        program.run(&mut arena, &[]);
        assert_eq!(arena[2], 0b10);
        assert_eq!(arena[3], 0b1011, "carry bit 31 became bit 0");
    }

    #[test]
    fn merge_shl1_carries_across_u64_words() {
        let program = Program {
            ops: vec![
                WOp::MergeShl1Low { dst: 2, src: 0 },
                WOp::MergeShl1 {
                    dst: 3,
                    src: 1,
                    carry: 0,
                },
            ],
            operands: vec![],
            arena_words: 4,
            input_count: 0,
        };
        let mut arena = vec![0x8000_0000_0000_0001u64, 0b0101, 0, 0];
        program.run(&mut arena, &[]);
        assert_eq!(arena[2], 0b10);
        assert_eq!(arena[3], 0b1011, "carry bit 63 became bit 0");
    }

    #[test]
    fn broadcast_and_extract() {
        let program = Program {
            ops: vec![
                WOp::ExtractBit {
                    dst: 1,
                    src: 0,
                    bit: 7,
                },
                WOp::BroadcastBit {
                    dst: 2,
                    src: 0,
                    bit: 7,
                },
            ],
            operands: vec![],
            arena_words: 3,
            input_count: 0,
        };
        let mut arena = vec![1u32 << 7, 0xDEAD, 0xBEEF];
        program.run(&mut arena, &[]);
        assert_eq!(arena[1], 1);
        assert_eq!(arena[2], !0);
    }

    #[test]
    fn input_broadcast_fills_words() {
        let program = Program {
            ops: vec![WOp::InputBroadcast {
                dst: 0,
                words: 2,
                index: 0,
            }],
            operands: vec![],
            arena_words: 2,
            input_count: 1,
        };
        let mut arena = vec![0u32, 0];
        program.run(&mut arena, &[true]);
        assert_eq!(arena, vec![!0u32, !0]);
        program.run(&mut arena, &[false]);
        assert_eq!(arena, vec![0, 0]);
    }

    #[test]
    fn input_aligned_keeps_previous_value_in_negative_bits() {
        // Field of width 3, align -2: bits 0,1 = times -2,-1; bit 2 = time 0.
        let program = Program {
            ops: vec![WOp::InputAligned {
                dst: 0,
                words: 1,
                neg_bits: 2,
                index: 0,
            }],
            operands: vec![],
            arena_words: 1,
            input_count: 1,
        };
        let mut arena = vec![0u32];
        program.run(&mut arena, &[true]);
        // prev was 0 (bit 2 of zeroed arena), new is 1.
        assert_eq!(arena[0] & 0b111, 0b100);
        program.run(&mut arena, &[false]);
        // prev is 1 now, new is 0.
        assert_eq!(arena[0] & 0b111, 0b011);
    }

    #[test]
    fn input_aligned_spanning_words() {
        // 40 negative bits: words 0 fully prev, word 1 split at bit 8.
        let program = Program {
            ops: vec![WOp::InputAligned {
                dst: 0,
                words: 2,
                neg_bits: 40,
                index: 0,
            }],
            operands: vec![],
            arena_words: 2,
            input_count: 1,
        };
        let mut arena = vec![0u32, 0];
        program.run(&mut arena, &[true]);
        assert_eq!(arena[0], 0);
        assert_eq!(arena[1], !0u32 << 8);
    }

    #[test]
    fn input_aligned_split_lands_differently_in_u64_words() {
        // The same 40 negative bits fit inside one 64-bit word: the
        // split mask is exercised at bit 40 instead of a word boundary.
        let program = Program {
            ops: vec![WOp::InputAligned {
                dst: 0,
                words: 1,
                neg_bits: 40,
                index: 0,
            }],
            operands: vec![],
            arena_words: 1,
            input_count: 1,
        };
        let mut arena = vec![0u64];
        program.run(&mut arena, &[true]);
        assert_eq!(arena[0], !0u64 << 40);
    }

    #[test]
    fn shift_field_right_replicates_top() {
        // src field: width 4 (one word), bits = 0b1010 (t0=0,t1=1,t2=0,t3=1).
        // Right shift by 2 (shift = -2): presented[i] = src[i + 2]:
        // presented bits: i0=src2=0, i1=src3=1, i2..=replicate src3=1.
        let program = Program {
            ops: vec![WOp::ShiftField {
                dst: 1,
                dst_words: 1,
                src: 0,
                src_width: 4,
                shift: -2,
            }],
            operands: vec![],
            arena_words: 2,
            input_count: 0,
        };
        let mut arena = vec![0b1010u32, 0];
        program.run(&mut arena, &[]);
        assert_eq!(arena[1], !0u32 << 1, "i0=0 then all 1s");
    }

    #[test]
    fn shift_field_left_replicates_bottom() {
        // src bits 0b0110 (t0=0): left shift 2: presented[0..2] = src[0] = 0,
        // presented[2] = src[0] = 0, presented[3] = src[1] = 1, ...
        let program = Program {
            ops: vec![WOp::ShiftField {
                dst: 1,
                dst_words: 1,
                src: 0,
                src_width: 4,
                shift: 2,
            }],
            operands: vec![],
            arena_words: 2,
            input_count: 0,
        };
        let mut arena = vec![0b0110u32, 0];
        program.run(&mut arena, &[]);
        // presented[i] = src[i-2] clamped: i=0,1 -> src[0]=0; i=2 -> src[0]=0;
        // i=3 -> src[1]=1; i=4 -> src[2]=1; i=5 -> src[3]=0; i>=6 -> src[3]=0.
        assert_eq!(arena[1] & 0x3F, 0b011000);
    }

    #[test]
    fn shift_field_across_words() {
        // 40-bit field over two words; right shift by 8.
        let program = Program {
            ops: vec![WOp::ShiftField {
                dst: 2,
                dst_words: 2,
                src: 0,
                src_width: 40,
                shift: -8,
            }],
            operands: vec![],
            arena_words: 4,
            input_count: 0,
        };
        let mut arena = vec![0x1234_5678u32, 0x9A, 0, 0];
        program.run(&mut arena, &[]);
        assert_eq!(arena[2], 0x9A12_3456);
        // Word 1: bits 40.. replicate top bit (bit 39 of src = 1).
        assert_eq!(arena[3], 0xFFFF_FFFF, "top replication above bit 39");
    }

    #[test]
    fn shift_field_with_full_top_word() {
        // A 32-bit-wide source exercises the `valid == BITS` boundary of
        // the top-word sanitization mask: `low_mask(32)` must be all
        // ones, not a shift panic (the consolidated-helper regression).
        let program = Program {
            ops: vec![WOp::ShiftField {
                dst: 1,
                dst_words: 1,
                src: 0,
                src_width: 32,
                shift: -1,
            }],
            operands: vec![],
            arena_words: 2,
            input_count: 0,
        };
        let mut arena = vec![0x8000_0001u32, 0];
        program.run(&mut arena, &[]);
        // presented[i] = src[i+1]: bits 0..=30 of src>>1, bit 31
        // replicates src bit 31 (= 1).
        assert_eq!(arena[1], 0xC000_0000);
    }

    #[test]
    fn eval_word_all_kinds() {
        let arena = vec![0b1100u32, 0b1010];
        let operands = vec![0u32, 1];
        assert_eq!(eval_word(GateKind::And, &operands, &arena), 0b1000);
        assert_eq!(eval_word(GateKind::Or, &operands, &arena), 0b1110);
        assert_eq!(eval_word(GateKind::Xor, &operands, &arena), 0b0110);
        assert_eq!(eval_word(GateKind::Nand, &operands, &arena), !0b1000u32);
        assert_eq!(eval_word(GateKind::Not, &operands[..1], &arena), !0b1100u32);
        assert_eq!(eval_word(GateKind::Const1, &[], &arena), !0u32);
    }

    // --- Decoded ops against bit-by-bit references ----------------------

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_word<W: Word>(rng: &mut StdRng) -> W {
        (0..W::BITS).fold(
            W::ZERO,
            |acc, k| {
                if rng.gen() {
                    acc | (W::ONE << k)
                } else {
                    acc
                }
            },
        )
    }

    /// Bit `j` of the multi-word value starting at `arena[base]`.
    fn bit_at<W: Word>(arena: &[W], base: u32, j: u32) -> bool {
        arena[(base + j / W::BITS) as usize].bit(j % W::BITS)
    }

    /// Decodes one shifted presentation for `W`, runs it over all-zero,
    /// all-one and random source words (garbage above the field
    /// included), and checks every presented bit against the documented
    /// semantics: presented bit `i` is source bit `i - shift`, source
    /// bit 0 below the field and its top bit above it. Returns the op.
    fn check_shift<W: Word>(src_width: u32, dst_words: u16, shift: i32) -> WOp {
        let src_words = src_width.div_ceil(W::BITS);
        let dst = src_words;
        let op = WOp::shift_field::<W>(dst, dst_words, 0, src_width, shift).unwrap();
        let program = Program {
            ops: vec![op.clone()],
            operands: vec![],
            arena_words: (src_words + u32::from(dst_words)) as usize,
            input_count: 0,
        };
        let mut rng = StdRng::seed_from_u64(u64::from(src_width) << 32 | shift as u32 as u64);
        for trial in 0..34 {
            let mut arena: Vec<W> = (0..program.arena_words)
                .map(|_| match trial {
                    0 => W::ZERO,
                    1 => W::ONES,
                    _ => random_word(&mut rng),
                })
                .collect();
            let source = arena.clone();
            program.run(&mut arena, &[]);
            assert_eq!(arena[..dst as usize], source[..dst as usize], "source kept");
            for i in 0..u32::from(dst_words) * W::BITS {
                let j = (i64::from(i) - i64::from(shift)).clamp(0, i64::from(src_width) - 1);
                assert_eq!(
                    bit_at(&arena, dst, i),
                    bit_at(&source, 0, j as u32),
                    "u{} width {src_width} shift {shift:+} into {dst_words} word(s), \
                     bit {i}, op {op:?}",
                    W::BITS
                );
            }
        }
        op
    }

    fn one_word_shifts<W: Word>() {
        let b = W::BITS;
        let b1 = b as i32 - 1;
        for src_width in [1, 2, 5, b - 1, b] {
            for shift in [1, -1, 2, -2, b1, -b1, b1 + 1, -b1 - 1, b1 + 9, -b1 - 9] {
                let op = check_shift::<W>(src_width, 1, shift);
                // Shifts that read inside the word decode to a one-word
                // op; the rest (all fill) fall back to the funnel.
                let one_word =
                    (1..=b1).contains(&shift) || (shift < 0 && shift.unsigned_abs() < src_width);
                assert_eq!(
                    matches!(op, WOp::ShiftUp { .. } | WOp::ShiftDown { .. }),
                    one_word,
                    "width {src_width} shift {shift:+}: {op:?}"
                );
                assert_eq!(op.weight(), 1);
            }
        }
    }

    #[test]
    fn one_word_shifts_match_the_reference_u32() {
        one_word_shifts::<u32>();
    }

    #[test]
    fn one_word_shifts_match_the_reference_u64() {
        one_word_shifts::<u64>();
    }

    /// Checks a multi-word presentation against the reference and its
    /// decoded funnel constants.
    fn check_funnel<W: Word>(src_width: u32, dst_words: u16, shift: i32) {
        let op = check_shift::<W>(src_width, dst_words, shift);
        let WOp::ShiftWords { offset, .. } = op else {
            panic!("multi-word presentation decoded to {op:?}");
        };
        let b = W::BITS as i32;
        assert_eq!(u32::from(offset), (-shift).rem_euclid(b) as u32, "{op:?}");
        assert_eq!(op.weight(), u64::from(dst_words));
        let funnel = op.funnel::<W>().unwrap();
        assert_eq!(funnel.shift(W::BITS), i64::from(shift));
        assert_eq!(funnel.top_word * W::BITS + funnel.top_bit, src_width - 1);
    }

    fn multi_word_shifts<W: Word>() {
        let b = W::BITS as i32;
        // A three-word field; offset-0 shifts by whole words and
        // nonzero-offset ones, reading below the field (up shifts) and
        // past its top (down shifts).
        let src_width = 2 * W::BITS + 5;
        for shift in [
            b,
            -b,
            2 * b,
            -2 * b,
            3,
            -3,
            b + 3,
            -b - 3,
            2 * b + 7,
            -2 * b - 1,
            3 * b + 1,
        ] {
            for dst_words in [2, 3, 4] {
                check_funnel::<W>(src_width, dst_words, shift);
            }
        }
        // Multi-word fields presented in as many words, by less than a
        // word and by whole words, with full and partial top words.
        for src_width in [
            W::BITS + 1,
            W::BITS + 7,
            2 * W::BITS,
            3 * W::BITS - 2,
            4 * W::BITS,
        ] {
            let words = src_width.div_ceil(W::BITS) as u16;
            for shift in [1, -1, 3, -3, b - 1, -(b - 1), b, -b] {
                check_funnel::<W>(src_width, words, shift);
            }
        }
        // A one-word field widened into several words, and a wide field
        // narrowed into one.
        check_shift::<W>(7, 3, b + 2);
        check_shift::<W>(7, 2, -3);
        check_shift::<W>(src_width, 1, -(b + 1));
        check_shift::<W>(src_width, 1, 4);
    }

    #[test]
    fn multi_word_shifts_match_the_reference_u32() {
        multi_word_shifts::<u32>();
    }

    #[test]
    fn multi_word_shifts_match_the_reference_u64() {
        multi_word_shifts::<u64>();
    }

    /// One bit of a `kind` gate, written from the gate's definition.
    fn reference_gate(kind: GateKind, inputs: &[bool]) -> bool {
        let ones = inputs.iter().filter(|&&bit| bit).count();
        match kind {
            GateKind::And => ones == inputs.len(),
            GateKind::Nand => ones != inputs.len(),
            GateKind::Or => ones > 0,
            GateKind::Nor => ones == 0,
            GateKind::Xor => ones % 2 == 1,
            GateKind::Xnor => ones % 2 == 0,
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Dff => unreachable!("not a combinational gate"),
        }
    }

    fn gates_of_every_kind<W: Word>() {
        use GateKind::*;
        let mut rng = StdRng::seed_from_u64(u64::from(W::BITS));
        let mut cases: Vec<(GateKind, usize)> = vec![(Not, 1), (Buf, 1), (Const0, 0), (Const1, 0)];
        for kind in [And, Nand, Or, Nor, Xor, Xnor] {
            for arity in [1, 2, 3, 9] {
                cases.push((kind, arity));
            }
        }
        for (kind, arity) in cases {
            // Operand words sit after the destination, in reverse order,
            // so an op that mixes up its operands reads the wrong words.
            let dst = 0u32;
            let inputs: Vec<u32> = (1..=arity as u32).rev().collect();
            let mut pool = vec![7, 7];
            let op = WOp::gate(kind, dst, inputs.iter().copied(), &mut pool).unwrap();
            assert_eq!(
                matches!(op, WOp::Eval { .. }),
                !(1..=3).contains(&arity),
                "{kind:?}/{arity}: {op:?}"
            );
            let (decoded_kind, decoded_dst, operands) = op.gate_operands(&pool).unwrap();
            assert_eq!((decoded_kind, decoded_dst), (kind, dst));
            assert_eq!(operands, &inputs[..], "operands in order");
            let program = Program {
                ops: vec![op.clone()],
                operands: pool,
                arena_words: arity + 1,
                input_count: 0,
            };
            for _ in 0..16 {
                let mut arena: Vec<W> = (0..=arity).map(|_| random_word(&mut rng)).collect();
                let source = arena.clone();
                program.run(&mut arena, &[]);
                assert_eq!(arena[1..], source[1..], "operands kept");
                for bit in 0..W::BITS {
                    let bits: Vec<bool> = inputs
                        .iter()
                        .map(|&word| source[word as usize].bit(bit))
                        .collect();
                    assert_eq!(
                        arena[0].bit(bit),
                        reference_gate(kind, &bits),
                        "u{} {kind:?}/{arity} bit {bit}: {op:?}",
                        W::BITS
                    );
                }
            }
        }
    }

    #[test]
    fn gates_of_every_kind_and_arity_match_the_reference_u32() {
        gates_of_every_kind::<u32>();
    }

    #[test]
    fn gates_of_every_kind_and_arity_match_the_reference_u64() {
        gates_of_every_kind::<u64>();
    }

    #[test]
    fn decoded_ops_stay_small() {
        // The op stream is the program's memory: decoding must not
        // widen it past the undecoded shift op's five fields.
        assert!(
            std::mem::size_of::<WOp>() <= 20,
            "{}",
            std::mem::size_of::<WOp>()
        );
    }
}
