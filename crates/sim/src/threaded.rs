//! The in-process threaded-code backend ([`crate::EngineKind::Threaded`]).
//!
//! A lowering pass ([`lower`]) pre-decodes each task's encoded unit
//! range from the flat execution image into a dense stream of
//! pre-resolved handler records ([`TInstr`]): a monomorphized handler
//! function pointer specialized per (op × destination width class ×
//! operand signedness), with every operand reference resolved at
//! lowering time into one flat arena of `[state | scratch | consts]`
//! words. The hot loop ([`run_records`]) is then a bare indirect-call
//! chain — no opcode decode, no operand-space dispatch, no width
//! re-checks, and no sign-extension branches:
//!
//! * the three operand spaces collapse into arena offsets, so the
//!   interpreter's per-operand `space` match disappears;
//! * sign extension becomes a branchless pair of shifts by a
//!   *precomputed* per-operand amount (`0` for unsigned or full-width
//!   operands — the identity), replacing the interpreter's per-read
//!   meta-byte tests;
//! * destination masking is a const-generic specialization (`MASK`),
//!   picked once at lowering from the destination width;
//! * immediate-shift amounts are range-checked at lowering
//!   (`imm ≥ 64` lowers straight to a zero-store handler), and the
//!   fused two-unit encodings (`Mux`, compare→mux) fold their
//!   extension unit into a single record.
//!
//! Multi-word instructions keep their [`crate::image::Op::Wide`] side
//! table: [`h_wide`] splits the arena back into the classic
//! state/scratch/const views and calls the mid-level interpreter, so
//! wide semantics stay bit-identical by construction.
//!
//! Three further lowering-time transforms squeeze the remaining
//! dispatch overhead:
//!
//! * **terminal-record folding**: when a combinational task's last
//!   record writes the task output directly, the epilogue's extra
//!   load-compare-store disappears (`TTask::fold_out`, the `O` const
//!   dimension on every handler);
//! * **accumulator threading**: each handler returns the value it
//!   stored, and consumers whose operand is the immediately preceding
//!   destination read the accumulator register instead of the arena
//!   (the `A`/`B` const dimensions);
//! * **dispatch fusion**: runs of records drawn from a tiny micro-op
//!   alphabet ([`MopKind`]: narrow `Bits`/`Add`/`Xor`/`And`/`Or`/`Cat`,
//!   98%+ of all records on the paper suite) are grouped at lowering
//!   into composite handlers ([`h_fuse2`]…[`h_fuse4`], plus a
//!   period-2 repeat form [`h_fuse_rep`] for long alternating runs),
//!   cutting indirect-call count ~3×. Fused micro-ops read operands
//!   from the arena — stores are never elided, so the arena is always
//!   current — which lets *any* adjacent fusable records fuse, not
//!   just accumulator chains. The motivation is indirect-branch
//!   predictor capacity: a dispatch stream of tens of thousands of
//!   distinct call sites exceeds the BTB/ITA budget, and fewer,
//!   fatter handlers both shrink the stream and give the compiler
//!   straight-line bodies to schedule.
//!
//! The sweep ([`sweep`]) mirrors [`crate::executor::sweep_essential`]
//! exactly — same examination accounting, same store-and-activate
//! epilogue, same commit machinery — so every semantic counter is
//! identical to the essential engine's (pinned by the threaded
//! bit-invisibility proptest).

use crate::compile::{Compiled, Instr, TaskKind};
use crate::counters::Counters;
use crate::exec::{self, Ctx, MemStore};
use crate::executor::{self, ActiveBits};
use crate::image::{EInstr, Op, META_SIGNED, OFF_MASK, SPACE_SHIFT};
use crate::storage::{MemArena, Slot, Space};
use std::time::Duration;

/// A pre-resolved handler: the only indirection left in the hot loop.
/// The third argument and the return value thread the accumulator —
/// the previous record's computed value — through the dispatch loop in
/// a register, so a dependent record reads it without waiting on the
/// store-to-load forward of its producer's arena write.
type Handler = fn(&mut TCtx<'_>, &TInstr, u64) -> u64;

/// One pre-resolved handler record. Operand fields are flat arena
/// offsets (or immediates, per the handler); `sa`/`sb`/`sea`/`seb` are
/// precomputed sign-extension shift amounts (0 = identity) and `wd`
/// the destination width for the masking specializations.
#[derive(Clone, Copy)]
pub(crate) struct TInstr {
    handler: Handler,
    dst: u32,
    a: u32,
    b: u32,
    ea: u32,
    eb: u32,
    sa: u8,
    sb: u8,
    sea: u8,
    seb: u8,
    wd: u8,
}

/// One lowered task: its record range plus the eval epilogue metadata
/// (a pre-resolved mirror of [`crate::compile::Task`], inputs dropped).
#[derive(Clone, Copy)]
struct TTask {
    /// Dispatch range into [`ThreadedProg::dispatch`].
    rec: (u32, u32),
    is_comb: bool,
    /// The task's terminal record was folded into its store-if-changed
    /// epilogue: it writes the out slot directly and leaves the change
    /// test in [`TCtx::changed`], so the separate store pass is skipped.
    fold_out: bool,
    /// `result == out`: value computed in place, treat as changed.
    alias: bool,
    branchless: bool,
    /// Arena offset of the result value.
    result: u32,
    /// Arena offset of the persistent out slot.
    out: u32,
    out_words: u32,
    act: (u32, u32),
}

/// A lowered program: the record stream plus per-supernode task ranges
/// and the combined-arena geometry.
pub(crate) struct ThreadedProg {
    /// Every lowered record, one per image unit — what fused dispatch
    /// records index into ([`TCtx::recs`]).
    pub(crate) records: Vec<TInstr>,
    /// The dispatch stream the hot loop walks: fusable record groups
    /// collapsed into composite records, the rest copied verbatim.
    dispatch: Vec<TInstr>,
    ttasks: Vec<TTask>,
    /// Task index ranges into `ttasks` per supernode.
    sn_tasks: Vec<(u32, u32)>,
    /// Per-supernode counter constants `(node_evals, instrs, fused)`:
    /// a fired supernode runs all its tasks unconditionally, so the
    /// per-task counter contributions sum to a lowering-time constant
    /// and the hot loop pays three adds per supernode instead of three
    /// per task.
    sn_counts: Vec<(u32, u32, u32)>,
    /// Words of persistent state (the arena prefix).
    pub(crate) state_words: u32,
    /// Arena offset where the const pool starts (scratch ends).
    pub(crate) const_base: u32,
    /// Total arena size: `state + scratch + consts`.
    pub(crate) arena_words: usize,
    /// Wall-clock time the lowering pass took.
    pub(crate) lowering_time: Duration,
}

impl ThreadedProg {
    /// Number of handler records in the lowered stream.
    #[cfg(test)]
    fn num_records(&self) -> usize {
        self.records.len()
    }
}

/// Execution context of the threaded hot loop: the combined arena plus
/// the side tables the rare handlers need.
pub(crate) struct TCtx<'a> {
    /// The combined `[state | scratch | consts]` arena.
    pub mem: &'a mut [u64],
    pub mems: &'a [MemArena],
    /// Multi-word side table ([`h_wide`] targets).
    pub wide: &'a [Instr],
    /// The full original record stream ([`ThreadedProg::records`]):
    /// fused dispatch records hold index ranges into it.
    pub recs: &'a [TInstr],
    pub state_words: u32,
    pub const_base: u32,
    /// Change flag set by a task's terminal folded record (`O = true`
    /// handler variants): whether the out slot's value changed. Only
    /// meaningful right after a `fold_out` task's records ran.
    pub changed: bool,
}

impl TCtx<'_> {
    /// Raw arena read.
    ///
    /// Bounds checks are elided: every offset a handler reads through
    /// was produced by `lower`'s resolve closures, which assert it
    /// against the arena geometry once, at lowering time. Keeping the
    /// checks out of the hot loop is worth ~15% end to end.
    #[inline(always)]
    #[allow(unsafe_code)]
    fn rd(&self, p: u32) -> u64 {
        debug_assert!((p as usize) < self.mem.len());
        // SAFETY: `p < arena_words` asserted at lowering (see `lower`).
        unsafe { *self.mem.get_unchecked(p as usize) }
    }

    /// Arena read sign-extended by a precomputed shift (0 = identity).
    #[inline(always)]
    fn rd_sh(&self, p: u32, sh: u8) -> u64 {
        (((self.rd(p) << sh) as i64) >> sh) as u64
    }

    /// Raw arena write (destinations resolve into `state|scratch`,
    /// asserted at lowering like the read offsets).
    #[inline(always)]
    #[allow(unsafe_code)]
    fn wr_raw(&mut self, p: u32, v: u64) {
        debug_assert!((p as usize) < self.mem.len());
        // SAFETY: `p < const_base <= arena_words` asserted at lowering.
        unsafe {
            *self.mem.get_unchecked_mut(p as usize) = v;
        }
    }

    /// Destination write, masked per the `MASK` specialization. The
    /// `OUT` variants are a task's terminal record folded into its
    /// store-if-changed epilogue: `dst` is the persistent out slot and
    /// the change test lands in [`TCtx::changed`]. (Writing
    /// unconditionally instead of only-on-change leaves the same value
    /// in memory, so only the flag needs computing.)
    #[inline(always)]
    fn wr<const MASK: bool, const OUT: bool>(&mut self, r: &TInstr, v: u64) -> u64 {
        let v = if MASK { v & ((1u64 << r.wd) - 1) } else { v };
        self.wr_o::<OUT>(r.dst, v)
    }

    /// Raw-value variant of [`TCtx::wr`] for the handlers whose result
    /// needs no width mask (comparisons, reductions, zero stores).
    /// Returns the stored value: it becomes the next record's
    /// accumulator.
    #[inline(always)]
    fn wr_o<const OUT: bool>(&mut self, p: u32, v: u64) -> u64 {
        if OUT {
            self.changed = self.rd(p) != v;
        }
        self.wr_raw(p, v);
        v
    }

    /// Runtime-masked destination write for fused micro-ops: the same
    /// store [`TCtx::wr`] performs, with the `MASK` specialization
    /// replaced by a mask computed from the record's width (`wd = 64` —
    /// the `MASK = false` case — yields the identity mask, so one body
    /// covers both const variants; lowering only fuses `1 ≤ wd ≤ 64`
    /// records, for which the two are equivalent).
    #[inline(always)]
    fn wr_rt<const OUT: bool>(&mut self, r: &TInstr, v: u64) -> u64 {
        let v = v & (u64::MAX >> (64 - r.wd as u32));
        self.wr_o::<OUT>(r.dst, v)
    }

    /// Sign-extended operand fetch: from the accumulator when the
    /// `ACC` specialization marks the operand as the previous record's
    /// value (lowering proved the offsets equal), else from the arena.
    #[inline(always)]
    fn opnd_ext<const ACC: bool>(&self, acc: u64, p: u32, sh: u8) -> u64 {
        let raw = if ACC { acc } else { self.rd(p) };
        (((raw << sh) as i64) >> sh) as u64
    }

    /// Raw (unextended) variant of [`TCtx::opnd_ext`].
    #[inline(always)]
    fn opnd_raw<const ACC: bool>(&self, acc: u64, p: u32) -> u64 {
        if ACC {
            acc
        } else {
            self.rd(p)
        }
    }
}

// ----------------------------------------------------------- handlers

fn h_zero<const O: bool>(c: &mut TCtx<'_>, r: &TInstr, _acc: u64) -> u64 {
    c.wr_o::<O>(r.dst, 0)
}

fn h_add<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c
        .opnd_ext::<A>(acc, r.a, r.sa)
        .wrapping_add(c.opnd_ext::<B>(acc, r.b, r.sb));
    c.wr::<M, O>(r, v)
}

fn h_sub<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c
        .opnd_ext::<A>(acc, r.a, r.sa)
        .wrapping_sub(c.opnd_ext::<B>(acc, r.b, r.sb));
    c.wr::<M, O>(r, v)
}

fn h_mul<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c
        .opnd_ext::<A>(acc, r.a, r.sa)
        .wrapping_mul(c.opnd_ext::<B>(acc, r.b, r.sb));
    c.wr::<M, O>(r, v)
}

fn h_div<const S: bool, const M: bool, const O: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    _acc: u64,
) -> u64 {
    let av = c.rd_sh(r.a, r.sa);
    let bv = c.rd_sh(r.b, r.sb);
    let v = if bv == 0 {
        0
    } else if S {
        ((av as i64 as i128) / (bv as i64 as i128)) as u64
    } else {
        av / bv
    };
    c.wr::<M, O>(r, v)
}

fn h_rem<const S: bool, const M: bool, const O: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    _acc: u64,
) -> u64 {
    let av = c.rd_sh(r.a, r.sa);
    let bv = c.rd_sh(r.b, r.sb);
    let v = if bv == 0 {
        av
    } else if S {
        ((av as i64 as i128) % (bv as i64 as i128)) as u64
    } else {
        av % bv
    };
    c.wr::<M, O>(r, v)
}

fn h_and<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_ext::<A>(acc, r.a, r.sa) & c.opnd_ext::<B>(acc, r.b, r.sb);
    c.wr::<M, O>(r, v)
}

fn h_or<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_ext::<A>(acc, r.a, r.sa) | c.opnd_ext::<B>(acc, r.b, r.sb);
    c.wr::<M, O>(r, v)
}

fn h_xor<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_ext::<A>(acc, r.a, r.sa) ^ c.opnd_ext::<B>(acc, r.b, r.sb);
    c.wr::<M, O>(r, v)
}

/// Comparison kernel shared by [`h_cmp`] and [`h_cmpmux`]: `OP` is
/// 0 Lt, 1 Leq, 2 Gt, 3 Geq, 4 Eq, 5 Neq; `S` keys signedness (from
/// operand `a`'s meta byte, as everywhere in the interpreter).
#[inline(always)]
fn cmp_take<const OP: u8, const S: bool>(av: u64, bv: u64) -> bool {
    match OP {
        0 => {
            if S {
                (av as i64) < (bv as i64)
            } else {
                av < bv
            }
        }
        1 => {
            if S {
                (av as i64) <= (bv as i64)
            } else {
                av <= bv
            }
        }
        2 => {
            if S {
                (av as i64) > (bv as i64)
            } else {
                av > bv
            }
        }
        3 => {
            if S {
                (av as i64) >= (bv as i64)
            } else {
                av >= bv
            }
        }
        4 => av == bv,
        _ => av != bv,
    }
}

/// Comparisons write 0/1, which any destination width ≥ 1 passes
/// through unmasked — no `MASK` specialization needed.
fn h_cmp<const OP: u8, const S: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = cmp_take::<OP, S>(
        c.opnd_ext::<A>(acc, r.a, r.sa),
        c.opnd_ext::<B>(acc, r.b, r.sb),
    );
    c.wr_o::<O>(r.dst, v as u64)
}

fn h_cmpmux<
    const OP: u8,
    const S: bool,
    const M: bool,
    const O: bool,
    const A: bool,
    const B: bool,
>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let take_t = cmp_take::<OP, S>(
        c.opnd_ext::<A>(acc, r.a, r.sa),
        c.opnd_ext::<B>(acc, r.b, r.sb),
    );
    let v = if take_t {
        c.rd_sh(r.ea, r.sea)
    } else {
        c.rd_sh(r.eb, r.seb)
    };
    c.wr::<M, O>(r, v)
}

fn h_dshl<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let sh = c.opnd_ext::<B>(acc, r.b, r.sb);
    let v = if sh >= 64 {
        0
    } else {
        c.opnd_raw::<A>(acc, r.a) << sh
    };
    c.wr::<M, O>(r, v)
}

fn h_dshr_u<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let sh = c.opnd_ext::<B>(acc, r.b, r.sb);
    let v = if sh >= 64 {
        0
    } else {
        c.opnd_raw::<A>(acc, r.a) >> sh
    };
    c.wr::<M, O>(r, v)
}

fn h_dshr_s<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let sh = c.opnd_ext::<B>(acc, r.b, r.sb);
    let v = ((c.opnd_ext::<A>(acc, r.a, r.sa) as i64) >> sh.min(63)) as u64;
    c.wr::<M, O>(r, v)
}

fn h_not<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = !c.opnd_raw::<A>(acc, r.a);
    c.wr::<M, O>(r, v)
}

/// `b | ea << 32` carry the operand's precomputed low mask.
fn h_andr<const O: bool, const A: bool>(c: &mut TCtx<'_>, r: &TInstr, acc: u64) -> u64 {
    let mask = (r.b as u64) | ((r.ea as u64) << 32);
    c.wr_o::<O>(r.dst, (c.opnd_raw::<A>(acc, r.a) == mask) as u64)
}

fn h_orr<const O: bool, const A: bool>(c: &mut TCtx<'_>, r: &TInstr, acc: u64) -> u64 {
    c.wr_o::<O>(r.dst, (c.opnd_raw::<A>(acc, r.a) != 0) as u64)
}

fn h_xorr<const O: bool, const A: bool>(c: &mut TCtx<'_>, r: &TInstr, acc: u64) -> u64 {
    c.wr_o::<O>(r.dst, (c.opnd_raw::<A>(acc, r.a).count_ones() % 2) as u64)
}

fn h_neg<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_ext::<A>(acc, r.a, r.sa).wrapping_neg();
    c.wr::<M, O>(r, v)
}

/// `b` carries the immediate, pre-checked `< 64` at lowering.
fn h_shl<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_raw::<A>(acc, r.a) << r.b;
    c.wr::<M, O>(r, v)
}

fn h_shr_u<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_raw::<A>(acc, r.a) >> r.b;
    c.wr::<M, O>(r, v)
}

/// `b` is pre-clamped to 63 at lowering.
fn h_shr_s<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = ((c.opnd_ext::<A>(acc, r.a, r.sa) as i64) >> r.b) as u64;
    c.wr::<M, O>(r, v)
}

/// `b` is pre-clamped to 63 at lowering.
fn h_bits<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_raw::<A>(acc, r.a) >> r.b;
    c.wr::<M, O>(r, v)
}

fn h_copy<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_raw::<A>(acc, r.a);
    c.wr::<M, O>(r, v)
}

/// Sign-extending copy: the forced sign bit is baked into `sa`.
fn h_sext<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = c.opnd_ext::<A>(acc, r.a, r.sa);
    c.wr::<M, O>(r, v)
}

/// `a` = selector (raw), `b` = true arm, `ea` = false arm — the
/// two-unit encoding folded into one record at lowering.
fn h_mux<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = if c.opnd_raw::<A>(acc, r.a) != 0 {
        c.opnd_ext::<B>(acc, r.b, r.sb)
    } else {
        c.rd_sh(r.ea, r.sea)
    };
    c.wr::<M, O>(r, v)
}

/// `eb` carries the shift (the low operand's width), pre-checked
/// `< 64` at lowering.
fn h_cat<const M: bool, const O: bool, const A: bool, const B: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = (c.opnd_raw::<A>(acc, r.a) << r.eb) | c.opnd_raw::<B>(acc, r.b);
    c.wr::<M, O>(r, v)
}

/// `b` = immediate, `eb` = shift.
fn h_catimm<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let v = (c.opnd_raw::<A>(acc, r.a) << r.eb) | r.b as u64;
    c.wr::<M, O>(r, v)
}

/// `a` = address offset, `b` = memory index.
fn h_readmem<const M: bool, const O: bool, const A: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    acc: u64,
) -> u64 {
    let mut entry = [0u64; 1];
    let addr = c.opnd_raw::<A>(acc, r.a);
    c.mems.read_entry(r.b, addr, &mut entry);
    c.wr::<M, O>(r, entry[0])
}

/// Multi-word fallback: split the arena back into the classic
/// state/scratch/const views and run the mid-level interpreter on the
/// side-table instruction (`a` = side-table index).
fn h_wide(c: &mut TCtx<'_>, r: &TInstr, _acc: u64) -> u64 {
    let cb = c.const_base as usize;
    let sw = c.state_words as usize;
    let (vars, consts) = c.mem.split_at_mut(cb);
    let (state, scratch) = vars.split_at_mut(sw);
    let mut ctx = Ctx {
        state,
        scratch,
        consts: &*consts,
        mems: c.mems,
    };
    exec::exec_one(&mut ctx, &c.wide[r.a as usize]);
    // Wide results live outside the one-word accumulator discipline;
    // lowering never marks a successor of a wide record as
    // accumulator-fed, so the returned value is never read.
    0
}

// ------------------------------------------------------------- fusion
//
// Dispatch fusion: the dominant cost of the threaded hot loop at real
// design sizes is not the handlers' work but the indirect calls that
// reach them — once a cycle touches more record dispatches than the
// indirect-branch predictor can track (~0.5–1k on current cores), each
// one pays a full mispredict. Lowering therefore groups consecutive
// records drawn from a small micro-op alphabet into ONE dispatch whose
// monomorphized body executes the whole group with straight-line calls
// the compiler inlines — the per-record indirection disappears.
//
// A micro-op ([`Mop`]) re-expresses a handler family with its const
// specializations turned into record-driven runtime forms: operands
// always read from the arena (every record's store still happens, so
// the arena is always current — the accumulator is a latency hint, not
// a correctness requirement), sign-extension shifts are applied
// unconditionally (`0` = identity), and destination masking uses the
// record's width ([`TCtx::wr_rt`]). That collapses the `M`/`A`/`B`
// dims, so the alphabet stays small enough to pre-instantiate every
// pair, triple and quad — only the terminal-fold `O` dim survives, on
// the group's last element.

/// A fused micro-op: one record's full semantics (operand fetch,
/// compute, masked store), shaped for inlining into composite
/// handlers. `O` marks a task's folded terminal, as in the handlers.
trait Mop {
    fn eval<const O: bool>(c: &mut TCtx<'_>, r: &TInstr) -> u64;
}

/// The fusable micro-op alphabet. These six cover ~98% of the records
/// a real design lowers to; everything else stays a plain dispatch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MopKind {
    Bits,
    Add,
    Xor,
    And,
    Or,
    Cat,
}

struct MBits;
impl Mop for MBits {
    #[inline(always)]
    fn eval<const O: bool>(c: &mut TCtx<'_>, r: &TInstr) -> u64 {
        let v = c.rd(r.a) >> r.b;
        c.wr_rt::<O>(r, v)
    }
}

struct MAdd;
impl Mop for MAdd {
    #[inline(always)]
    fn eval<const O: bool>(c: &mut TCtx<'_>, r: &TInstr) -> u64 {
        let v = c.rd_sh(r.a, r.sa).wrapping_add(c.rd_sh(r.b, r.sb));
        c.wr_rt::<O>(r, v)
    }
}

struct MXor;
impl Mop for MXor {
    #[inline(always)]
    fn eval<const O: bool>(c: &mut TCtx<'_>, r: &TInstr) -> u64 {
        let v = c.rd_sh(r.a, r.sa) ^ c.rd_sh(r.b, r.sb);
        c.wr_rt::<O>(r, v)
    }
}

struct MAnd;
impl Mop for MAnd {
    #[inline(always)]
    fn eval<const O: bool>(c: &mut TCtx<'_>, r: &TInstr) -> u64 {
        let v = c.rd_sh(r.a, r.sa) & c.rd_sh(r.b, r.sb);
        c.wr_rt::<O>(r, v)
    }
}

struct MOr;
impl Mop for MOr {
    #[inline(always)]
    fn eval<const O: bool>(c: &mut TCtx<'_>, r: &TInstr) -> u64 {
        let v = c.rd_sh(r.a, r.sa) | c.rd_sh(r.b, r.sb);
        c.wr_rt::<O>(r, v)
    }
}

struct MCat;
impl Mop for MCat {
    #[inline(always)]
    fn eval<const O: bool>(c: &mut TCtx<'_>, r: &TInstr) -> u64 {
        let v = (c.rd(r.a) << r.eb) | c.rd(r.b);
        c.wr_rt::<O>(r, v)
    }
}

// Composite handlers: one dispatch record (`a` = start index into
// [`TCtx::recs`], `b` = group length) runs a whole record group as
// inlined straight-line code. Each returns the last record's stored
// value, so the accumulator invariant (`acc == mem[prev.dst]`) holds
// across group boundaries for any acc-fed record that follows.

fn h_fuse2<M1: Mop, M2: Mop, const O: bool>(c: &mut TCtx<'_>, r: &TInstr, _acc: u64) -> u64 {
    let i = r.a as usize;
    let r1 = c.recs[i];
    let r2 = c.recs[i + 1];
    M1::eval::<false>(c, &r1);
    M2::eval::<O>(c, &r2)
}

fn h_fuse3<M1: Mop, M2: Mop, M3: Mop, const O: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    _acc: u64,
) -> u64 {
    let i = r.a as usize;
    let r1 = c.recs[i];
    let r2 = c.recs[i + 1];
    let r3 = c.recs[i + 2];
    M1::eval::<false>(c, &r1);
    M2::eval::<false>(c, &r2);
    M3::eval::<O>(c, &r3)
}

fn h_fuse4<M1: Mop, M2: Mop, M3: Mop, M4: Mop, const O: bool>(
    c: &mut TCtx<'_>,
    r: &TInstr,
    _acc: u64,
) -> u64 {
    let i = r.a as usize;
    let r1 = c.recs[i];
    let r2 = c.recs[i + 1];
    let r3 = c.recs[i + 2];
    let r4 = c.recs[i + 3];
    M1::eval::<false>(c, &r1);
    M2::eval::<false>(c, &r2);
    M3::eval::<false>(c, &r3);
    M4::eval::<O>(c, &r4)
}

/// Arbitrary-length period-2 group `M1 M2 M1 M2 …` (`b` = length ≥ 5;
/// homogeneous runs are the `M1 == M2` case). The loop's conditional
/// branches alternate with the iteration parity — a pattern the
/// branch predictor tracks perfectly, unlike the indirect calls this
/// replaces.
fn h_fuse_rep<M1: Mop, M2: Mop, const O: bool>(c: &mut TCtx<'_>, r: &TInstr, _acc: u64) -> u64 {
    let start = r.a as usize;
    let n = r.b as usize;
    let mut j = 0usize;
    while j + 2 < n {
        let r1 = c.recs[start + j];
        let r2 = c.recs[start + j + 1];
        M1::eval::<false>(c, &r1);
        M2::eval::<false>(c, &r2);
        j += 2;
    }
    if j + 2 == n {
        let r1 = c.recs[start + j];
        let r2 = c.recs[start + j + 1];
        M1::eval::<false>(c, &r1);
        M2::eval::<O>(c, &r2)
    } else {
        let r1 = c.recs[start + j];
        M1::eval::<O>(c, &r1)
    }
}

/// Expands `$f!(<mop type>)` for a [`MopKind`] — the one-level step of
/// the nested generic dispatch that turns runtime kinds into
/// monomorphized composite handlers.
macro_rules! mop_match {
    ($k:expr, $f:ident) => {
        match $k {
            MopKind::Bits => $f!(MBits),
            MopKind::Add => $f!(MAdd),
            MopKind::Xor => $f!(MXor),
            MopKind::And => $f!(MAnd),
            MopKind::Or => $f!(MOr),
            MopKind::Cat => $f!(MCat),
        }
    };
}

fn fuse2_handler(k: [MopKind; 2], o: bool) -> Handler {
    fn l2<M1: Mop>(k2: MopKind, o: bool) -> Handler {
        macro_rules! f {
            ($M:ty) => {
                if o {
                    h_fuse2::<M1, $M, true> as Handler
                } else {
                    h_fuse2::<M1, $M, false> as Handler
                }
            };
        }
        mop_match!(k2, f)
    }
    macro_rules! f {
        ($M:ty) => {
            l2::<$M>(k[1], o)
        };
    }
    mop_match!(k[0], f)
}

fn fuse3_handler(k: [MopKind; 3], o: bool) -> Handler {
    fn l3<M1: Mop, M2: Mop>(k3: MopKind, o: bool) -> Handler {
        macro_rules! f {
            ($M:ty) => {
                if o {
                    h_fuse3::<M1, M2, $M, true> as Handler
                } else {
                    h_fuse3::<M1, M2, $M, false> as Handler
                }
            };
        }
        mop_match!(k3, f)
    }
    fn l2<M1: Mop>(k2: MopKind, k3: MopKind, o: bool) -> Handler {
        macro_rules! f {
            ($M:ty) => {
                l3::<M1, $M>(k3, o)
            };
        }
        mop_match!(k2, f)
    }
    macro_rules! f {
        ($M:ty) => {
            l2::<$M>(k[1], k[2], o)
        };
    }
    mop_match!(k[0], f)
}

fn fuse4_handler(k: [MopKind; 4], o: bool) -> Handler {
    fn l4<M1: Mop, M2: Mop, M3: Mop>(k4: MopKind, o: bool) -> Handler {
        macro_rules! f {
            ($M:ty) => {
                if o {
                    h_fuse4::<M1, M2, M3, $M, true> as Handler
                } else {
                    h_fuse4::<M1, M2, M3, $M, false> as Handler
                }
            };
        }
        mop_match!(k4, f)
    }
    fn l3<M1: Mop, M2: Mop>(k3: MopKind, k4: MopKind, o: bool) -> Handler {
        macro_rules! f {
            ($M:ty) => {
                l4::<M1, M2, $M>(k4, o)
            };
        }
        mop_match!(k3, f)
    }
    fn l2<M1: Mop>(k2: MopKind, k3: MopKind, k4: MopKind, o: bool) -> Handler {
        macro_rules! f {
            ($M:ty) => {
                l3::<M1, $M>(k3, k4, o)
            };
        }
        mop_match!(k2, f)
    }
    macro_rules! f {
        ($M:ty) => {
            l2::<$M>(k[1], k[2], k[3], o)
        };
    }
    mop_match!(k[0], f)
}

fn fuse_rep_handler(k: [MopKind; 2], o: bool) -> Handler {
    fn l2<M1: Mop>(k2: MopKind, o: bool) -> Handler {
        macro_rules! f {
            ($M:ty) => {
                if o {
                    h_fuse_rep::<M1, $M, true> as Handler
                } else {
                    h_fuse_rep::<M1, $M, false> as Handler
                }
            };
        }
        mop_match!(k2, f)
    }
    macro_rules! f {
        ($M:ty) => {
            l2::<$M>(k[1], o)
        };
    }
    mop_match!(k[0], f)
}

// ----------------------------------------------------------- lowering

/// Sign-extension shift amount for an operand meta byte: `64 - width`
/// for signed sub-word operands, 0 (the identity) otherwise.
fn ext_shift(meta: u8) -> u8 {
    let w = (meta & !META_SIGNED) as u32;
    if meta >= META_SIGNED && w < 64 {
        (64 - w) as u8
    } else {
        0
    }
}

fn lowmask64(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else if w == 0 {
        0
    } else {
        (1u64 << w) - 1
    }
}

/// A handler plus its terminal-fold twin (`O = true`), so `lower` can
/// retrofit a task's last record into its store-if-changed epilogue.
type HPair = (Handler, Handler);

/// Picks the comparison handler (signedness baked in; `Eq`/`Neq` are
/// sign-independent after extension).
fn cmp_handler(op: Op, signed: bool, aa: bool, ab: bool) -> HPair {
    macro_rules! cp {
        ($opc:literal, $s:literal) => {
            match (aa, ab) {
                (true, true) => (
                    h_cmp::<$opc, $s, false, true, true> as Handler,
                    h_cmp::<$opc, $s, true, true, true> as Handler,
                ),
                (true, false) => (
                    h_cmp::<$opc, $s, false, true, false> as Handler,
                    h_cmp::<$opc, $s, true, true, false> as Handler,
                ),
                (false, true) => (
                    h_cmp::<$opc, $s, false, false, true> as Handler,
                    h_cmp::<$opc, $s, true, false, true> as Handler,
                ),
                (false, false) => (
                    h_cmp::<$opc, $s, false, false, false> as Handler,
                    h_cmp::<$opc, $s, true, false, false> as Handler,
                ),
            }
        };
    }
    match (op, signed) {
        (Op::Lt, false) => cp!(0, false),
        (Op::Lt, true) => cp!(0, true),
        (Op::Leq, false) => cp!(1, false),
        (Op::Leq, true) => cp!(1, true),
        (Op::Gt, false) => cp!(2, false),
        (Op::Gt, true) => cp!(2, true),
        (Op::Geq, false) => cp!(3, false),
        (Op::Geq, true) => cp!(3, true),
        (Op::Eq, _) => cp!(4, false),
        (Op::Neq, _) => cp!(5, false),
        (other, _) => unreachable!("{other:?} is not a comparison"),
    }
}

/// Picks the fused compare→mux handler.
fn cmpmux_handler(op: Op, signed: bool, mask: bool, aa: bool, ab: bool) -> HPair {
    macro_rules! cm2 {
        ($opc:literal, $s:literal, $m:literal) => {
            match (aa, ab) {
                (true, true) => (
                    h_cmpmux::<$opc, $s, $m, false, true, true> as Handler,
                    h_cmpmux::<$opc, $s, $m, true, true, true> as Handler,
                ),
                (true, false) => (
                    h_cmpmux::<$opc, $s, $m, false, true, false> as Handler,
                    h_cmpmux::<$opc, $s, $m, true, true, false> as Handler,
                ),
                (false, true) => (
                    h_cmpmux::<$opc, $s, $m, false, false, true> as Handler,
                    h_cmpmux::<$opc, $s, $m, true, false, true> as Handler,
                ),
                (false, false) => (
                    h_cmpmux::<$opc, $s, $m, false, false, false> as Handler,
                    h_cmpmux::<$opc, $s, $m, true, false, false> as Handler,
                ),
            }
        };
    }
    macro_rules! cm {
        ($opc:literal) => {
            match (signed, mask) {
                (true, true) => cm2!($opc, true, true),
                (true, false) => cm2!($opc, true, false),
                (false, true) => cm2!($opc, false, true),
                (false, false) => cm2!($opc, false, false),
            }
        };
    }
    match op {
        Op::CmpMuxLt => cm!(0),
        Op::CmpMuxLeq => cm!(1),
        Op::CmpMuxGt => cm!(2),
        Op::CmpMuxGeq => cm!(3),
        Op::CmpMuxEq => cm!(4),
        Op::CmpMuxNeq => cm!(5),
        other => unreachable!("{other:?} is not a compare-mux"),
    }
}

/// Lowers a compiled design's execution image into a threaded program.
/// Pure pre-decode: every packed operand reference resolves to a flat
/// arena offset, every dispatch decision is taken once, here.
pub(crate) fn lower(c: &Compiled) -> ThreadedProg {
    let t0 = std::time::Instant::now();
    let scratch_base = c.state_words as u32;
    let const_base = scratch_base + c.scratch_words as u32;
    let arena_words = (const_base as usize + c.consts.len()) as u32;
    // These asserts are what lets the hot loop read and write the
    // arena unchecked (`TCtx::rd`/`wr_raw`): every offset a handler
    // ever dereferences passes through here exactly once.
    let resolve = |p: u32| -> u32 {
        let off = p & OFF_MASK;
        let r = match p >> SPACE_SHIFT {
            0 => off,
            1 => scratch_base + off,
            _ => const_base + off,
        };
        assert!(r < arena_words, "operand offset outside the arena");
        r
    };
    // Destinations are never consts (mirrors `pw_write`).
    let resolve_dst = |p: u32| -> u32 {
        let off = p & OFF_MASK;
        let r = match p >> SPACE_SHIFT {
            0 => off,
            _ => scratch_base + off,
        };
        assert!(r < const_base, "destination offset outside state|scratch");
        r
    };
    let resolve_slot = |s: Slot| -> u32 {
        let r = match s.space {
            Space::State => s.off,
            Space::Scratch => scratch_base + s.off,
            Space::Const => const_base + s.off,
        };
        // `<=` because a zero-width slot may sit at the arena's end;
        // `store_if_changed` keeps checked indexing, so this is for
        // early diagnosis, not for safety.
        assert!(r <= arena_words, "slot offset outside the arena");
        r
    };
    let mut records: Vec<TInstr> = Vec::with_capacity(c.image.code.len());
    let mut kinds: Vec<Option<MopKind>> = Vec::with_capacity(c.image.code.len());
    let mut dispatch: Vec<TInstr> = Vec::with_capacity(c.image.code.len());
    let mut ttasks: Vec<TTask> = Vec::with_capacity(c.tasks.len());
    let mut sn_tasks: Vec<(u32, u32)> = Vec::with_capacity(c.supernode_tasks.len());
    let mut sn_counts: Vec<(u32, u32, u32)> = Vec::with_capacity(c.supernode_tasks.len());
    for &(lo, hi) in &c.supernode_tasks {
        let t_lo = ttasks.len() as u32;
        let mut counts = (0u32, 0u32, 0u32);
        for task in &c.tasks[lo as usize..hi as usize] {
            // Inputs are skipped before any counting in the essential
            // eval loop, so dropping them here is counter-invisible.
            if matches!(task.kind, TaskKind::Input) {
                continue;
            }
            let r_lo = records.len() as u32;
            counts.0 += 1;
            counts.1 += task.n_instrs;
            counts.2 += task.n_fused;
            let last_o = lower_units(
                &c.image.code[task.code.0 as usize..task.code.1 as usize],
                &resolve,
                &resolve_dst,
                &mut records,
                &mut kinds,
            );
            let is_comb = matches!(task.kind, TaskKind::Comb);
            let alias = task.result == task.out;
            let result = resolve_slot(task.result);
            let out = resolve_slot(task.out);
            // Terminal-record folding: when a single-word comb task's
            // last record computes the result slot and nothing else in
            // the task reads that slot back, rewrite it to the `O`
            // handler twin targeting the out slot directly — the whole
            // store-if-changed pass (two loads, a compare, a store)
            // collapses into the record's own write. The conservative
            // operand scan compares immediates too; a false positive
            // only costs the fold, never correctness.
            let mut fold_out = false;
            if let Some(ho) = last_o {
                let reads_result = records[r_lo as usize..]
                    .iter()
                    .any(|r| r.a == result || r.b == result || r.ea == result || r.eb == result);
                if is_comb && !alias && task.out.words == 1 && out < const_base && !reads_result {
                    let last = records.last_mut().expect("last_o implies a record");
                    if last.dst == result {
                        last.handler = ho;
                        last.dst = out;
                        fold_out = true;
                    }
                }
            }
            let d_lo = dispatch.len() as u32;
            fuse_dispatch(
                &records[r_lo as usize..],
                &kinds[r_lo as usize..],
                r_lo,
                fold_out,
                &mut dispatch,
            );
            ttasks.push(TTask {
                rec: (d_lo, dispatch.len() as u32),
                is_comb,
                fold_out,
                alias,
                branchless: task.branchless,
                result,
                out,
                out_words: task.out.words as u32,
                act: task.act,
            });
        }
        sn_tasks.push((t_lo, ttasks.len() as u32));
        sn_counts.push(counts);
    }
    ThreadedProg {
        records,
        dispatch,
        ttasks,
        sn_tasks,
        sn_counts,
        state_words: c.state_words as u32,
        const_base,
        arena_words: const_base as usize + c.consts.len(),
        lowering_time: t0.elapsed(),
    }
}

/// Builds one task's dispatch stream from its lowered records: maximal
/// segments of mop-tagged records are chopped greedily into fused
/// groups (an arbitrary-length period-2 run when one repeats, else
/// quads, triples, pairs), everything else copies through verbatim. A
/// group containing the task's folded terminal gets the `O = true`
/// composite; a terminal left as a single already carries its `O`
/// handler from the fold retrofit.
fn fuse_dispatch(
    recs: &[TInstr],
    kinds: &[Option<MopKind>],
    base: u32,
    fold_out: bool,
    out: &mut Vec<TInstr>,
) {
    let n = recs.len();
    // A synthesized group record: `a` = start index into the full
    // record stream, `b` = length; `dst` mirrors the group's last
    // record so a debugger sees where the accumulator lands.
    let group = |handler: Handler, i: usize, len: usize| TInstr {
        handler,
        dst: recs[i + len - 1].dst,
        a: base + i as u32,
        b: len as u32,
        ea: 0,
        eb: 0,
        sa: 0,
        sb: 0,
        sea: 0,
        seb: 0,
        wd: 64,
    };
    let mut i = 0usize;
    while i < n {
        if kinds[i].is_none() {
            out.push(recs[i]);
            i += 1;
            continue;
        }
        // Maximal fusable segment, then greedy chunks over it.
        let mut seg = i + 1;
        while seg < n && kinds[seg].is_some() {
            seg += 1;
        }
        while i < seg {
            let rem = seg - i;
            // Longest period-2 prefix: worth a runtime-length loop
            // handler once it beats what two static groups cover.
            let mut alt = 1;
            while i + alt < seg && (alt < 2 || kinds[i + alt] == kinds[i + alt - 2]) {
                alt += 1;
            }
            let term = |len: usize| fold_out && i + len == n;
            let k = |j: usize| kinds[i + j].expect("inside fusable segment");
            if alt >= 5 {
                out.push(group(fuse_rep_handler([k(0), k(1)], term(alt)), i, alt));
                i += alt;
            } else if rem >= 4 {
                out.push(group(
                    fuse4_handler([k(0), k(1), k(2), k(3)], term(4)),
                    i,
                    4,
                ));
                i += 4;
            } else if rem == 3 {
                out.push(group(fuse3_handler([k(0), k(1), k(2)], term(3)), i, 3));
                i += 3;
            } else if rem == 2 {
                out.push(group(fuse2_handler([k(0), k(1)], term(2)), i, 2));
                i += 2;
            } else {
                out.push(recs[i]);
                i += 1;
            }
        }
    }
}

/// Lowers one task's encoded unit range into handler records. Returns
/// the last record's terminal-fold twin (its `O = true` handler) so
/// [`lower`] can retrofit it into the task's store-if-changed epilogue
/// — `None` for an empty range or a [`h_wide`] terminal, which have no
/// fold form.
///
/// Accumulator marking happens here too: an operand whose resolved
/// offset equals the previous record's destination is flagged (`A`/`B`
/// const dims) to read the dispatch loop's accumulator register
/// instead of the arena, skipping the store-to-load forward that
/// otherwise serializes every dependent record pair.
fn lower_units(
    code: &[EInstr],
    resolve: &impl Fn(u32) -> u32,
    resolve_dst: &impl Fn(u32) -> u32,
    out: &mut Vec<TInstr>,
    kinds: &mut Vec<Option<MopKind>>,
) -> Option<Handler> {
    // Handler/fold-twin pairs across the specialization dims: `M`
    // (destination mask), `A`/`B` (operand fed by the accumulator).
    // Both pair elements share every dim except `O`, so the fold
    // retrofit in `lower` preserves the operand wiring.
    macro_rules! pick_mab {
        ($h:ident, $m:expr, $aa:expr, $ab:expr) => {
            match ($m, $aa, $ab) {
                (true, true, true) => (
                    $h::<true, false, true, true> as Handler,
                    $h::<true, true, true, true> as Handler,
                ),
                (true, true, false) => (
                    $h::<true, false, true, false> as Handler,
                    $h::<true, true, true, false> as Handler,
                ),
                (true, false, true) => (
                    $h::<true, false, false, true> as Handler,
                    $h::<true, true, false, true> as Handler,
                ),
                (true, false, false) => (
                    $h::<true, false, false, false> as Handler,
                    $h::<true, true, false, false> as Handler,
                ),
                (false, true, true) => (
                    $h::<false, false, true, true> as Handler,
                    $h::<false, true, true, true> as Handler,
                ),
                (false, true, false) => (
                    $h::<false, false, true, false> as Handler,
                    $h::<false, true, true, false> as Handler,
                ),
                (false, false, true) => (
                    $h::<false, false, false, true> as Handler,
                    $h::<false, true, false, true> as Handler,
                ),
                (false, false, false) => (
                    $h::<false, false, false, false> as Handler,
                    $h::<false, true, false, false> as Handler,
                ),
            }
        };
    }
    macro_rules! pick_ma {
        ($h:ident, $m:expr, $aa:expr) => {
            match ($m, $aa) {
                (true, true) => (
                    $h::<true, false, true> as Handler,
                    $h::<true, true, true> as Handler,
                ),
                (true, false) => (
                    $h::<true, false, false> as Handler,
                    $h::<true, true, false> as Handler,
                ),
                (false, true) => (
                    $h::<false, false, true> as Handler,
                    $h::<false, true, true> as Handler,
                ),
                (false, false) => (
                    $h::<false, false, false> as Handler,
                    $h::<false, true, false> as Handler,
                ),
            }
        };
    }
    macro_rules! pick_oa {
        ($h:ident, $aa:expr) => {
            if $aa {
                ($h::<false, true> as Handler, $h::<true, true> as Handler)
            } else {
                ($h::<false, false> as Handler, $h::<true, false> as Handler)
            }
        };
    }
    // Division and remainder are too rare to earn accumulator dims.
    macro_rules! pick_sm {
        ($h:ident, $signed:expr, $mask:expr) => {
            match ($signed, $mask) {
                (true, true) => (
                    $h::<true, true, false> as Handler,
                    $h::<true, true, true> as Handler,
                ),
                (true, false) => (
                    $h::<true, false, false> as Handler,
                    $h::<true, false, true> as Handler,
                ),
                (false, true) => (
                    $h::<false, true, false> as Handler,
                    $h::<false, true, true> as Handler,
                ),
                (false, false) => (
                    $h::<false, false, false> as Handler,
                    $h::<false, false, true> as Handler,
                ),
            }
        };
    }
    let mut last_o = None;
    // Arena offset the previous record wrote — what the accumulator
    // holds when the next record runs. `None` across a wide record,
    // whose multi-word result the one-word accumulator cannot carry.
    let mut prev: Option<u32> = None;
    let mut i = 0usize;
    while i < code.len() {
        let ins = code[i];
        i += 1;
        let mask = ins.xd < 64;
        let signed = ins.xa >= META_SIGNED;
        // `a` is a real operand offset for every op but `Wide` (where
        // it indexes the side table); `b` varies per arm, so arms that
        // use it as an offset resolve and flag it themselves.
        let (ra, aa) = if matches!(ins.op, Op::Wide) {
            (0, false)
        } else {
            let r = resolve(ins.a);
            (r, prev == Some(r))
        };
        let base = TInstr {
            handler: h_zero::<false>,
            dst: resolve_dst(ins.dst),
            a: 0,
            b: 0,
            ea: 0,
            eb: 0,
            sa: 0,
            sb: 0,
            sea: 0,
            seb: 0,
            wd: ins.xd,
        };
        // Binary: both operands read sign-extended per their metas.
        let bin = |(h, ho): HPair, a: u32, b: u32| {
            (
                TInstr {
                    handler: h,
                    a,
                    b,
                    sa: ext_shift(ins.xa),
                    sb: ext_shift(ins.xb),
                    ..base
                },
                Some(ho),
            )
        };
        // Unary on the raw (unextended) operand word.
        let un = |(h, ho): HPair, a: u32| {
            (
                TInstr {
                    handler: h,
                    a,
                    ..base
                },
                Some(ho),
            )
        };
        let (rec, o) = match ins.op {
            Op::Add => {
                let rb = resolve(ins.b);
                bin(pick_mab!(h_add, mask, aa, prev == Some(rb)), ra, rb)
            }
            Op::Sub => {
                let rb = resolve(ins.b);
                bin(pick_mab!(h_sub, mask, aa, prev == Some(rb)), ra, rb)
            }
            Op::Mul => {
                let rb = resolve(ins.b);
                bin(pick_mab!(h_mul, mask, aa, prev == Some(rb)), ra, rb)
            }
            Op::Div => bin(pick_sm!(h_div, signed, mask), ra, resolve(ins.b)),
            Op::Rem => bin(pick_sm!(h_rem, signed, mask), ra, resolve(ins.b)),
            Op::Lt | Op::Leq | Op::Gt | Op::Geq | Op::Eq | Op::Neq => {
                let rb = resolve(ins.b);
                bin(cmp_handler(ins.op, signed, aa, prev == Some(rb)), ra, rb)
            }
            Op::And => {
                let rb = resolve(ins.b);
                bin(pick_mab!(h_and, mask, aa, prev == Some(rb)), ra, rb)
            }
            Op::Or => {
                let rb = resolve(ins.b);
                bin(pick_mab!(h_or, mask, aa, prev == Some(rb)), ra, rb)
            }
            Op::Xor => {
                let rb = resolve(ins.b);
                bin(pick_mab!(h_xor, mask, aa, prev == Some(rb)), ra, rb)
            }
            Op::Dshl => {
                let rb = resolve(ins.b);
                bin(pick_mab!(h_dshl, mask, aa, prev == Some(rb)), ra, rb)
            }
            Op::Dshr => {
                let rb = resolve(ins.b);
                let ab = prev == Some(rb);
                if signed {
                    bin(pick_mab!(h_dshr_s, mask, aa, ab), ra, rb)
                } else {
                    bin(pick_mab!(h_dshr_u, mask, aa, ab), ra, rb)
                }
            }
            Op::Not => un(pick_ma!(h_not, mask, aa), ra),
            Op::Andr => {
                let m = lowmask64((ins.xa & !META_SIGNED) as u32);
                let (h, ho) = pick_oa!(h_andr, aa);
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        b: m as u32,
                        ea: (m >> 32) as u32,
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::Orr => un(pick_oa!(h_orr, aa), ra),
            Op::Xorr => un(pick_oa!(h_xorr, aa), ra),
            Op::Neg => {
                let (h, ho) = pick_ma!(h_neg, mask, aa);
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        sa: ext_shift(ins.xa),
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::Shl => {
                if ins.b >= 64 {
                    // The whole value shifts out: store zero.
                    (base, Some(h_zero::<true> as Handler))
                } else {
                    let (h, ho) = pick_ma!(h_shl, mask, aa);
                    (
                        TInstr {
                            handler: h,
                            a: ra,
                            b: ins.b,
                            ..base
                        },
                        Some(ho),
                    )
                }
            }
            Op::Shr => {
                if signed {
                    let (h, ho) = pick_ma!(h_shr_s, mask, aa);
                    (
                        TInstr {
                            handler: h,
                            a: ra,
                            b: ins.b.min(63),
                            sa: ext_shift(ins.xa),
                            ..base
                        },
                        Some(ho),
                    )
                } else if ins.b >= 64 {
                    (base, Some(h_zero::<true> as Handler))
                } else {
                    let (h, ho) = pick_ma!(h_shr_u, mask, aa);
                    (
                        TInstr {
                            handler: h,
                            a: ra,
                            b: ins.b,
                            ..base
                        },
                        Some(ho),
                    )
                }
            }
            Op::Bits => {
                let (h, ho) = pick_ma!(h_bits, mask, aa);
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        b: ins.b.min(63),
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::Copy => un(pick_ma!(h_copy, mask, aa), ra),
            Op::Sext => {
                // `xa` carries the forced sign bit from encoding.
                let (h, ho) = pick_ma!(h_sext, mask, aa);
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        sa: ext_shift(ins.xa),
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::Mux => {
                let ext = code[i];
                i += 1;
                let rb = resolve(ins.b);
                let (h, ho) = pick_mab!(h_mux, mask, aa, prev == Some(rb));
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        b: rb,
                        sb: ext_shift(ins.xb),
                        ea: resolve(ext.a),
                        sea: ext_shift(ext.xa),
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::Cat => {
                let sh = ins.xb as u32;
                if sh >= 64 {
                    // The high operand shifts out entirely.
                    let lo = resolve(ins.b);
                    un(pick_ma!(h_copy, mask, prev == Some(lo)), lo)
                } else {
                    let rb = resolve(ins.b);
                    let (h, ho) = pick_mab!(h_cat, mask, aa, prev == Some(rb));
                    (
                        TInstr {
                            handler: h,
                            a: ra,
                            b: rb,
                            eb: sh,
                            ..base
                        },
                        Some(ho),
                    )
                }
            }
            Op::CatImm => {
                let (h, ho) = pick_ma!(h_catimm, mask, aa);
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        b: ins.b,
                        eb: ins.xb as u32,
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::ReadMem => {
                let (h, ho) = pick_ma!(h_readmem, mask, aa);
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        b: ins.b,
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::CmpMuxLt
            | Op::CmpMuxLeq
            | Op::CmpMuxGt
            | Op::CmpMuxGeq
            | Op::CmpMuxEq
            | Op::CmpMuxNeq => {
                let ext = code[i];
                i += 1;
                let rb = resolve(ins.b);
                let (h, ho) = cmpmux_handler(ins.op, signed, mask, aa, prev == Some(rb));
                (
                    TInstr {
                        handler: h,
                        a: ra,
                        b: rb,
                        sa: ext_shift(ins.xa),
                        sb: ext_shift(ins.xb),
                        ea: resolve(ext.a),
                        sea: ext_shift(ext.xa),
                        eb: resolve(ext.b),
                        seb: ext_shift(ext.xb),
                        ..base
                    },
                    Some(ho),
                )
            }
            Op::Ext => unreachable!("extension unit consumed by its primary"),
            Op::Wide => (
                TInstr {
                    handler: h_wide,
                    a: ins.a,
                    ..base
                },
                None,
            ),
        };
        // Tag the record's fusion micro-op, if its lowered form is one
        // the alphabet replicates. Special-case arms (`Cat` with the
        // high operand shifted out lowers to a copy; shifts ≥ 64 lower
        // to a zero store) fall outside their op's mop semantics and
        // stay plain dispatches, as does any degenerate width (the
        // runtime mask in `wr_rt` needs `1 ≤ wd ≤ 64`).
        let kind = if (1..=64).contains(&ins.xd) {
            match ins.op {
                Op::Bits => Some(MopKind::Bits),
                Op::Add => Some(MopKind::Add),
                Op::Xor => Some(MopKind::Xor),
                Op::And => Some(MopKind::And),
                Op::Or => Some(MopKind::Or),
                Op::Cat if (ins.xb as u32) < 64 => Some(MopKind::Cat),
                _ => None,
            }
        } else {
            None
        };
        kinds.push(kind);
        out.push(rec);
        last_o = o;
        prev = if matches!(ins.op, Op::Wide) {
            None
        } else {
            Some(rec.dst)
        };
    }
    last_o
}

// -------------------------------------------------------------- sweep

/// Runs one task's record range: the entire hot loop. The accumulator
/// carries each record's computed value to the next in a register;
/// records whose operands lowering flagged as accumulator-fed skip the
/// arena load (and with it the store-to-load forward stall of the
/// dependency chain).
#[inline]
fn run_records(ctx: &mut TCtx<'_>, recs: &[TInstr]) {
    let mut acc = 0u64;
    for r in recs {
        acc = (r.handler)(ctx, r, acc);
    }
}

/// The threaded mirror of [`crate::executor`]'s `store_if_changed`,
/// over pre-resolved arena offsets.
#[inline]
fn store_if_changed(ctx: &mut TCtx<'_>, t: &TTask) -> bool {
    if t.alias {
        // value computed in place (pure-alias tasks): treat as changed
        // so successors stay conservative-correct.
        return true;
    }
    let mut changed = false;
    for i in 0..t.out_words as usize {
        let new = ctx.mem[t.result as usize + i];
        let off = t.out as usize + i;
        if ctx.mem[off] != new {
            ctx.mem[off] = new;
            changed = true;
        }
    }
    changed
}

/// Evaluates one supernode through the record stream — the threaded
/// mirror of [`executor::eval_supernode`], with identical counter
/// accounting and the shared [`executor::activate`] epilogue.
#[inline]
fn eval_supernode(
    c: &Compiled,
    prog: &ThreadedProg,
    ctx: &mut TCtx<'_>,
    flags: &mut &mut [u64],
    fired: &mut &mut [u64],
    counters: &mut Counters,
    sn: usize,
) {
    fired.set_bit(sn as u32);
    counters.supernode_evals += 1;
    // A fired supernode runs every task, so the per-task counter
    // contributions collapse into the lowering-time sums — identical
    // totals to the essential engine's per-task accounting.
    let (n_evals, n_instrs, n_fused) = prog.sn_counts[sn];
    counters.node_evals += n_evals as u64;
    counters.instrs_executed += n_instrs as u64;
    counters.fused_executed += n_fused as u64;
    let (lo, hi) = prog.sn_tasks[sn];
    for t in &prog.ttasks[lo as usize..hi as usize] {
        run_records(ctx, &prog.dispatch[t.rec.0 as usize..t.rec.1 as usize]);
        if t.is_comb {
            let changed = if t.fold_out {
                ctx.changed
            } else {
                store_if_changed(ctx, t)
            };
            if changed {
                counters.value_changes += 1;
            }
            executor::activate(flags, counters, &c.act_list, t.act, t.branchless, changed);
        }
    }
}

/// One essential-signal sweep dispatched through the record stream —
/// the threaded mirror of [`executor::sweep_essential`], bit- and
/// counter-identical by construction (same examination accounting in
/// both word-skip modes, same forward re-check discipline).
pub(crate) fn sweep(
    c: &Compiled,
    prog: &ThreadedProg,
    ctx: &mut TCtx<'_>,
    mut flags: &mut [u64],
    mut fired: &mut [u64],
    counters: &mut Counters,
    word_skip: bool,
) {
    let num_sn = c.num_supernodes;
    for w in 0..num_sn.div_ceil(64) {
        if word_skip {
            counters.aexam_checks += 1;
            loop {
                let bits = flags.load_word(w);
                if bits == 0 {
                    break;
                }
                let t = bits.trailing_zeros();
                flags.clear_word(w, 1u64 << t);
                counters.aexam_checks += 1;
                eval_supernode(
                    c,
                    prog,
                    ctx,
                    &mut flags,
                    &mut fired,
                    counters,
                    (w * 64) + t as usize,
                );
            }
        } else {
            let base = w * 64;
            let hi = (base + 64).min(num_sn);
            for sn in base..hi {
                counters.aexam_checks += 1;
                if flags.load_word(w) >> (sn - base) & 1 == 1 {
                    flags.clear_word(w, 1u64 << (sn - base));
                    eval_supernode(c, prog, ctx, &mut flags, &mut fired, counters, sn);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, Session, SimOptions, Simulator};

    const ALU: &str = r#"
circuit Alu :
  module Alu :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    input sa : SInt<8>
    input sb : SInt<8>
    output sum : UInt<9>
    output d : UInt<8>
    output r : SInt<8>
    output cmp : UInt<1>
    output m : UInt<8>
    output red : UInt<1>
    sum <= add(a, b)
    d <= div(a, b)
    r <= rem(sa, sb)
    cmp <= lt(sa, sb)
    m <= mux(gt(a, b), a, b)
    red <= andr(a)
"#;

    #[test]
    fn lowering_covers_every_unit_and_folds_ext() {
        let g = gsim_firrtl::compile(ALU).unwrap();
        let sim = Simulator::compile(&g, &SimOptions::threaded()).unwrap();
        let prog = lower(sim.compiled());
        // Every two-unit encoding folds to one record, so the record
        // count never exceeds the unit count.
        assert!(prog.num_records() <= sim.image_units());
        assert!(prog.num_records() > 0);
        assert_eq!(
            prog.arena_words,
            prog.const_base as usize + sim.compiled().consts.len()
        );
    }

    #[test]
    fn threaded_matches_essential_values_and_counters() {
        let g = gsim_firrtl::compile(ALU).unwrap();
        let mut jit = Simulator::compile(&g, &SimOptions::threaded()).unwrap();
        let mut interp = Simulator::compile(&g, &SimOptions::default()).unwrap();
        let stim = [
            (3u64, 0u64, 0x85u64, 0x7fu64),
            (250, 7, 0x80, 0x80),
            (0, 0, 0x00, 0xff),
            (255, 255, 0x01, 0x85),
        ];
        for (a, b, sa, sb) in stim {
            for sim in [&mut jit, &mut interp] {
                sim.poke_u64("a", a).unwrap();
                sim.poke_u64("b", b).unwrap();
                sim.poke_u64("sa", sa).unwrap();
                sim.poke_u64("sb", sb).unwrap();
                sim.step();
            }
            for out in ["sum", "d", "r", "cmp", "m", "red"] {
                assert_eq!(jit.peek(out), interp.peek(out), "{out} at a={a} b={b}");
            }
        }
        assert_eq!(
            jit.counters(),
            interp.counters(),
            "threaded dispatch must be counter-invisible"
        );
    }

    /// Two compiles of the same graph must agree word for word on
    /// state layout, flags, and counters — the threaded backend's
    /// counter-identity proptest compares across compiles and found a
    /// hash-ordered sibling merge in the partitioner that made this
    /// flaky (the layout permuted between runs).
    #[test]
    fn compile_is_deterministic_across_runs() {
        let params = gsim_designs::SynthParams {
            name: "prop".into(),
            lanes: 2,
            fu_chains: 2,
            fu_depth: 4,
            fus_per_lane: 2,
            seed: 17210762318937571214,
        };
        let graph = gsim_designs::synth_core(&params);
        let mut tj = Simulator::compile(&graph, &SimOptions::threaded()).unwrap();
        let mut es = Simulator::compile(&graph, &SimOptions::default()).unwrap();
        for sim in [&mut tj, &mut es] {
            sim.poke_u64("reset", 1).ok();
            sim.run(2);
            sim.poke_u64("reset", 0).ok();
            sim.reset_counters();
        }
        assert_eq!(tj.state_prefix(), es.state_prefix(), "state after reset");
        assert_eq!(tj.flag_words(), es.flag_words(), "flags after reset");
        let lanes: Vec<String> = (0..64)
            .map(|l| format!("op_in_{l}"))
            .take_while(|name| es.peek(name).is_some())
            .collect();
        for c in 0..22u64 {
            let frame = lanes
                .iter()
                .enumerate()
                .map(|(l, name)| {
                    let v = c
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(l as u32 * 11)
                        ^ 0x5bd1_e995;
                    (name.clone(), v)
                })
                .collect();
            let sc = Scenario {
                loads: Vec::new(),
                frames: vec![frame],
            };
            tj.run_scenario(&sc).unwrap();
            es.run_scenario(&sc).unwrap();
            assert_eq!(tj.state_prefix(), es.state_prefix(), "state at cycle {c}");
            assert_eq!(tj.counters(), es.counters(), "counters at cycle {c}");
        }
    }
}
