/**
 * @file
 * Superblock trace formation and the computed-goto threaded trace
 * executor (PsrVm::runTrace). See superblock.hh for the invariants;
 * the short version: a trace is a re-encoding of instructions the
 * block loop would have executed anyway, so every deterministic
 * counter folds to the same values, every fault stops at the same
 * instruction with the same architectural state, and every transfer
 * the control-trace hook would have seen is still reported.
 */

#include "vm/superblock.hh"

#include "isa/exec_inline.hh"
#include "support/logging.hh"
#include "vm/psr_vm.hh"

namespace hipstr
{

namespace
{

/** Edge-profile floor before an exit can anchor a trace. */
constexpr uint64_t kMinEdgeHits = 8;

bool
sameMem(const Operand &x, const Operand &y)
{
    return x.isMem() && y.isMem() && x.base == y.base &&
        x.disp == y.disp;
}

/** First handler (the RR shape) of the specialized ALU family. */
int
aluBaseHandler(Op op)
{
    switch (op) {
#define HIPSTR_TRACE_ALU_BASE(o)                                      \
      case Op::o:                                                     \
        return static_cast<int>(TraceH::o##RR);
        HIPSTR_TRACE_ALU_OPS(HIPSTR_TRACE_ALU_BASE)
#undef HIPSTR_TRACE_ALU_BASE
      default:
        return -1;
    }
}

/**
 * Operand-shape offset for the two-source flag setters (Cmp/Test):
 * 0 RR, 1 RI, 2 RM, 3 MR, 4 MI; -1 falls back to the generic handler.
 */
int
flagShape(const Operand &s1, const Operand &s2, TraceOp &t)
{
    if (s1.isReg() && s2.isReg()) {
        t.b = static_cast<uint8_t>(s1.reg);
        t.c = static_cast<uint8_t>(s2.reg);
        return 0;
    }
    if (s1.isReg() && s2.isImm()) {
        t.b = static_cast<uint8_t>(s1.reg);
        t.imm2 = static_cast<uint32_t>(s2.disp);
        return 1;
    }
    if (s1.isReg() && s2.isMem()) {
        t.b = static_cast<uint8_t>(s1.reg);
        t.c = static_cast<uint8_t>(s2.base);
        t.imm2 = static_cast<uint32_t>(s2.disp);
        return 2;
    }
    if (s1.isMem() && s2.isReg()) {
        t.b = static_cast<uint8_t>(s1.base);
        t.imm = static_cast<uint32_t>(s1.disp);
        t.c = static_cast<uint8_t>(s2.reg);
        return 3;
    }
    if (s1.isMem() && s2.isImm()) {
        t.b = static_cast<uint8_t>(s1.base);
        t.imm = static_cast<uint32_t>(s1.disp);
        t.imm2 = static_cast<uint32_t>(s2.disp);
        return 4;
    }
    return -1;
}

/** ALU shape: dst/src1 in a, b or a+imm (slot form); src2 in c/imm2. */
int
aluShape(const MachInst &mi, TraceOp &t)
{
    if (mi.dst.isReg() && mi.src1.isReg()) {
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.b = static_cast<uint8_t>(mi.src1.reg);
        if (mi.src2.isReg()) {
            t.c = static_cast<uint8_t>(mi.src2.reg);
            return 0;
        }
        if (mi.src2.isImm()) {
            t.imm2 = static_cast<uint32_t>(mi.src2.disp);
            return 1;
        }
        if (mi.src2.isMem()) {
            t.c = static_cast<uint8_t>(mi.src2.base);
            t.imm2 = static_cast<uint32_t>(mi.src2.disp);
            return 2;
        }
        return -1;
    }
    if (mi.dst.isMem() && sameMem(mi.dst, mi.src1)) {
        // Cisc two-address form on a relocated register slot.
        t.a = static_cast<uint8_t>(mi.dst.base);
        t.imm = static_cast<uint32_t>(mi.dst.disp);
        if (mi.src2.isReg()) {
            t.c = static_cast<uint8_t>(mi.src2.reg);
            return 3;
        }
        if (mi.src2.isImm()) {
            t.imm2 = static_cast<uint32_t>(mi.src2.disp);
            return 4;
        }
    }
    return -1;
}

/**
 * Encode one straight-line (Plain-class) instruction as a TraceOp.
 * Nops emit nothing — the boundary fold accounts them through the
 * translate-time running totals. Every shape the compiler and the
 * translator emit on a hot path has a specialized handler, byte
 * moves included; anything else falls back to the cold generic
 * executeInstInline handler (counted as an execFallback), never gets
 * dropped.
 */
void
encodeInst(const TInst &ti, uint32_t inst_idx, uint16_t seg,
           uint8_t sp_reg, std::vector<TraceOp> &out)
{
    const MachInst &mi = ti.mi;
    if (mi.op == Op::Nop)
        return;

    TraceOp t;
    t.h = TraceH::Exec;
    t.seg = seg;
    t.instIdx = inst_idx;
    t.ti = &ti;

    switch (mi.op) {
      case Op::Mov:
        if (mi.dst.isReg() && mi.src1.isReg()) {
            t.h = TraceH::MovRR;
            t.a = static_cast<uint8_t>(mi.dst.reg);
            t.b = static_cast<uint8_t>(mi.src1.reg);
        } else if (mi.dst.isReg() && mi.src1.isImm()) {
            t.h = TraceH::MovRI;
            t.a = static_cast<uint8_t>(mi.dst.reg);
            t.imm = static_cast<uint32_t>(mi.src1.disp);
        } else if (mi.dst.isReg() && mi.src1.isMem()) {
            t.h = TraceH::MovRM;
            t.a = static_cast<uint8_t>(mi.dst.reg);
            t.b = static_cast<uint8_t>(mi.src1.base);
            t.imm = static_cast<uint32_t>(mi.src1.disp);
        } else if (mi.dst.isMem() && mi.src1.isReg()) {
            t.h = TraceH::MovMR;
            t.a = static_cast<uint8_t>(mi.dst.base);
            t.imm = static_cast<uint32_t>(mi.dst.disp);
            t.b = static_cast<uint8_t>(mi.src1.reg);
        } else if (mi.dst.isMem() && mi.src1.isImm()) {
            t.h = TraceH::MovMI;
            t.a = static_cast<uint8_t>(mi.dst.base);
            t.imm = static_cast<uint32_t>(mi.dst.disp);
            t.imm2 = static_cast<uint32_t>(mi.src1.disp);
        }
        break;

      case Op::Movb:
        // Byte loads zero-extend, byte stores write the low byte. The
        // Cisc mem8 <- imm8 form is never emitted by the compiler or
        // the translator and stays on the generic handler.
        if (mi.dst.isReg() && mi.src1.isMem()) {
            t.h = TraceH::MovbRM;
            t.a = static_cast<uint8_t>(mi.dst.reg);
            t.b = static_cast<uint8_t>(mi.src1.base);
            t.imm = static_cast<uint32_t>(mi.src1.disp);
        } else if (mi.dst.isMem() && mi.src1.isReg()) {
            t.h = TraceH::MovbMR;
            t.a = static_cast<uint8_t>(mi.dst.base);
            t.imm = static_cast<uint32_t>(mi.dst.disp);
            t.b = static_cast<uint8_t>(mi.src1.reg);
        }
        break;

      case Op::Lea:
        t.h = TraceH::Lea;
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.b = static_cast<uint8_t>(mi.src1.base);
        t.imm = static_cast<uint32_t>(mi.src1.disp);
        break;

      case Op::MovHi:
        t.h = TraceH::MovHi;
        t.a = static_cast<uint8_t>(mi.dst.reg);
        t.imm = static_cast<uint32_t>(mi.src1.disp);
        break;

      case Op::Cmp: {
        int off = flagShape(mi.src1, mi.src2, t);
        if (off >= 0)
            t.h = static_cast<TraceH>(
                static_cast<int>(TraceH::CmpRR) + off);
        break;
      }

      case Op::Test: {
        int off = flagShape(mi.src1, mi.src2, t);
        if (off >= 0)
            t.h = static_cast<TraceH>(
                static_cast<int>(TraceH::TestRR) + off);
        break;
      }

      case Op::Push:
        if (mi.src1.isReg()) {
            t.h = TraceH::PushR;
            t.a = sp_reg;
            t.b = static_cast<uint8_t>(mi.src1.reg);
        } else if (mi.src1.isImm()) {
            t.h = TraceH::PushI;
            t.a = sp_reg;
            t.imm = static_cast<uint32_t>(mi.src1.disp);
        }
        break;

      case Op::Pop:
        if (mi.dst.isReg()) {
            t.h = TraceH::PopR;
            t.a = sp_reg;
            t.b = static_cast<uint8_t>(mi.dst.reg);
        }
        break;

      default: {
        int alu_base = aluBaseHandler(mi.op);
        if (alu_base >= 0) {
            int off = aluShape(mi, t);
            if (off >= 0)
                t.h = static_cast<TraceH>(alu_base + off);
        }
        break;
      }
    }
    out.push_back(t);
}

/** Instruction whose execution takes @p exit_idx, or -1. */
int
boundaryInstFor(const TranslatedBlock *b, size_t exit_idx)
{
    for (size_t i = 0; i < b->insts.size(); ++i) {
        const TInst &ti = b->insts[i];
        if (ti.klass == ExecClass::Jcc) {
            if (ti.exitIdx == static_cast<int>(exit_idx))
                return static_cast<int>(i);
        } else if (ti.klass == ExecClass::VmExit) {
            int e = ti.exitIdx >= 0
                ? ti.exitIdx
                : static_cast<int>(ti.mi.src1.disp);
            if (e == static_cast<int>(exit_idx))
                return static_cast<int>(i);
        }
    }
    return -1;
}

/**
 * True when insts [0, bound) contain only straight-line instructions
 * and conditional side exits — nothing that would need a mid-segment
 * counter fold (syscalls), an indirect transfer (returns), or an
 * earlier unconditional exit (dead boundary).
 */
bool
cleanPrefix(const TranslatedBlock *b, int bound)
{
    for (int i = 0; i < bound; ++i) {
        switch (b->insts[i].klass) {
          case ExecClass::Plain:
          case ExecClass::GuestStartPlain:
          case ExecClass::Jcc:
            continue;
          case ExecClass::Ret:
          case ExecClass::Syscall:
          case ExecClass::VmExit:
            return false;
        }
    }
    return true;
}

/**
 * Dominant exit of @p b: the most-taken edge, if it has been taken at
 * least kMinEdgeHits times and carries at least two thirds of the
 * block's recorded exits. Ties resolve to the lowest index, keeping
 * formation deterministic for a given execution history.
 */
int
dominantExit(const TranslatedBlock *b)
{
    uint64_t total = 0;
    uint64_t best_hits = 0;
    int best = -1;
    for (size_t e = 0; e < b->exits.size(); ++e) {
        uint64_t h = b->exits[e].hitCount;
        total += h;
        if (h > best_hits) {
            best_hits = h;
            best = static_cast<int>(e);
        }
    }
    if (best < 0 || best_hits < kMinEdgeHits)
        return -1;
    if (best_hits * 3 < total * 2)
        return -1;
    return best;
}

/** First Ret/Syscall/VmExit-class instruction of @p b, or -1. */
int
terminalInst(const TranslatedBlock *b)
{
    for (size_t i = 0; i < b->insts.size(); ++i) {
        switch (b->insts[i].klass) {
          case ExecClass::Ret:
          case ExecClass::Syscall:
          case ExecClass::VmExit:
            return static_cast<int>(i);
          default:
            continue;
        }
    }
    return -1;
}

/** One planned trace segment before emission. */
struct PlannedSeg
{
    TranslatedBlock *blk;
    int boundary; ///< inst index of the segment's last instruction
    int exitIdx;  ///< taken exit (interior segments), -1 for final
    bool isFinal;
};

} // namespace

SuperTrace *
TraceEngine::tryForm(TranslatedBlock *head, const PsrConfig &cfg,
                     uint8_t sp_reg, bool isomeron, uint64_t flush_gen)
{
    ++stats.attempts;

    // Walk the dominant chained edges. A block extends the trace when
    // its hottest exit is a chained direct branch/call whose boundary
    // instruction is preceded only by straight-line code and guards;
    // anything else ends the walk and the last block becomes the
    // final (resume-into-the-block-loop) segment. Revisiting a
    // non-head block simply unrolls it; reaching the head closes the
    // trace into a loop.
    std::vector<PlannedSeg> plan;
    TranslatedBlock *cur = head;
    bool loop_back = false;
    while (plan.size() < cfg.traceMaxBlocks) {
        int e = dominantExit(cur);
        if (e < 0)
            break;
        const BlockExit &ex = cur->exits[static_cast<size_t>(e)];
        const bool kind_ok = ex.kind == BlockExit::Kind::Branch ||
            (ex.kind == BlockExit::Kind::Call && !isomeron);
        if (!kind_ok || ex.chained == nullptr ||
            ex.chained->srcStart != ex.target)
            break;
        int boundary = boundaryInstFor(cur, static_cast<size_t>(e));
        if (boundary < 0 || !cleanPrefix(cur, boundary))
            break;
        if (cur->insts[boundary].klass == ExecClass::Jcc &&
            ex.kind != BlockExit::Kind::Branch)
            break;
        plan.push_back({ cur, boundary, e, false });
        TranslatedBlock *next = ex.chained;
        if (next == head) {
            loop_back = true;
            break;
        }
        cur = next;
    }

    if (!loop_back) {
        if (plan.empty())
            return nullptr; // no dominant chain yet (or ever)
        int endi = terminalInst(cur);
        if (endi < 0 || !cleanPrefix(cur, endi))
            return nullptr;
        plan.push_back({ cur, endi, -1, true });
    }

    auto tr = std::make_unique<SuperTrace>();
    tr->headPc = head->srcStart;
    tr->flushGen = flush_gen;
    tr->loopBack = loop_back;

    std::vector<uint32_t> seg_first;
    for (size_t si = 0; si < plan.size(); ++si) {
        const PlannedSeg &ps = plan[si];
        seg_first.push_back(static_cast<uint32_t>(tr->ops.size()));
        tr->segs.push_back({ ps.blk, ps.blk->srcStart });

        for (int i = 0; i < ps.boundary; ++i) {
            const TInst &ti =
                ps.blk->insts[static_cast<size_t>(i)];
            if (ti.klass == ExecClass::Jcc) {
                TraceOp g;
                g.h = TraceH::JccGuard;
                g.cond = ti.mi.cond;
                g.seg = static_cast<uint16_t>(si);
                g.instIdx = static_cast<uint32_t>(i);
                g.ti = &ti;
                tr->ops.push_back(g);
            } else {
                encodeInst(ti, static_cast<uint32_t>(i),
                           static_cast<uint16_t>(si), sp_reg,
                           tr->ops);
            }
        }

        const TInst &bi =
            ps.blk->insts[static_cast<size_t>(ps.boundary)];
        TraceOp t;
        t.seg = static_cast<uint16_t>(si);
        t.instIdx = static_cast<uint32_t>(ps.boundary);
        t.ti = &bi;
        t.guestD = bi.guestCum;
        t.readsD = bi.memReadsCum;
        t.writesD = bi.memWritesCum;
        if (ps.isFinal) {
            t.h = TraceH::TraceEnd;
        } else {
            const BlockExit &ex =
                ps.blk->exits[static_cast<size_t>(ps.exitIdx)];
            t.imm = ex.target;
            if (bi.klass == ExecClass::Jcc) {
                t.h = TraceH::SegBranchCc;
                t.cond = bi.mi.cond;
            } else if (ex.kind == BlockExit::Kind::Branch) {
                t.h = TraceH::SegBranch;
            } else {
                t.h = TraceH::SegCall;
                t.imm2 = ex.returnTo;
            }
        }
        tr->ops.push_back(t);
    }

    // Wire the taken segment edges: each interior boundary is the last
    // op of its segment and jumps to the next segment's first op (or
    // back to op 0 when the trace closes on its head).
    for (size_t si = 0; si + 1 < plan.size(); ++si)
        tr->ops[seg_first[si + 1] - 1].jumpTo = seg_first[si + 1];
    if (loop_back)
        tr->ops.back().jumpTo = 0;

    SuperTrace *raw = tr.get();
    head->strace = raw;
    _live.push_back(std::move(tr));
    ++stats.formed;
    return raw;
}

void
TraceEngine::invalidateAll()
{
    if (_live.empty())
        return;
    stats.invalidated += _live.size();
    for (auto &t : _live)
        _retired.push_back(std::move(t));
    _live.clear();
}

/**
 * The threaded trace executor. One computed-goto dispatch per
 * pre-decoded operation, no per-instruction pc maintenance, no
 * per-instruction counter updates: deterministic counters fold from
 * the translate-time running totals at segment boundaries and at
 * faults, exactly where the block loop folds them. Memory accesses go
 * through per-family span hints (one range compare on the hit path)
 * with semantics byte-identical to tryRead32/tryWrite32 (tryRead8/
 * tryWrite8 for byte moves).
 */
TraceExit
PsrVm::runTrace(SuperTrace *tr, uint64_t guest_budget,
                VmRunResult &stop)
{
    static const void *const tbl[] = {
        &&h_MovRR,
        &&h_MovRI,
        &&h_MovRM,
        &&h_MovMR,
        &&h_MovMI,
        &&h_MovbRM,
        &&h_MovbMR,
        &&h_Lea,
        &&h_MovHi,
        &&h_CmpRR,
        &&h_CmpRI,
        &&h_CmpRM,
        &&h_CmpMR,
        &&h_CmpMI,
        &&h_TestRR,
        &&h_TestRI,
        &&h_TestRM,
        &&h_TestMR,
        &&h_TestMI,
        &&h_PushR,
        &&h_PushI,
        &&h_PopR,
#define HIPSTR_TRACE_ALU_LABELS(op)                                   \
    &&h_##op##RR, &&h_##op##RI, &&h_##op##RM, &&h_##op##MR,           \
        &&h_##op##MI,
        HIPSTR_TRACE_ALU_OPS(HIPSTR_TRACE_ALU_LABELS)
#undef HIPSTR_TRACE_ALU_LABELS
        &&h_Exec,
        &&h_JccGuard,
        &&h_SegBranch,
        &&h_SegBranchCc,
        &&h_SegCall,
        &&h_TraceEnd,
    };
    static_assert(sizeof(tbl) / sizeof(tbl[0]) ==
                      static_cast<size_t>(TraceH::NumHandlers),
                  "trace handler table out of sync with TraceH");

    using interp_detail::aluCompute;
    using interp_detail::setCmpFlags;
    using interp_detail::setTestFlags;

    TraceExit tx;
    uint32_t *const regs = state.regs.data();
    Memory &mem = _mem;
    // Per-family span hints: moves vs. slot/stack traffic vs. byte
    // moves, reads vs. writes kept apart (a hint proves only one
    // access direction and width).
    Memory::SpanHint rh0, rh1, wh0, wh1, rb, wb;
    const TraceOp *const ops = tr->ops.data();
    const TraceOp *op = ops;

#define R(x) regs[(x)]
#define NEXTOP                                                        \
    do {                                                              \
        ++op;                                                         \
        goto *tbl[static_cast<size_t>(op->h)];                        \
    } while (0)

    goto *tbl[static_cast<size_t>(op->h)];

h_MovRR:
    R(op->a) = R(op->b);
    NEXTOP;
h_MovRI:
    R(op->a) = op->imm;
    NEXTOP;
h_MovRM: {
    uint32_t v;
    if (!mem.tryRead32Span(rh0, R(op->b) + op->imm, v))
        goto fault;
    R(op->a) = v;
    NEXTOP;
}
h_MovMR:
    if (!mem.tryWrite32Span(wh0, R(op->a) + op->imm, R(op->b)))
        goto fault;
    NEXTOP;
h_MovMI:
    if (!mem.tryWrite32Span(wh0, R(op->a) + op->imm, op->imm2))
        goto fault;
    NEXTOP;
h_MovbRM: {
    uint8_t v;
    if (!mem.tryRead8Span(rb, R(op->b) + op->imm, v))
        goto fault;
    R(op->a) = v;
    NEXTOP;
}
h_MovbMR:
    if (!mem.tryWrite8Span(wb, R(op->a) + op->imm,
                           static_cast<uint8_t>(R(op->b))))
        goto fault;
    NEXTOP;
h_Lea:
    R(op->a) = R(op->b) + op->imm;
    NEXTOP;
h_MovHi:
    R(op->a) = (R(op->a) & 0xffffu) | (op->imm << 16);
    NEXTOP;

h_CmpRR:
    setCmpFlags(R(op->b), R(op->c), state.flags);
    NEXTOP;
h_CmpRI:
    setCmpFlags(R(op->b), op->imm2, state.flags);
    NEXTOP;
h_CmpRM: {
    uint32_t v;
    if (!mem.tryRead32Span(rh1, R(op->c) + op->imm2, v))
        goto fault;
    setCmpFlags(R(op->b), v, state.flags);
    NEXTOP;
}
h_CmpMR: {
    uint32_t v;
    if (!mem.tryRead32Span(rh1, R(op->b) + op->imm, v))
        goto fault;
    setCmpFlags(v, R(op->c), state.flags);
    NEXTOP;
}
h_CmpMI: {
    uint32_t v;
    if (!mem.tryRead32Span(rh1, R(op->b) + op->imm, v))
        goto fault;
    setCmpFlags(v, op->imm2, state.flags);
    NEXTOP;
}

h_TestRR:
    setTestFlags(R(op->b), R(op->c), state.flags);
    NEXTOP;
h_TestRI:
    setTestFlags(R(op->b), op->imm2, state.flags);
    NEXTOP;
h_TestRM: {
    uint32_t v;
    if (!mem.tryRead32Span(rh1, R(op->c) + op->imm2, v))
        goto fault;
    setTestFlags(R(op->b), v, state.flags);
    NEXTOP;
}
h_TestMR: {
    uint32_t v;
    if (!mem.tryRead32Span(rh1, R(op->b) + op->imm, v))
        goto fault;
    setTestFlags(v, R(op->c), state.flags);
    NEXTOP;
}
h_TestMI: {
    uint32_t v;
    if (!mem.tryRead32Span(rh1, R(op->b) + op->imm, v))
        goto fault;
    setTestFlags(v, op->imm2, state.flags);
    NEXTOP;
}

h_PushR: {
    uint32_t sp = R(op->a) - kWordSize;
    if (!mem.tryWrite32Span(wh1, sp, R(op->b)))
        goto fault;
    R(op->a) = sp;
    NEXTOP;
}
h_PushI: {
    uint32_t sp = R(op->a) - kWordSize;
    if (!mem.tryWrite32Span(wh1, sp, op->imm))
        goto fault;
    R(op->a) = sp;
    NEXTOP;
}
h_PopR: {
    uint32_t sp = R(op->a);
    uint32_t v;
    if (!mem.tryRead32Span(rh1, sp, v))
        goto fault;
    R(op->a) = sp + kWordSize;
    R(op->b) = v;
    NEXTOP;
}

#define HIPSTR_TRACE_ALU_HANDLERS(OP)                                 \
    h_##OP##RR:                                                       \
        R(op->a) = aluCompute(Op::OP, R(op->b), R(op->c));            \
        NEXTOP;                                                       \
    h_##OP##RI:                                                       \
        R(op->a) = aluCompute(Op::OP, R(op->b), op->imm2);            \
        NEXTOP;                                                       \
    h_##OP##RM: {                                                     \
        uint32_t v;                                                   \
        if (!mem.tryRead32Span(rh1, R(op->c) + op->imm2, v))          \
            goto fault;                                               \
        R(op->a) = aluCompute(Op::OP, R(op->b), v);                   \
        NEXTOP;                                                       \
    }                                                                 \
    h_##OP##MR: {                                                     \
        Addr slot = R(op->a) + op->imm;                               \
        uint32_t v;                                                   \
        if (!mem.tryRead32Span(rh1, slot, v))                         \
            goto fault;                                               \
        if (!mem.tryWrite32Span(wh1, slot,                            \
                                aluCompute(Op::OP, v, R(op->c))))     \
            goto fault;                                               \
        NEXTOP;                                                       \
    }                                                                 \
    h_##OP##MI: {                                                     \
        Addr slot = R(op->a) + op->imm;                               \
        uint32_t v;                                                   \
        if (!mem.tryRead32Span(rh1, slot, v))                         \
            goto fault;                                               \
        if (!mem.tryWrite32Span(wh1, slot,                            \
                                aluCompute(Op::OP, v, op->imm2)))     \
            goto fault;                                               \
        NEXTOP;                                                       \
    }

    HIPSTR_TRACE_ALU_HANDLERS(Add)
    HIPSTR_TRACE_ALU_HANDLERS(Sub)
    HIPSTR_TRACE_ALU_HANDLERS(And)
    HIPSTR_TRACE_ALU_HANDLERS(Or)
    HIPSTR_TRACE_ALU_HANDLERS(Xor)
    HIPSTR_TRACE_ALU_HANDLERS(Shl)
    HIPSTR_TRACE_ALU_HANDLERS(Shr)
    HIPSTR_TRACE_ALU_HANDLERS(Sar)
    HIPSTR_TRACE_ALU_HANDLERS(Mul)
    HIPSTR_TRACE_ALU_HANDLERS(Divu)
#undef HIPSTR_TRACE_ALU_HANDLERS

h_Exec: {
    // Generic fallback: full single-instruction semantics. state.pc
    // is scratch inside a trace (nothing here reads it); every exit
    // path below re-establishes it before handing control back.
    ++_traces.stats.execFallbacks;
    ExecStatus st = executeInstInline(op->ti->mi, state, mem, &_os);
    if (st == ExecStatus::Continue) [[likely]]
        NEXTOP;
    if (st == ExecStatus::Halted) {
        stopTraceAt(*tr, *op, VmStop::Halted, stop, tx);
        return tx;
    }
    hipstr_assert(st == ExecStatus::Faulted);
    goto fault;
}

h_JccGuard:
    if (!condHolds(op->cond, state.flags)) [[likely]]
        NEXTOP;
    // Off-trace direction: resume the block loop at the guard, which
    // re-evaluates the (pure) condition and runs the baseline exit
    // machinery — identical counters, chains, and security checks.
    ++_traces.stats.sideExits;
    goto resume_owner;

h_SegBranchCc:
    if (!condHolds(op->cond, state.flags)) {
        // Dominant direction not taken: fall through inside the owner
        // block, exactly where the block loop would continue.
        ++_traces.stats.sideExits;
        goto resume_owner;
    }
    goto seg_branch_taken;

h_SegBranch:
seg_branch_taken:
    stats.guestInsts += op->guestD;
    stats.hostInsts += op->instIdx + 1;
    stats.memReads += op->readsD;
    stats.memWrites += op->writesD;
    if (controlTraceHook) [[unlikely]]
        controlTraceHook(op->imm, 'B');
    ++stats.traceFollows;
    state.pc = op->imm;
    if (stats.guestInsts >= guest_budget) [[unlikely]] {
        stop.reason = VmStop::StepLimit;
        stop.stopPc = state.pc;
        tx.kind = TraceExitKind::Stop;
        return tx;
    }
    op = ops + op->jumpTo;
    goto *tbl[static_cast<size_t>(op->h)];

h_SegCall: {
    stats.guestInsts += op->guestD;
    stats.hostInsts += op->instIdx + 1;
    stats.memReads += op->readsD;
    stats.memWrites += op->writesD;
    // Linkage faults report the owner block's pc, like the block loop.
    state.pc = tr->segs[op->seg].guestPc;
    if (controlTraceHook) [[unlikely]]
        controlTraceHook(op->imm, 'C');
    if (!emitCallLinkage(op->imm2, stop)) {
        tx.kind = TraceExitKind::Stop;
        return tx;
    }
    if (_cache.flushes() != tr->flushGen) [[unlikely]] {
        // The eager return-point translation capacity-flushed the
        // cache: every block this trace splices is gone. Abandon the
        // trace (reading nothing block-owned) and re-enter through
        // the counting dispatcher, like the baseline's flush-dirtied
        // chain pointer does.
        tx.kind = TraceExitKind::DispatchTo;
        tx.target = op->imm;
        return tx;
    }
    ++stats.traceFollows;
    state.pc = op->imm;
    if (stats.guestInsts >= guest_budget) [[unlikely]] {
        stop.reason = VmStop::StepLimit;
        stop.stopPc = state.pc;
        tx.kind = TraceExitKind::Stop;
        return tx;
    }
    op = ops + op->jumpTo;
    goto *tbl[static_cast<size_t>(op->h)];
}

h_TraceEnd:
    // Normal completion: hand the boundary instruction (a return,
    // syscall, indirect or unchainable exit) to the block loop, which
    // runs the full baseline machinery from here.
    goto resume_owner;

resume_owner:
    resumeTraceOwner(*tr, *op, tx);
    return tx;

fault:
    stopTraceAt(*tr, *op, VmStop::Fault, stop, tx);
    return tx;

#undef R
#undef NEXTOP
}

void
PsrVm::stopTraceAt(const SuperTrace &tr, const TraceOp &op, VmStop why,
                   VmRunResult &stop, TraceExit &tx)
{
    // The stopping instruction is still accounted, exactly like the
    // block loop's credit_through at a fault (credited base is 0
    // inside a segment by construction).
    stats.guestInsts += op.ti->guestCum;
    stats.hostInsts += op.instIdx + 1;
    stats.memReads += op.ti->memReadsCum;
    stats.memWrites += op.ti->memWritesCum;
    const TraceSegment &sg = tr.segs[op.seg];
    state.pc = sg.guestPc;
    stop.reason = why;
    stop.stopPc = sg.guestPc;
    tx.kind = TraceExitKind::Stop;
}

void
PsrVm::resumeTraceOwner(const SuperTrace &tr, const TraceOp &op,
                        TraceExit &tx)
{
    const TraceSegment &sg = tr.segs[op.seg];
    state.pc = sg.guestPc;
    tx.kind = TraceExitKind::Resume;
    tx.blk = sg.blk;
    tx.instIdx = op.instIdx;
}

} // namespace hipstr
