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

/** The handler of each (op, shape) row, Exec where there is none. */
struct HandlerIndex
{
    TraceH of[kNumOps][static_cast<size_t>(TraceShape::None)];
};

constexpr HandlerIndex
buildHandlerIndex()
{
    HandlerIndex x{};
    for (auto &row : x.of)
        for (TraceH &h : row)
            h = TraceH::Exec;
    for (size_t i = 0; i < static_cast<size_t>(TraceH::NumHandlers);
         ++i) {
        const TraceOpInfo &info = kTraceOpInfo[i];
        if (info.shape != TraceShape::None)
            x.of[static_cast<size_t>(info.op)]
                [static_cast<size_t>(info.shape)] = static_cast<TraceH>(i);
    }
    return x;
}

constexpr HandlerIndex kHandlerIndex = buildHandlerIndex();

/** Shape of the operand pair (destination-or-first, source). */
TraceShape
shapeOf(const Operand &first, const Operand &second)
{
    if (first.isReg()) {
        if (second.isReg())
            return TraceShape::RR;
        if (second.isImm())
            return TraceShape::RI;
        if (second.isMem())
            return TraceShape::RM;
    } else if (first.isMem()) {
        if (second.isReg())
            return TraceShape::MR;
        if (second.isImm())
            return TraceShape::MI;
    }
    return TraceShape::None;
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
    if (ti.mi.op == Op::Nop)
        return;
    TraceOp t = traceOpFor(ti.mi, sp_reg);
    t.seg = seg;
    t.instIdx = inst_idx;
    t.ti = &ti;
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
 * formation deterministic for a given execution history. A nonzero
 * @p start (a side trace's first block) considers only the exits
 * whose boundary instruction is at or after @p start.
 */
int
dominantExit(const TranslatedBlock *b, int start)
{
    uint64_t total = 0;
    uint64_t best_hits = 0;
    int best = -1;
    for (size_t e = 0; e < b->exits.size(); ++e) {
        if (start > 0 && boundaryInstFor(b, e) < start)
            continue;
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
    int first;    ///< inst index of the segment's first instruction
    int boundary; ///< inst index of the segment's last instruction
    int exitIdx;  ///< taken exit (interior segments), -1 for final
    bool isFinal;
};

} // namespace

TraceOp
traceOpFor(const MachInst &mi, uint8_t sp_reg)
{
    TraceOp t;
    t.h = TraceH::Exec;

    // The operands in field order: the destination-or-first operand,
    // then the sources. ALU ops are three-address on registers or
    // two-address on a memory slot (Cisc relocated registers); push
    // and pop address the stack slot at sp.
    const Operand stack = Operand::makeMem(sp_reg, 0);
    const Operand *ops[3] = { &mi.dst, &mi.src1, nullptr };
    if (opInfo(mi.op).alu) {
        if (mi.dst.isReg() && mi.src1.isReg())
            ops[2] = &mi.src2;
        else if (sameMem(mi.dst, mi.src1))
            ops[1] = &mi.src2;
        else
            return t;
    } else if (mi.op == Op::Cmp || mi.op == Op::Test) {
        ops[0] = &mi.src1;
        ops[1] = &mi.src2;
    } else if (mi.op == Op::Push) {
        ops[0] = &stack;
    } else if (mi.op == Op::Pop) {
        ops[0] = &stack;
        ops[1] = &mi.dst;
    }

    const TraceShape shape =
        shapeOf(*ops[0], ops[2] != nullptr ? *ops[2] : *ops[1]);
    if (shape == TraceShape::None)
        return t;
    t.h = kHandlerIndex.of[static_cast<size_t>(mi.op)]
                          [static_cast<size_t>(shape)];
    if (t.h == TraceH::Exec)
        return t;

    // Register operands take the row's register fields in a, b, c
    // order (skipping the address base); a memory operand fills the
    // base and displacement; an immediate goes where the row says.
    const TraceOpInfo &info = traceOpInfo(t.h);
    uint8_t free = info.regs & ~trace_regs::bit(info.base);
    auto set_field = [&t](TraceField f, Reg r) {
        uint8_t &slot = f == TraceField::A ? t.a
            : f == TraceField::B           ? t.b
                                           : t.c;
        slot = static_cast<uint8_t>(r);
    };
    auto set_value = [&t](TraceImm where, int32_t v) {
        if (where == TraceImm::Imm)
            t.imm = static_cast<uint32_t>(v);
        else if (where == TraceImm::Imm2)
            t.imm2 = static_cast<uint32_t>(v);
    };
    for (const Operand *o : ops) {
        if (o == nullptr)
            break;
        if (o->isReg()) {
            const TraceField f = (free & trace_regs::A) ? TraceField::A
                : (free & trace_regs::B)                ? TraceField::B
                                                        : TraceField::C;
            free &= static_cast<uint8_t>(~trace_regs::bit(f));
            set_field(f, o->reg);
        } else if (o->isMem()) {
            set_field(info.base, o->base);
            set_value(info.disp, o->disp);
        } else {
            set_value(info.imm, o->disp);
        }
    }
    return t;
}

SuperTrace *
TraceEngine::tryForm(TranslatedBlock *head, const PsrConfig &cfg,
                     uint8_t sp_reg, bool isomeron, uint64_t flush_gen,
                     uint32_t start)
{
    ++stats.attempts;
    const bool side = start > 0;

    // Walk the dominant chained edges. A block extends the trace when
    // its hottest exit is a chained direct branch/call whose boundary
    // instruction is preceded only by straight-line code and guards;
    // anything else ends the walk and the last block becomes the
    // final (resume-into-the-block-loop) segment. Revisiting a
    // non-head block simply unrolls it; reaching the head closes the
    // trace into a loop. A side trace starts mid-block, so it never
    // closes on its head: it ends instead at the first block that
    // heads a live trace (an empty final segment at that block's
    // instruction 0), and the dispatch loop enters that trace next.
    std::vector<PlannedSeg> plan;
    TranslatedBlock *cur = head;
    int first = static_cast<int>(start);
    bool loop_back = false;
    bool linked = false;
    while (plan.size() < cfg.traceMaxBlocks) {
        int e = dominantExit(cur, first);
        if (e < 0)
            break;
        const BlockExit &ex = cur->exits[static_cast<size_t>(e)];
        const bool kind_ok = ex.kind == BlockExit::Kind::Branch ||
            (ex.kind == BlockExit::Kind::Call && !isomeron);
        if (!kind_ok || ex.chained == nullptr ||
            ex.chained->srcStart != ex.target)
            break;
        int boundary = boundaryInstFor(cur, static_cast<size_t>(e));
        if (boundary < first || !cleanPrefix(cur, boundary))
            break;
        if (cur->insts[boundary].klass == ExecClass::Jcc &&
            ex.kind != BlockExit::Kind::Branch)
            break;
        plan.push_back({ cur, first, boundary, e, false });
        first = 0;
        TranslatedBlock *next = ex.chained;
        if (side && next->strace != nullptr) {
            plan.push_back({ next, 0, 0, -1, true });
            linked = true;
            break;
        }
        if (!side && next == head) {
            loop_back = true;
            break;
        }
        cur = next;
    }

    if (!loop_back && !linked) {
        // A root needs at least one chained edge (the block loop runs
        // a lone block as well); a side trace may be just the rest of
        // its owner block.
        if (plan.empty() && !side)
            return nullptr; // no dominant chain yet (or ever)
        int endi = terminalInst(cur);
        if (endi < first || !cleanPrefix(cur, endi))
            return nullptr;
        if (plan.empty() && endi == first)
            return nullptr; // nothing to run before the boundary
        plan.push_back({ cur, first, endi, -1, true });
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

        for (int i = ps.first; i < ps.boundary; ++i) {
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
    if (side)
        ++stats.sideFormed;
    else
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
#define HIPSTR_TRACE_LABEL(h, ...) &&h_##h,
        HIPSTR_TRACE_HANDLERS(HIPSTR_TRACE_LABEL)
#undef HIPSTR_TRACE_LABEL
    };

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

#define HIPSTR_TRACE_ALU_HANDLERS(ctx, OP, name)                      \
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

    HIPSTR_ALU_OPS(HIPSTR_TRACE_ALU_HANDLERS, _)
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
    tx.op = static_cast<uint32_t>(&op - tr.ops.data());
}

} // namespace hipstr
