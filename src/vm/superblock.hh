/**
 * @file
 * Superblock traces: hot chains of translated blocks straight-lined
 * into a single pre-decoded instruction stream and executed by a
 * computed-goto threaded loop (PsrVm::runTrace) that never returns to
 * the dispatcher between on-trace blocks.
 *
 * The layer sits strictly *behind* the dispatcher: traces are built
 * only from edges the dispatcher already chained, every off-trace
 * branch is a side-exit guard that resumes the ordinary block loop at
 * the guarded instruction, and every indirect transfer (returns,
 * indirect jumps/calls, syscall redirects) ends the trace so the SFI
 * check and the Section 3.5 code-cache-miss policy run on the one
 * path that always ran them. A hot fall-through exit (the dominant
 * edge of a SegBranchCc not taken) grows a side trace from the rest
 * of its owner block, and PsrVm::enterTrace links parent to child in
 * the dispatch loop, with no block-loop iteration in between.
 * Deterministic counters are folded from the translate-time running
 * totals at trace boundaries exactly as the block loop folds them at
 * block boundaries, so every counter the benches export is
 * byte-identical with tracing on or off; only chainFollows/
 * traceFollows split (an on-trace edge counts as a traceFollow
 * instead of a chainFollow), and neither feeds the timing model or a
 * deterministic BENCH json.
 *
 * Invalidation composes with the flush protocol: a trace records the
 * code-cache flush generation at formation; any flush (capacity,
 * fault-injected, re-randomization) retires every trace before its
 * block pointers can be re-followed, and a trace that triggers a
 * capacity flush mid-run (call-linkage translation) abandons itself
 * at that boundary without touching another trace-held pointer.
 */

#ifndef HIPSTR_VM_SUPERBLOCK_HH
#define HIPSTR_VM_SUPERBLOCK_HH

#include <memory>
#include <vector>

#include "core/psr_config.hh"
#include "core/translator.hh"

namespace hipstr
{

class CodeCache;

/**
 * The one trace-handler list. Each row X(handler, op, shape, regs,
 * base, disp, imm, access, width) describes one computed-goto label
 * of PsrVm::runTrace:
 *
 *  - op/shape: the guest op and operand shape it specializes (Nop/None
 *    for the control handlers). Shapes name the destination-or-first
 *    operand, then the source: RR/RI register-register/immediate, RM
 *    register with memory source, MR/MI memory destination (Cisc
 *    two-address slot forms, and the stack slot of push/pop).
 *  - regs: the TraceOp fields (a, b, c) that name guest registers.
 *  - base/disp: the field holding the address base register, and where
 *    the displacement comes from; imm: where an immediate operand goes.
 *  - access/width: the memory access made at that address.
 *
 * TraceH, the runTrace label table and kTraceOpInfo all expand from
 * this list, so their orders match by construction.
 */
#define HIPSTR_TRACE_HANDLERS(X)                                      \
    X(MovRR, Mov, RR, AB, None, None, None, None, 0)                  \
    X(MovRI, Mov, RI, A, None, None, Imm, None, 0)                    \
    X(MovRM, Mov, RM, AB, B, Imm, None, Read, 4)                      \
    X(MovMR, Mov, MR, AB, A, Imm, None, Write, 4)                     \
    X(MovMI, Mov, MI, A, A, Imm, Imm2, Write, 4)                      \
    /* a <- zext mem8[R(b)+imm] */                                    \
    X(MovbRM, Movb, RM, AB, B, Imm, None, Read, 1)                    \
    /* mem8[R(a)+imm] <- low8 R(b) */                                 \
    X(MovbMR, Movb, MR, AB, A, Imm, None, Write, 1)                   \
    X(Lea, Lea, RM, AB, B, Imm, None, None, 0)                        \
    X(MovHi, MovHi, RI, A, None, None, Imm, None, 0)                  \
    HIPSTR_TRACE_FLAG_ROWS(X, Cmp)                                    \
    HIPSTR_TRACE_FLAG_ROWS(X, Test)                                   \
    X(PushR, Push, MR, AB, A, MinusWord, None, Write, 4)              \
    X(PushI, Push, MI, A, A, MinusWord, Imm, Write, 4)                \
    X(PopR, Pop, MR, AB, A, Zero, None, Read, 4)                      \
    HIPSTR_ALU_OPS(HIPSTR_TRACE_ALU_ROWS, X)                          \
    /* cold generic fallback: executeInstInline on ti->mi (counted as \
       an execFallback) */                                            \
    X(Exec, Nop, None, None, None, None, None, None, 0)               \
    /* off-trace conditional: taken => side exit */                   \
    X(JccGuard, Nop, None, None, None, None, None, None, 0)           \
    /* on-trace direct branch edge (block stub exit) */               \
    X(SegBranch, Nop, None, None, None, None, None, None, 0)          \
    /* on-trace conditional edge (dominant taken) */                  \
    X(SegBranchCc, Nop, None, None, None, None, None, None, 0)        \
    /* on-trace direct call edge (emits call linkage) */              \
    X(SegCall, Nop, None, None, None, None, None, None, 0)            \
    /* resume the owner block at the boundary inst */                 \
    X(TraceEnd, Nop, None, None, None, None, None, None, 0)

/** Cmp/Test: flags from R(b) or [R(b)+imm], against R(c), imm2 or
    [R(c)+imm2]. */
#define HIPSTR_TRACE_FLAG_ROWS(X, op)                                 \
    X(op##RR, op, RR, BC, None, None, None, None, 0)                  \
    X(op##RI, op, RI, B, None, None, Imm2, None, 0)                   \
    X(op##RM, op, RM, BC, C, Imm2, None, Read, 4)                     \
    X(op##MR, op, MR, BC, B, Imm, None, Read, 4)                      \
    X(op##MI, op, MI, B, B, Imm, Imm2, Read, 4)

/** ALU: a <- R(b) op (R(c) | imm2 | [R(c)+imm2]), or the slot
    [R(a)+imm] op= (R(c) | imm2). */
#define HIPSTR_TRACE_ALU_ROWS(X, op, name)                            \
    X(op##RR, op, RR, ABC, None, None, None, None, 0)                 \
    X(op##RI, op, RI, AB, None, None, Imm2, None, 0)                  \
    X(op##RM, op, RM, ABC, C, Imm2, None, Read, 4)                    \
    X(op##MR, op, MR, AC, A, Imm, None, ReadWrite, 4)                 \
    X(op##MI, op, MI, A, A, Imm, Imm2, ReadWrite, 4)

/** Trace handler index: one per HIPSTR_TRACE_HANDLERS row. */
enum class TraceH : uint16_t
{
#define HIPSTR_TRACE_ENUM(h, ...) h,
    HIPSTR_TRACE_HANDLERS(HIPSTR_TRACE_ENUM)
#undef HIPSTR_TRACE_ENUM
    NumHandlers
};

/** Operand shape a handler specializes (see HIPSTR_TRACE_HANDLERS). */
enum class TraceShape : uint8_t
{
    RR,
    RI,
    RM,
    MR,
    MI,
    None
};

/** A TraceOp field that can name a guest register. */
enum class TraceField : uint8_t
{
    None,
    A,
    B,
    C
};

/** Where a handler's displacement or immediate lives. */
enum class TraceImm : uint8_t
{
    None,
    Imm,      ///< TraceOp::imm
    Imm2,     ///< TraceOp::imm2
    Zero,     ///< constant 0 (the current top of stack)
    MinusWord ///< constant -4 (the new top of stack)
};

/** Direction of a handler's memory access. */
enum class TraceAccess : uint8_t
{
    None,
    Read,
    Write,
    ReadWrite
};

/** Bit per TraceOp register field in TraceOpInfo::regs. */
namespace trace_regs
{
enum : uint8_t
{
    None = 0,
    A = 1,
    B = 2,
    AB = A | B,
    C = 4,
    AC = A | C,
    BC = B | C,
    ABC = A | B | C
};
constexpr uint8_t
bit(TraceField f)
{
    return f == TraceField::None
        ? 0
        : static_cast<uint8_t>(1u << (static_cast<unsigned>(f) - 1));
}
} // namespace trace_regs

/** One row of the trace-handler list. */
struct TraceOpInfo
{
    const char *name;
    Op op;
    TraceShape shape;
    uint8_t regs; ///< trace_regs bits
    TraceField base;
    TraceImm disp;
    TraceImm imm;
    TraceAccess access;
    uint8_t width; ///< bytes accessed, 0 for no memory access
};

inline constexpr TraceOpInfo
    kTraceOpInfo[static_cast<size_t>(TraceH::NumHandlers)] = {
#define HIPSTR_TRACE_INFO(h, op, shape, regs, base, disp, imm, access,  \
                          width)                                      \
    { #h,                                                             \
      Op::op,                                                         \
      TraceShape::shape,                                              \
      trace_regs::regs,                                               \
      TraceField::base,                                               \
      TraceImm::disp,                                                 \
      TraceImm::imm,                                                  \
      TraceAccess::access,                                            \
      width },
        HIPSTR_TRACE_HANDLERS(HIPSTR_TRACE_INFO)
#undef HIPSTR_TRACE_INFO
};

constexpr const TraceOpInfo &
traceOpInfo(TraceH h)
{
    return kTraceOpInfo[static_cast<size_t>(h)];
}

/**
 * One pre-decoded trace operation. Specialized handlers read only the
 * flat fields (registers, displacements, immediates); the source
 * TInst pointer serves the generic fallback and the fault fold. The
 * owning segment + instruction index let any op reconstruct the exact
 * resume/stop point of the baseline block loop.
 */
struct TraceOp
{
    TraceH h = TraceH::Exec;
    uint8_t a = 0;         ///< dst reg / mem base / stack pointer reg
    uint8_t b = 0;         ///< src reg / mem base
    uint8_t c = 0;         ///< second src reg / mem base
    Cond cond = Cond::Eq;  ///< JccGuard / SegBranchCc
    uint16_t seg = 0;      ///< owning segment index
    uint32_t instIdx = 0;  ///< index in the owner block's insts
    uint32_t imm = 0;      ///< displacement / immediate / edge target
    uint32_t imm2 = 0;     ///< second displacement / immediate / RA
    uint32_t jumpTo = 0;   ///< next op index for taken segment edges
    /**
     * Boundary fold deltas: the translate-time inclusive running
     * totals at the boundary instruction (credited base is always 0
     * inside a trace segment — traces exclude mid-block folds). @{
     */
    uint32_t guestD = 0;
    uint32_t readsD = 0;
    uint32_t writesD = 0;
    /** @} */
    const TInst *ti = nullptr; ///< source instruction (fallback/fault)

    /** The register @p f holds. */
    uint8_t
    field(TraceField f) const
    {
        return f == TraceField::A ? a : f == TraceField::B ? b : c;
    }

    /** The value @p where names. */
    uint32_t
    value(TraceImm where) const
    {
        switch (where) {
          case TraceImm::Imm: return imm;
          case TraceImm::Imm2: return imm2;
          case TraceImm::MinusWord: return static_cast<uint32_t>(-4);
          case TraceImm::None:
          case TraceImm::Zero: return 0;
        }
        return 0;
    }

    /** The guest address this op's memory access starts at. */
    Addr
    memAddr(const uint32_t *regs) const
    {
        const TraceOpInfo &info = traceOpInfo(h);
        return regs[field(info.base)] + value(info.disp);
    }
};

/**
 * The specialized TraceOp for straight-line instruction @p mi (h and
 * the operand fields set), or one on the generic Exec handler when no
 * row of HIPSTR_TRACE_HANDLERS matches its op and operand shape.
 * @p sp_reg is the ISA's stack-pointer register index.
 */
TraceOp traceOpFor(const MachInst &mi, uint8_t sp_reg);

/** One spliced block of a trace. */
struct TraceSegment
{
    TranslatedBlock *blk = nullptr;
    Addr guestPc = 0; ///< blk->srcStart (the block loop's block_pc)
};

/**
 * Host-side profile of one SegBranchCc op's fall-through exits (the
 * dominant edge not taken), and the side trace grown from them. Kept
 * beside the op stream, never inside a TraceOp, so the threaded loop
 * and the JIT never see it.
 */
struct SideExit
{
    uint32_t hits = 0;           ///< fall-through exits since last try
    uint8_t fails = 0;           ///< formation attempts that failed
    bool dead = false;           ///< formation given up for good
    SuperTrace *child = nullptr; ///< linked side trace, or nullptr
};

/** A formed superblock trace, owned by the TraceEngine. */
struct SuperTrace
{
    Addr headPc = 0;
    uint64_t flushGen = 0; ///< code-cache flush count at formation
    bool loopBack = false; ///< last edge jumps to op 0 (hot loop)
    std::vector<TraceOp> ops;
    std::vector<TraceSegment> segs;
    /**
     * Per-op fall-through profile, indexed like @c ops (only
     * SegBranchCc slots are used). Sized on the first fall-through
     * exit, so traces that never fall through pay nothing.
     */
    std::vector<SideExit> sides;

    /** The fall-through slot of op @p idx. */
    SideExit &
    side(uint32_t idx)
    {
        if (sides.size() != ops.size())
            sides.resize(ops.size());
        return sides[idx];
    }

    /**
     * Trace-JIT metadata, embedded here (rather than keyed on the
     * trace pointer in a side table) so the compiled-entry lifetime
     * is exactly the trace lifetime — a recycled allocation can never
     * alias another trace's code. @c gen is the executable arena's
     * generation at compile time; a stale stamp means the bytes may
     * have been reclaimed and the trace is recompiled on next entry.
     */
    struct JitInfo
    {
        const void *entry = nullptr; ///< compiled body, or nullptr
        uint64_t gen = 0;            ///< arena generation stamp
        bool failed = false;         ///< compile declined: interpret
        /**
         * Persistent per-op span-hint slots (one per TraceOp; only
         * memory ops consult theirs) and the Memory layout epoch
         * they were refilled under — the JIT engine clears the table
         * when the epoch moves. See jit::JitFrame.
         */
        std::vector<Memory::SpanHint> hints;
        uint64_t hintEpoch = 0;
    } jit;
};

/** How a trace run hands control back to the dispatch loop. */
enum class TraceExitKind : uint8_t
{
    Stop,      ///< VmRunResult filled in; the run is over
    Resume,    ///< continue the block loop at (blk, instIdx), credited 0
    DispatchTo ///< trace abandoned after a mid-trace flush: dispatch
               ///< target through the ordinary (counting) slow path
};

struct TraceExit
{
    TraceExitKind kind = TraceExitKind::Stop;
    TranslatedBlock *blk = nullptr;
    uint32_t instIdx = 0;
    uint32_t op = 0; ///< Resume: index of the exiting op
    Addr target = 0;
};

/** Formation/retirement counters (host-side observability only). */
struct TraceStats
{
    uint64_t formed = 0;
    uint64_t attempts = 0;
    uint64_t invalidated = 0;
    uint64_t sideExits = 0;
    /** Side traces formed from hot fall-through exits (also counted
        in @c formed), and parent-to-child entries taken. @{ */
    uint64_t sideFormed = 0;
    uint64_t sideEntries = 0;
    /** @} */
    /** Interpreted ops that ran through the generic Exec handler. */
    uint64_t execFallbacks = 0;
};

/**
 * Owns every trace of one VM. Formation walks dominant chained edges;
 * invalidation moves live traces to a retired list (freed only at
 * safe points, so a trace that flushed the cache out from under
 * itself stays addressable until it unwinds).
 */
class TraceEngine
{
  public:
    /**
     * Try to build a trace headed at @p head. Returns the installed
     * trace (head->strace set) or nullptr when no dominant chain
     * exists yet. @p flush_gen is the code cache's current flush
     * count; @p sp_reg the ISA's stack-pointer register index.
     *
     * A nonzero @p start forms a side trace instead: its first
     * segment runs head's instructions [start, boundary), considering
     * only exits at or after @p start, and head->strace is left
     * alone (the caller links the child into its parent's SideExit).
     * A side trace also stops at the first chained block that heads
     * a live trace, ending there so the dispatch loop enters that
     * trace next.
     */
    SuperTrace *tryForm(TranslatedBlock *head, const PsrConfig &cfg,
                        uint8_t sp_reg, bool isomeron,
                        uint64_t flush_gen, uint32_t start = 0);

    /** Retire every live trace, side traces included (any
        code-cache flush). */
    void invalidateAll();

    /** Free retired traces; call only outside trace execution. */
    void collectRetired() { _retired.clear(); }

    size_t liveCount() const { return _live.size(); }

    /** Live traces in formation order, roots and side traces. */
    const std::vector<std::unique_ptr<SuperTrace>> &
    live() const
    {
        return _live;
    }

    /**
     * Live traces that currently hold a compiled JIT body — the ones
     * a code-cache flush retires *as compiled code* (the jit.invalidated
     * counter); traces stranded by an arena reset are not retired and
     * recompile lazily instead.
     */
    size_t
    liveJittedCount() const
    {
        size_t n = 0;
        for (const auto &t : _live)
            if (t->jit.entry != nullptr)
                ++n;
        return n;
    }

    TraceStats stats;

  private:
    std::vector<std::unique_ptr<SuperTrace>> _live;
    std::vector<std::unique_ptr<SuperTrace>> _retired;
};

} // namespace hipstr

#endif // HIPSTR_VM_SUPERBLOCK_HH
