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
 * path that always ran them. Deterministic counters are folded from
 * the translate-time running totals at trace boundaries exactly as
 * the block loop folds them at block boundaries, so every counter the
 * benches export is byte-identical with tracing on or off; only
 * chainFollows/traceFollows split (an on-trace edge counts as a
 * traceFollow instead of a chainFollow), and neither feeds the timing
 * model or a deterministic BENCH json.
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

/** The ALU ops the trace executor specializes per operand shape. */
#define HIPSTR_TRACE_ALU_OPS(X)                                       \
    X(Add) X(Sub) X(And) X(Or) X(Xor) X(Shl) X(Shr) X(Sar) X(Mul)     \
    X(Divu)

/**
 * Trace handler index. Every value names one computed-goto label in
 * PsrVm::runTrace; the label table there is built from the same
 * X-macros, so the orders match by construction. Operand shapes:
 * RR/RI register-register/immediate, RM register with memory source,
 * MR/MI memory destination (Cisc two-address slot forms).
 */
enum class TraceH : uint16_t
{
    MovRR,
    MovRI,
    MovRM,
    MovMR,
    MovMI,
    MovbRM,      ///< a <- zext mem8[R(b)+imm]
    MovbMR,      ///< mem8[R(a)+imm] <- low8 R(b)
    Lea,
    MovHi,
    CmpRR,
    CmpRI,
    CmpRM,
    CmpMR,
    CmpMI,
    TestRR,
    TestRI,
    TestRM,
    TestMR,
    TestMI,
    PushR,
    PushI,
    PopR,
#define HIPSTR_TRACE_ALU_ENUM(op)                                     \
    op##RR, op##RI, op##RM, op##MR, op##MI,
    HIPSTR_TRACE_ALU_OPS(HIPSTR_TRACE_ALU_ENUM)
#undef HIPSTR_TRACE_ALU_ENUM
    Exec,        ///< cold generic fallback: executeInstInline on
                 ///< ti->mi (counted as an execFallback)
    JccGuard,    ///< off-trace conditional: taken => side exit
    SegBranch,   ///< on-trace direct branch edge (block stub exit)
    SegBranchCc, ///< on-trace conditional edge (dominant taken)
    SegCall,     ///< on-trace direct call edge (emits call linkage)
    TraceEnd,    ///< resume the owner block at the boundary inst
    NumHandlers
};

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
};

/** One spliced block of a trace. */
struct TraceSegment
{
    TranslatedBlock *blk = nullptr;
    Addr guestPc = 0; ///< blk->srcStart (the block loop's block_pc)
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
    Addr target = 0;
};

/** Formation/retirement counters (host-side observability only). */
struct TraceStats
{
    uint64_t formed = 0;
    uint64_t attempts = 0;
    uint64_t invalidated = 0;
    uint64_t sideExits = 0;
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
     */
    SuperTrace *tryForm(TranslatedBlock *head, const PsrConfig &cfg,
                        uint8_t sp_reg, bool isomeron,
                        uint64_t flush_gen);

    /** Retire every live trace (any code-cache flush). */
    void invalidateAll();

    /** Free retired traces; call only outside trace execution. */
    void collectRetired() { _retired.clear(); }

    size_t liveCount() const { return _live.size(); }

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
