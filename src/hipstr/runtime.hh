/**
 * @file
 * The HIPStR runtime (Section 3.5): one PSR virtual machine per ISA
 * of the heterogeneous-ISA CMP, an attack-detection trigger (indirect
 * control transfers that miss the code cache), a probabilistic
 * migration policy, and the PSR-aware cross-ISA state transformer.
 */

#ifndef HIPSTR_HIPSTR_RUNTIME_HH
#define HIPSTR_HIPSTR_RUNTIME_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "binary/fatbin.hh"
#include "core/psr_config.hh"
#include "fault/fault.hh"
#include "migration/transform.hh"
#include "support/random.hh"
#include "telemetry/phase.hh"
#include "telemetry/trace.hh"
#include "vm/psr_vm.hh"

namespace hipstr
{

/** Configuration of the full defense. */
struct HipstrConfig
{
    PsrConfig psr;

    /**
     * Probability of switching ISAs when the PSR VM suspects a
     * security breach (Figure 8's diversification probability).
     */
    double diversificationProbability = 1.0;

    /** Master switch for security-triggered migration. */
    bool migrateOnSecurityEvents = true;

    /**
     * Performance-driven (phase-change) migration interval in guest
     * instructions; 0 disables. These are the paper's baseline
     * migrations that preserve the heterogeneous-ISA CMP's
     * energy/performance benefits (0.32% overhead).
     */
    uint64_t phaseIntervalInsts = 0;

    /**
     * Retain at most this many MigrationOutcome records in
     * HipstrRunSummary::migrationLog, as a ring of the most recent
     * migrations. 0 (the default) disables the log entirely: a
     * long-lived server worker migrates an unbounded number of times
     * and must not grow memory per migration. Migrations evicted from
     * (or never admitted to) the ring are counted in
     * migrationLogDropped.
     */
    uint32_t migrationLogCap = 0;

    IsaKind startIsa = IsaKind::Cisc;
    uint64_t policySeed = 0x715;
};

/** Aggregate outcome of a HIPStR-protected run. */
struct HipstrRunSummary
{
    VmStop reason = VmStop::StepLimit;
    Addr stopPc = 0;
    uint64_t totalGuestInsts = 0;
    std::array<uint64_t, kNumIsas> guestInstsPerIsa{};
    uint32_t migrations = 0;
    uint32_t migrationsDenied = 0; ///< policy fired but unsafe point
    /** Security events ignored while migration was suspended
     *  (degraded single-ISA mode — the paper's dual-ISA response is
     *  unavailable, so the event is logged and execution continues). */
    uint32_t migrationsSuppressed = 0;
    /** Cross-ISA transforms that aborted and rolled back to the
     *  source-ISA checkpoint (injected by the fault engine; counted
     *  inside migrationsDenied as well). */
    uint32_t transformAborts = 0;
    double migrationMicroseconds = 0;

    /**
     * Why the program died, when reason is a crash stop: fault kind,
     * faulting guest PC, the ISA executing, and that VM's
     * randomization generation. kind == FaultKind::None for clean
     * exits and un-finished epochs.
     */
    FaultInfo fault;
    /**
     * Most recent migrations, bounded by HipstrConfig::migrationLogCap
     * (empty unless the cap is set). The cumulative summary() carries
     * the ring; the per-call deltas returned by run() leave it empty.
     */
    std::vector<MigrationOutcome> migrationLog;
    /** Migrations not retained in migrationLog (cap 0 or evicted). */
    uint64_t migrationLogDropped = 0;

    /**
     * Per-phase profiling of this epoch: translation, map generation
     * (regalloc + relocation), and migration-transform work with
     * modeled costs (telemetry/phase.hh). The cumulative summary()
     * carries the since-reset() breakdown; run() deltas subtract.
     */
    telemetry::PhaseBreakdown phases;
};

/** Checkpoint field list (support/serialize.hh). */
template <class A>
void
transfer(A &a, HipstrRunSummary &s)
{
    auto &[reason, stopPc, totalGuestInsts, guestInstsPerIsa, migrations,
           migrationsDenied, migrationsSuppressed, transformAborts,
           migrationMicroseconds, fault, migrationLog,
           migrationLogDropped, phases] = s;
    a(reason, stopPc, totalGuestInsts, guestInstsPerIsa, migrations,
      migrationsDenied, migrationsSuppressed, transformAborts,
      migrationMicroseconds, fault);
    a.seq32(migrationLog);
    a(migrationLogDropped, phases);
}

/**
 * Outcome of one scheduling quantum (runQuantum). `reason` is the
 * event that ended the slice: StepLimit (budget exhausted — the
 * process stays Ready), MigrationRequested (a cross-ISA migration
 * succeeded and the caller should reschedule onto the other ISA), or
 * a terminal stop (Exited / Halted / Fault / BadInst / SfiViolation).
 */
struct QuantumResult
{
    VmStop reason = VmStop::StepLimit;
    Addr stopPc = 0;
    uint64_t ran = 0;      ///< guest instructions executed this slice
    bool migrated = false; ///< at least one ISA switch this slice
};

/**
 * The dual-ISA protected execution environment.
 *
 * Accounting model: the runtime owns one cumulative HipstrRunSummary
 * (summary()) that accrues across any mix of run() and runQuantum()
 * calls until reset(). run() additionally returns the *delta* summary
 * of just that call, which is what one-shot experiments historically
 * consumed. After a terminal stop (anything but StepLimit /
 * MigrationRequested) the program is finished(); calling run() or
 * runQuantum() again without reset() is a programming error and
 * asserts.
 */
class HipstrRuntime
{
  public:
    HipstrRuntime(const FatBinary &bin, Memory &mem, GuestOs &os,
                  const HipstrConfig &cfg);

    /**
     * Reset guest state to the program entry on the start ISA and
     * clear the cumulative summary. Code caches, RATs, and relocation
     * maps are untouched (a warm restart, as for an httpd worker
     * serving its next request); use PsrVm::reRandomize() on the VMs
     * first for a Section 5.3 respawn.
     */
    void reset();

    /**
     * Run to completion or @p max_guest_insts more instructions,
     * resuming from wherever the previous run()/runQuantum() left
     * off. Returns the delta summary for this call only (its
     * migrationLog is always empty — see summary() for the cumulative
     * ring). Asserts if the program already finished().
     */
    HipstrRunSummary run(uint64_t max_guest_insts);

    /**
     * Run one scheduling quantum of at most @p budget guest
     * instructions, preserving cumulative accounting in summary().
     * With @p stop_after_migration (the default, what a CMP scheduler
     * wants) the slice also ends as soon as a cross-ISA migration
     * succeeds, so the caller can requeue the process onto a core of
     * the other ISA; otherwise migrations are transparent and only
     * the budget or a terminal stop ends the slice.
     * Asserts if the program already finished().
     */
    QuantumResult runQuantum(uint64_t budget,
                             bool stop_after_migration = true);

    /** Cumulative accounting since the last reset(). */
    const HipstrRunSummary &summary() const { return _acc; }

    /** True after a terminal stop; reset() clears it. */
    bool finished() const { return _terminal; }

    /**
     * Clear the finished() latch without touching guest state or
     * accounting. Attack experiments hijack a stopped guest — write
     * a payload, point state.pc at a gadget — and resume it; that
     * deliberate resurrection must be explicit so an accidental
     * run-after-exit still asserts.
     */
    void rearm() { _terminal = false; }

    /**
     * Force one migration at the next migration-safe equivalence
     * point (used by the Figure 12 checkpoint experiment). Runs at
     * most @p search_budget further instructions looking for a safe
     * point. Not reflected in summary() — callers consume the
     * returned MigrationOutcome directly.
     */
    MigrationOutcome forceMigration(uint64_t search_budget = 500'000);

    /**
     * Attach a structured-trace sink: the runtime records quantum
     * spans and migration instants (TraceCategory::Runtime) and both
     * VMs record their own Vm-category events. nullptr detaches.
     */
    void setTraceBuffer(telemetry::TraceBuffer *tb);

    /**
     * Fault injection: force the next cross-ISA transform (security-
     * or phase-triggered) to abort. The engine's failure contract
     * already guarantees nothing was modified, so the rollback to the
     * source-ISA checkpoint is exact: execution continues on the
     * source ISA and the abort is counted in transformAborts (and
     * migrationsDenied). One-shot; cleared by reset().
     */
    void abortNextTransform() { _abortNextTransform = true; }
    bool transformAbortArmed() const { return _abortNextTransform; }

    /**
     * Degraded single-ISA mode: while suspended, security events
     * never request migration (counted in migrationsSuppressed) —
     * the supervisor sets this when an entire ISA's cores are offline
     * and clears it on recovery. Survives reset()/respawn: it models
     * machine state, not program state.
     */
    void setMigrationSuspended(bool s) { _migrationSuspended = s; }
    bool migrationSuspended() const { return _migrationSuspended; }

    /**
     * Retarget the ISA the next reset() (and thus a respawn) starts
     * on. The supervisor uses this to respawn a worker onto the
     * surviving ISA when its home ISA's cores are all offline.
     */
    void setStartIsa(IsaKind isa) { _cfg.startIsa = isa; }

    /**
     * Record/replay seams (src/replay). Both default to nullptr and
     * cost nothing in normal operation — they are consulted only on
     * the cold security-event path, after every cheaper check.
     *
     * coinLog (recording): each diversification coin flip is drawn
     * from the policy RNG exactly as without a recorder, then its
     * outcome is appended — the random stream is unperturbed.
     *
     * coinFeed (replay): flips are consumed from the journal instead
     * of drawn. An exhausted feed latches coinStarved and denies the
     * migration; the replayer checks the latch at the next sync
     * point and reports divergence. @{
     */
    std::vector<uint8_t> *coinLog = nullptr;
    std::deque<uint8_t> *coinFeed = nullptr;
    bool coinStarved = false;
    /** @} */

    /**
     * Checkpoint the runtime: current ISA, policy-RNG position,
     * one-shot latches, cumulative summary, phase accounting, and
     * both VMs (PsrVm::saveState). Restore with the identical
     * HipstrConfig; the caller owns Memory/GuestOs state. @{
     */
    void saveState(ByteWriter &w) const;
    void loadState(ByteReader &r);
    /** @} */

    /**
     * Per-phase profile cumulative since *construction* (unlike
     * summary().phases, which reset() rebases). Survives reset() and
     * reRandomize(), so long-lived worker processes can aggregate it
     * across program generations and respawns.
     */
    telemetry::PhaseBreakdown phaseBreakdown() const;

    PsrVm &vm(IsaKind isa)
    {
        return *_vms[static_cast<size_t>(isa)];
    }
    const PsrVm &vm(IsaKind isa) const
    {
        return *_vms[static_cast<size_t>(isa)];
    }
    IsaKind currentIsa() const { return _current; }
    MigrationEngine &engine() { return _engine; }
    const HipstrConfig &config() const { return _cfg; }

  private:
    PsrVm &cur() { return *_vms[static_cast<size_t>(_current)]; }
    PsrVm &other()
    {
        return *_vms[static_cast<size_t>(otherIsa(_current))];
    }
    void installHook();
    void recordMigration(const MigrationOutcome &mo);
    /** Modeled "now" on the runtime's trace lane. */
    double traceTs() const;
    /** The one checkpoint field list (support/serialize.hh). */
    template <class A>
    void transfer(A &a);

    const FatBinary &_bin;
    Memory &_mem;
    HipstrConfig _cfg;
    std::array<std::unique_ptr<PsrVm>, kNumIsas> _vms;
    MigrationEngine _engine;
    IsaKind _current;
    Rng _policy;
    bool _suppressNextEvent = false;
    bool _abortNextTransform = false;
    bool _migrationSuspended = false;

    HipstrRunSummary _acc; ///< cumulative since reset()
    bool _terminal = false;
    size_t _logNext = 0; ///< ring cursor into _acc.migrationLog

    telemetry::TraceBuffer *_trace = nullptr;
    /** Migration-transform phase, cumulative since construction. */
    telemetry::PhaseStats _transformPhase;
    /** phaseBreakdown() at the last reset(); _acc.phases subtracts. */
    telemetry::PhaseBreakdown _phaseBase;
};

} // namespace hipstr

#endif // HIPSTR_HIPSTR_RUNTIME_HH
