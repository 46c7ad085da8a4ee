/**
 * @file
 * One protected worker process of the multi-tenant server: a private
 * guest address space, guest OS, and dual-ISA HipstrRuntime, plus the
 * lifecycle the paper's deployment story requires — timesliced
 * execution, crash detection, and Section 5.3 respawn with fresh
 * randomization.
 */

#ifndef HIPSTR_SERVER_GUEST_PROCESS_HH
#define HIPSTR_SERVER_GUEST_PROCESS_HH

#include <array>
#include <memory>

#include "binary/fatbin.hh"
#include "fault/plan.hh"
#include "hipstr/runtime.hh"
#include "isa/guest_os.hh"
#include "isa/memory.hh"

namespace hipstr
{

/** Scheduler-visible lifecycle state of a worker process. */
enum class ProcState : uint8_t
{
    Ready,   ///< has service budget; runnable on a core of isa()
    Running, ///< currently executing a quantum on some core
    Blocked, ///< idle: waiting for the server to assign a request
    Crashed, ///< terminal crash; awaiting respawn (or retirement)
    Exited   ///< guest exited and restart-on-exit is disabled
};

const char *procStateName(ProcState s);

/** Range bound for checkpoint loads (support/serialize.hh). */
constexpr ProcState
lastEnumerator(ProcState)
{
    return ProcState::Exited;
}

/** Per-process configuration. */
struct GuestProcessConfig
{
    uint32_t pid = 0;

    /**
     * Server-wide seed. The process's PSR and policy seeds are
     * derived from (seed, pid) through SplitMix64; each respawn then
     * advances every VM's randomizer generation, so the effective
     * randomization is a pure function of (seed, pid, respawn count)
     * — the determinism contract the paper's Section 5.3 respawn
     * experiments rely on.
     */
    uint64_t seed = 0x5eed;

    /** Runtime template; seeds and (optionally) startIsa are derived. */
    HipstrConfig hipstr;

    /**
     * Alternate the start ISA by pid parity so a fresh worker pool
     * loads both core types evenly. Disable to honour
     * hipstr.startIsa for every pid (scheduler unit tests do).
     */
    bool alternateStartIsa = true;

    /** A finished guest program restarts to keep serving (httpd). */
    bool restartOnExit = true;

    /** Retained-output cap handed to GuestOs::setOutputCap(). */
    size_t outputCap = 4096;

    /**
     * Deterministic fault plan (src/fault), or nullptr for the
     * fault-free server. When set, every quantum consults the plan —
     * keyed on (pid, per-process quantum serial) so the schedule is
     * independent of host threading — and may have a transient fault
     * staged before it runs. nullptr leaves all hot paths untouched.
     */
    const FaultPlan *faultPlan = nullptr;

    /**
     * Watchdog: a worker wedged (burning timeslices without retiring
     * a single instruction) for this many consecutive quanta is killed
     * (Crashed with FaultKind::Watchdog) so the supervisor can respawn
     * it. 0 disables — a wedge then lasts its scheduled length.
     */
    uint32_t watchdogQuanta = 0;
};

/** Cumulative per-process accounting across restarts and respawns. */
struct GuestProcessStats
{
    uint64_t guestInsts = 0;
    std::array<uint64_t, kNumIsas> guestInstsPerIsa{};
    uint64_t quanta = 0;             ///< runQuantum() calls
    uint32_t migrations = 0;
    uint32_t migrationsDenied = 0;
    uint32_t crashes = 0;
    uint32_t respawns = 0;
    uint32_t programsCompleted = 0;  ///< clean guest exits
    uint32_t checksumMismatches = 0; ///< untainted run, wrong output
    uint32_t probesStaged = 0;       ///< attack/corruption injections
    /** Output bytes across all program generations (retention-free). */
    uint64_t outputBytes = 0;
    /** Faults staged by the fault plan, by FaultKind. */
    std::array<uint64_t, kNumFaultKinds> faultsInjected{};
    uint64_t wedgedQuanta = 0;   ///< quanta burned by a wedge
    uint32_t watchdogKills = 0;  ///< wedges the watchdog terminated
    uint32_t transformAborts = 0;
    uint32_t migrationsSuppressed = 0; ///< degraded-mode events
    /** Successful forced evacuations off a failed ISA. */
    uint32_t emergencyRelocations = 0;
    /**
     * Per-phase profile (translate / regalloc / relocation /
     * migration-transform), cumulative across restarts and respawns
     * (sourced from HipstrRuntime::phaseBreakdown(), which survives
     * runtime resets). Not folded into statsSignature() — the
     * signature covers scheduling-visible outcomes only.
     */
    telemetry::PhaseBreakdown phases;
};

/** Checkpoint field list (support/serialize.hh). */
template <class A>
void
transfer(A &a, GuestProcessStats &s)
{
    auto &[guestInsts, guestInstsPerIsa, quanta, migrations,
           migrationsDenied, crashes, respawns, programsCompleted,
           checksumMismatches, probesStaged, outputBytes, faultsInjected,
           wedgedQuanta, watchdogKills, transformAborts,
           migrationsSuppressed, emergencyRelocations, phases] = s;
    // stats() recomputes phases from the runtime on every call.
    notCheckpointed(phases);
    a(guestInsts, guestInstsPerIsa, quanta, migrations, migrationsDenied,
      crashes, respawns, programsCompleted, checksumMismatches,
      probesStaged, outputBytes, faultsInjected, wedgedQuanta,
      watchdogKills, transformAborts, migrationsSuppressed,
      emergencyRelocations);
}

/**
 * A worker process. All mutable state (Memory, GuestOs, the two PSR
 * VMs) is private to the process, so distinct processes may run
 * concurrently on different host threads; only the immutable
 * FatBinary is shared.
 *
 * Service model: the server assigns a request as an instruction
 * budget (beginService). The guest program is an httpd-style daemon;
 * when it exits cleanly mid-service it is transparently restarted
 * (warm caches, same randomization), so a request's cost may span
 * program generations. A crash instead marks the process Crashed and
 * only respawn() — fresh randomization, wiped address space — makes
 * it runnable again.
 */
class GuestProcess
{
  public:
    GuestProcess(const FatBinary &bin, const GuestProcessConfig &cfg);

    uint32_t pid() const { return _cfg.pid; }
    ProcState state() const { return _state; }

    /** ISA affinity: the core type the next quantum must run on. */
    IsaKind isa() const { return _runtime->currentIsa(); }

    /** Respawn generation (0 until the first crash respawn). */
    uint32_t respawnCount() const { return _stats.respawns; }

    /**
     * True when the most recent quantum ended in a successful
     * cross-ISA migration — the scheduler's cue that the requeue onto
     * the other queue is a security migration rather than a start-ISA
     * affinity after a restart or respawn.
     */
    bool lastQuantumMigrated() const { return _lastMigrated; }

    /**
     * Expected GuestOs output checksum of one complete, unmolested
     * program run; when set, every untainted clean exit is verified
     * against it (checksumMismatches counts failures).
     */
    void setExpectedChecksum(uint64_t sum)
    {
        _expectedChecksum = sum;
        _haveExpected = true;
    }

    /** Assign a request: @p insts of service budget. Blocked→Ready. */
    void beginService(uint64_t insts);
    uint64_t serviceRemaining() const { return _serviceRemaining; }

    /**
     * Run one quantum of at most @p maxInsts guest instructions
     * (clipped to the remaining service budget) and update the
     * lifecycle state:
     *  - StepLimit, budget left        → Ready
     *  - StepLimit, service complete   → Blocked
     *  - MigrationRequested            → Ready on the *other* ISA
     *  - clean exit (restartOnExit)    → program restarted; Ready or
     *                                    Blocked by remaining budget
     *  - crash                         → Crashed
     * @pre state() == Ready
     */
    QuantumResult runQuantum(uint64_t maxInsts);

    /**
     * Section 5.3 respawn after a crash: wipe the data/heap/stack
     * image, reload the fat binary, reset the guest OS, re-randomize
     * both PSR VMs (fresh relocation maps, flushed code caches), and
     * restart the program. Service budget carries over — the fresh
     * worker keeps serving the interrupted request.
     * @pre state() == Crashed
     */
    void respawn();

    /**
     * Stage an attack request: a ROP-style stack hijack that makes
     * the next quantum pop a cold, migration-safe code address — the
     * indirect-transfer cache miss HIPStR treats as a security event,
     * eligible for a genuine cross-ISA migration. Deterministic in
     * (@p nonce, current VM state). Returns false if no suitable
     * gadget/target exists (the request then runs clean).
     */
    bool injectAttackProbe(uint64_t nonce);

    /**
     * Stage a malformed request: the hijacked return targets the VM
     * code cache, which the Section 5.1 SFI rules punish with
     * immediate process termination (SfiViolation) — the crash that
     * exercises the respawn path.
     */
    bool injectCorruption(uint64_t nonce);

    /**
     * Why the process most recently crashed (FaultKind::None if it
     * never has). Injected faults are attributed to their injection
     * kind — a crash from an armed decode fault reports DecodeFault,
     * not the raw BadInst the VM observed.
     */
    const FaultInfo &lastFault() const { return _lastFault; }

    /**
     * Emergency evacuation off a failing ISA (degraded-mode reroute):
     * force-migrate to @p target at the next safe point. If no safe
     * transform point exists within @p search_budget the process is
     * instead hard-respawned (Section 5.3 semantics) directly onto
     * @p target — state is lost but the service budget carries over.
     * Returns true for a live migration, false for the respawn path.
     */
    bool relocateToIsa(IsaKind target,
                       uint64_t search_budget = 200'000);

    /** Retarget the ISA future respawns/restarts boot on. */
    void setStartIsa(IsaKind isa) { _runtime->setStartIsa(isa); }

    /** Degraded single-ISA mode (forwarded to the runtime). @{ */
    void setMigrationSuspended(bool s)
    {
        _runtime->setMigrationSuspended(s);
    }
    bool migrationSuspended() const
    {
        return _runtime->migrationSuspended();
    }
    /** @} */

    /**
     * Checkpoint the complete process: lifecycle state, service
     * budget, cumulative stats, fault bookkeeping, guest OS (with
     * retained-output checksum), the dual-ISA runtime, and the
     * data/heap/stack memory image ([kDataBase, kStackTop), zero
     * pages skipped). Restore into a process constructed from the
     * identical (FatBinary, GuestProcessConfig); the restored guest
     * continues byte-identically while its translation caches
     * rebuild cold. May not be called mid-quantum. @{
     */
    void saveState(ByteWriter &w) const;
    void loadState(ByteReader &r);
    /** @} */

    /** Cumulative stats, including the live (un-reset) runtime epoch. */
    GuestProcessStats stats() const;

    /** Security events observed by both VMs (never reset). */
    uint64_t securityEvents() const;

    /** FNV-1a fold of the stats a determinism check should cover. */
    uint64_t statsSignature() const;

    HipstrRuntime &runtime() { return *_runtime; }
    GuestOs &os() { return _os; }
    Memory &mem() { return _mem; }

  private:
    /** Warm restart after a clean exit: same randomization. */
    void restartProgram();
    /** The wipe/reload/re-randomize core of respawn(). */
    void respawnImage();
    /** Apply one scheduled fault before the quantum runs. */
    void stageInjectedFault(const QuantumFault &f);
    /** Accrue the runtime's summary into _stats (before a reset). */
    void foldSummary();
    /** Stage a return-to-@p target hijack in the current VM. */
    bool stageHijack(Addr target, bool build_frame,
                     uint32_t frame_func);
    /** First Ret instruction of @p fi's code, or 0. */
    Addr findRetAddr(const FuncInfo &fi) const;
    /** The one checkpoint field list (support/serialize.hh). */
    template <class A>
    void transfer(A &a);

    const FatBinary &_bin;
    GuestProcessConfig _cfg;
    Memory _mem;
    GuestOs _os;
    std::unique_ptr<HipstrRuntime> _runtime;

    ProcState _state = ProcState::Blocked;
    uint64_t _serviceRemaining = 0;
    bool _lastMigrated = false;
    bool _tainted = false; ///< this program run was attacked
    uint64_t _expectedChecksum = 0;
    bool _haveExpected = false;
    GuestProcessStats _stats;

    /** Quanta started by this process, ever — the fault-plan key. */
    uint64_t _quantumSerial = 0;
    uint32_t _wedgeRemaining = 0; ///< quanta left in the active wedge
    uint32_t _wedgeStreak = 0;    ///< consecutive wedged quanta seen
    FaultInfo _lastFault;
    /** Injected kind awaiting attribution at the next crash. */
    FaultKind _pendingKind = FaultKind::None;
};

} // namespace hipstr

#endif // HIPSTR_SERVER_GUEST_PROCESS_HH
