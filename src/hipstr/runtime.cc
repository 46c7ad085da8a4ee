#include "runtime.hh"

#include <algorithm>

#include "migration/safety.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** Map a crashing VmStop onto the FaultInfo taxonomy. */
FaultKind
stopFaultKind(VmStop s)
{
    switch (s) {
      case VmStop::Fault:
        return FaultKind::MemFault;
      case VmStop::BadInst:
        return FaultKind::BadInstruction;
      case VmStop::SfiViolation:
        return FaultKind::SfiViolation;
      default:
        return FaultKind::None;
    }
}

} // anonymous namespace

HipstrRuntime::HipstrRuntime(const FatBinary &bin, Memory &mem,
                             GuestOs &os, const HipstrConfig &cfg)
    : _bin(bin), _mem(mem), _cfg(cfg), _engine(bin, mem),
      _current(cfg.startIsa), _policy(cfg.policySeed)
{
    for (IsaKind isa : kAllIsas) {
        PsrConfig vm_cfg = cfg.psr;
        // Independent randomization streams per ISA.
        vm_cfg.seed = cfg.psr.seed ^
            (isa == IsaKind::Risc ? 0xa5a5a5a5ull : 0x5a5a5a5aull);
        _vms[static_cast<size_t>(isa)] =
            std::make_unique<PsrVm>(bin, isa, mem, os, vm_cfg);
    }
}

void
HipstrRuntime::reset()
{
    _current = _cfg.startIsa;
    cur().reset();
    _acc = HipstrRunSummary{};
    _terminal = false;
    _logNext = 0;
    _suppressNextEvent = false;
    _abortNextTransform = false;
    // _migrationSuspended deliberately survives: it reflects the
    // machine (an ISA's cores are offline), not the program.
    // The new epoch's summary().phases starts from zero; the
    // cumulative phaseBreakdown() keeps running.
    _phaseBase = phaseBreakdown();
}

void
HipstrRuntime::setTraceBuffer(telemetry::TraceBuffer *tb)
{
    _trace = tb;
    for (IsaKind isa : kAllIsas)
        vm(isa).trace = tb;
}

telemetry::PhaseBreakdown
HipstrRuntime::phaseBreakdown() const
{
    using telemetry::Phase;
    telemetry::PhaseBreakdown bd;
    for (IsaKind isa : kAllIsas) {
        const PsrVm &v = vm(isa);
        bd[Phase::Translate] += v.translatePhase;
        bd[Phase::Regalloc] += v.randomizer().regallocPhase;
        bd[Phase::Relocation] += v.randomizer().relocationPhase;
    }
    bd[Phase::MigrationTransform] += _transformPhase;
    return bd;
}

double
HipstrRuntime::traceTs() const
{
    // Guest progress at the nominal trace rate plus the modeled
    // migration stalls of this epoch.
    return double(_acc.totalGuestInsts) /
        telemetry::cost::kGuestInstsPerMicro +
        _acc.migrationMicroseconds;
}

void
HipstrRuntime::installHook()
{
    PsrVm &v = cur();
    IsaKind isa = _current;
    v.securityEventHook = [this, isa](Addr target) {
        if (_suppressNextEvent) {
            _suppressNextEvent = false;
            return false;
        }
        if (!_cfg.migrateOnSecurityEvents)
            return false;
        if (_migrationSuspended) {
            // Degraded single-ISA mode: log and carry on. Checked
            // before the policy roll so suspension does not consume
            // from (and thus desynchronize) the policy RNG stream.
            ++_acc.migrationsSuppressed;
            return false;
        }
        bool flip;
        if (coinFeed != nullptr) {
            // Replay: the flip comes from the journal, not the RNG.
            if (coinFeed->empty()) {
                coinStarved = true;
                return false;
            }
            flip = coinFeed->front() != 0;
            coinFeed->pop_front();
        } else {
            flip = _policy.chance(_cfg.diversificationProbability);
            if (coinLog != nullptr)
                coinLog->push_back(flip ? 1 : 0);
        }
        if (!flip)
            return false;
        if (!isMigrationPoint(_bin, isa, target,
                              MigrationSafety::OnDemandSafe)) {
            ++_acc.migrationsDenied;
            return false;
        }
        return true;
    };
    other().securityEventHook = nullptr;
}

template <class A>
void
HipstrRuntime::transfer(A &a)
{
    std::array<uint64_t, 4> policy = _policy.stateWords();
    // startIsa is configuration, but setStartIsa mutates it.
    a(_current, _cfg.startIsa, policy, _suppressNextEvent,
      _abortNextTransform, _migrationSuspended, _terminal, _logNext);
    // recordMigration() indexes the full ring with the cursor.
    a.check(_logNext < std::max<size_t>(_cfg.migrationLogCap, 1),
            "migration log cursor out of range");
    a(_acc, _transformPhase, _phaseBase);
    for (IsaKind isa : kAllIsas)
        a.object(vm(isa));
    if constexpr (A::kLoading) {
        _policy.setStateWords(policy);
        // The security hook captures `this` state that is all
        // restored above; re-arm it on the restored current ISA.
        installHook();
    }
}

HIPSTR_CHECKPOINT_VIA_TRANSFER(HipstrRuntime)

void
HipstrRuntime::recordMigration(const MigrationOutcome &mo)
{
    ++_acc.migrations;
    _acc.migrationMicroseconds += mo.microseconds;
    _transformPhase.add(mo.valuesMoved, mo.microseconds);
    if (_trace &&
        _trace->enabled(telemetry::TraceCategory::Runtime)) {
        _trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Runtime,
                                    "runtime.migration", traceTs(), 0,
                                    static_cast<uint32_t>(_current))
                .arg("to_isa",
                     static_cast<uint64_t>(otherIsa(_current)))
                .arg("frames", mo.frames)
                .arg("values_moved", mo.valuesMoved)
                .arg("transform_ns",
                     static_cast<uint64_t>(mo.microseconds * 1000.0)));
    }
    const uint32_t cap = _cfg.migrationLogCap;
    if (cap == 0) {
        ++_acc.migrationLogDropped;
        return;
    }
    if (_acc.migrationLog.size() < cap) {
        _acc.migrationLog.push_back(mo);
    } else {
        _acc.migrationLog[_logNext] = mo;
        _logNext = (_logNext + 1) % cap;
        ++_acc.migrationLogDropped;
    }
}

QuantumResult
HipstrRuntime::runQuantum(uint64_t budget, bool stop_after_migration)
{
    hipstr_assert(!_terminal &&
                  "HipstrRuntime: run after terminal stop without "
                  "reset()");
    QuantumResult q;
    // The hooks installed below reference this runtime; clear them on
    // every exit path so a later direct PsrVm::run() by the caller
    // never sees a stale policy hook.
    struct HookGuard
    {
        HipstrRuntime *rt;
        ~HookGuard()
        {
            for (IsaKind isa : kAllIsas)
                rt->vm(isa).securityEventHook = nullptr;
        }
    } guard{ this };

    // On every exit path: refresh the epoch's phase breakdown and
    // close the quantum's trace span.
    struct QuantumScope
    {
        HipstrRuntime *rt;
        QuantumResult *q;
        bool traced;
        double ts0;
        ~QuantumScope()
        {
            rt->_acc.phases =
                rt->phaseBreakdown() - rt->_phaseBase;
            if (traced) {
                rt->_trace->record(
                    telemetry::traceSpan(
                        telemetry::TraceCategory::Runtime,
                        "runtime.quantum", ts0, rt->traceTs() - ts0,
                        0, static_cast<uint32_t>(rt->_current))
                        .arg("ran", q->ran)
                        .arg("migrated", q->migrated ? 1 : 0)
                        .arg("reason",
                             static_cast<uint64_t>(q->reason)));
            }
        }
    } scope{ this, &q,
             _trace != nullptr &&
                 _trace->enabled(telemetry::TraceCategory::Runtime),
             traceTs() };

    while (q.ran < budget) {
        installHook();
        PsrVm &v = cur();
        uint64_t before = v.stats.guestInsts;

        uint64_t slice = budget - q.ran;
        if (_cfg.phaseIntervalInsts > 0)
            slice = std::min(slice, _cfg.phaseIntervalInsts);

        VmRunResult res = v.run(slice);
        uint64_t ran = v.stats.guestInsts - before;
        q.ran += ran;
        _acc.totalGuestInsts += ran;
        _acc.guestInstsPerIsa[static_cast<size_t>(_current)] += ran;

        switch (res.reason) {
          case VmStop::Exited:
          case VmStop::Halted:
          case VmStop::Fault:
          case VmStop::BadInst:
          case VmStop::SfiViolation:
            _terminal = true;
            q.reason = res.reason;
            q.stopPc = res.stopPc;
            _acc.reason = res.reason;
            _acc.stopPc = res.stopPc;
            if (res.crashed()) {
                _acc.fault.kind = stopFaultKind(res.reason);
                _acc.fault.pc = res.stopPc;
                _acc.fault.isa = _current;
                _acc.fault.generation = static_cast<uint32_t>(
                    cur().randomizer().generation());
            }
            return q;

          case VmStop::MigrationRequested: {
            if (_abortNextTransform) {
                // Injected transform failure. MigrationEngine's
                // failure contract modifies nothing, so aborting
                // before the call is an exact rollback to the
                // source-ISA checkpoint; resume like a denied
                // migration.
                _abortNextTransform = false;
                ++_acc.transformAborts;
                ++_acc.migrationsDenied;
                if (_trace && _trace->enabled(
                                  telemetry::TraceCategory::Runtime)) {
                    _trace->record(telemetry::traceInstant(
                        telemetry::TraceCategory::Runtime,
                        "runtime.transform_abort", traceTs(), 0,
                        static_cast<uint32_t>(_current)));
                }
                _suppressNextEvent = true;
                cur().state.pc = res.migrationTarget;
                break;
            }
            MigrationOutcome mo =
                _engine.migrate(cur(), other(), res.migrationTarget);
            if (mo.ok) {
                recordMigration(mo);
                _current = otherIsa(_current);
                q.migrated = true;
                if (stop_after_migration) {
                    q.reason = VmStop::MigrationRequested;
                    q.stopPc = cur().state.pc;
                    _acc.reason = q.reason;
                    _acc.stopPc = q.stopPc;
                    return q;
                }
            } else {
                // Continue on the source ISA; suppress the repeat
                // event the retry will raise for the same target.
                ++_acc.migrationsDenied;
                if (_trace && _trace->enabled(
                                  telemetry::TraceCategory::Runtime)) {
                    _trace->record(
                        telemetry::traceInstant(
                            telemetry::TraceCategory::Runtime,
                            "runtime.migration_denied", traceTs(), 0,
                            static_cast<uint32_t>(_current))
                            .arg("target", res.migrationTarget));
                }
                _suppressNextEvent = true;
                cur().state.pc = res.migrationTarget;
            }
            break;
          }

          case VmStop::StepLimit: {
            if (q.ran >= budget)
                break; // quantum exhausted; fall out of the loop
            // Phase-change boundary: migrate if the current point
            // allows it (performance-driven migration).
            if (_cfg.phaseIntervalInsts > 0 &&
                isMigrationPoint(_bin, _current, cur().state.pc,
                                 MigrationSafety::OnDemandSafe)) {
                if (_migrationSuspended) {
                    ++_acc.migrationsSuppressed;
                    break;
                }
                if (_abortNextTransform) {
                    _abortNextTransform = false;
                    ++_acc.transformAborts;
                    ++_acc.migrationsDenied;
                    if (_trace &&
                        _trace->enabled(
                            telemetry::TraceCategory::Runtime)) {
                        _trace->record(telemetry::traceInstant(
                            telemetry::TraceCategory::Runtime,
                            "runtime.transform_abort", traceTs(), 0,
                            static_cast<uint32_t>(_current)));
                    }
                    break;
                }
                MigrationOutcome mo = _engine.migrate(
                    cur(), other(), cur().state.pc);
                if (mo.ok) {
                    recordMigration(mo);
                    _current = otherIsa(_current);
                    q.migrated = true;
                    if (stop_after_migration) {
                        q.reason = VmStop::MigrationRequested;
                        q.stopPc = cur().state.pc;
                        _acc.reason = q.reason;
                        _acc.stopPc = q.stopPc;
                        return q;
                    }
                }
            }
            break;
          }
        }
    }

    q.reason = VmStop::StepLimit;
    q.stopPc = cur().state.pc;
    _acc.reason = q.reason;
    _acc.stopPc = q.stopPc;
    return q;
}

HipstrRunSummary
HipstrRuntime::run(uint64_t max_guest_insts)
{
    const HipstrRunSummary before = _acc;
    QuantumResult q =
        runQuantum(max_guest_insts, /*stop_after_migration=*/false);

    HipstrRunSummary delta;
    delta.reason = q.reason;
    delta.stopPc = q.stopPc;
    delta.totalGuestInsts =
        _acc.totalGuestInsts - before.totalGuestInsts;
    for (size_t i = 0; i < kNumIsas; ++i)
        delta.guestInstsPerIsa[i] =
            _acc.guestInstsPerIsa[i] - before.guestInstsPerIsa[i];
    delta.migrations = _acc.migrations - before.migrations;
    delta.migrationsDenied =
        _acc.migrationsDenied - before.migrationsDenied;
    delta.migrationsSuppressed =
        _acc.migrationsSuppressed - before.migrationsSuppressed;
    delta.transformAborts =
        _acc.transformAborts - before.transformAborts;
    if (_acc.fault.valid() && !before.fault.valid())
        delta.fault = _acc.fault;
    delta.migrationMicroseconds =
        _acc.migrationMicroseconds - before.migrationMicroseconds;
    delta.migrationLogDropped =
        _acc.migrationLogDropped - before.migrationLogDropped;
    delta.phases = _acc.phases - before.phases;
    return delta;
}

MigrationOutcome
HipstrRuntime::forceMigration(uint64_t search_budget)
{
    MigrationOutcome out;
    out.error = "no migration-safe point found";
    uint64_t spent = 0;
    // Ensure no (possibly stale) security hook interferes.
    for (IsaKind isa : kAllIsas)
        vm(isa).securityEventHook = nullptr;

    while (spent < search_budget) {
        if (isMigrationPoint(_bin, _current, cur().state.pc,
                             MigrationSafety::OnDemandSafe)) {
            MigrationOutcome mo =
                _engine.migrate(cur(), other(), cur().state.pc);
            if (mo.ok) {
                _current = otherIsa(_current);
                return mo;
            }
            out.error = mo.error;
        }
        // Advance a few blocks and retry.
        VmRunResult res = cur().run(64);
        spent += 64;
        if (res.reason != VmStop::StepLimit) {
            out.error = std::string("program stopped: ") +
                vmStopName(res.reason);
            return out;
        }
    }
    return out;
}

} // namespace hipstr
