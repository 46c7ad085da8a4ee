#include "scheduler.hh"

#include <algorithm>

#include "support/logging.hh"

namespace hipstr
{

CmpScheduler::CmpScheduler(const CmpModel &cmp,
                           const SchedulerConfig &cfg)
    : _cmp(cmp), _cfg(cfg)
{
    hipstr_assert(cfg.quantumInsts > 0);
    // Modeled round length, matching ServerReport::modeledSeconds:
    // one quantum on every core through the CMP's aggregate rate.
    double agg = cmp.aggregateInstsPerSecond();
    if (agg > 0) {
        _usPerRound = double(cfg.quantumInsts) *
            double(cmp.totalCores()) / agg * 1e6;
    }
    _coreOfflineUntil.assign(cmp.cores().size(), 0);
}

bool
CmpScheduler::isRetired(const GuestProcess *p) const
{
    return std::find(_retired.begin(), _retired.end(), p) !=
        _retired.end();
}

bool
CmpScheduler::coreOnline(unsigned coreId) const
{
    uint64_t until = _coreOfflineUntil[coreId];
    return until == 0 || _stats.rounds >= until;
}

void
CmpScheduler::notifyReady(GuestProcess *p)
{
    hipstr_assert(p->state() == ProcState::Ready);
    _ready[static_cast<size_t>(p->isa())].push_back(p);
}

void
CmpScheduler::superviseRound(bool traced, double round_ts)
{
    using telemetry::TraceCategory;
    const std::vector<CmpCore> &cores = _cmp.cores();

    if (faultPlan != nullptr) {
        // Advance core outages: recoveries first (a core scheduled to
        // return this round serves this round), then new failures.
        for (const CmpCore &core : cores) {
            uint64_t until = _coreOfflineUntil[core.id];
            if (until != 0 && _stats.rounds >= until) {
                _coreOfflineUntil[core.id] = 0;
                ++_stats.coreRecoveries;
                if (traced) {
                    trace->record(telemetry::traceInstant(
                        TraceCategory::Scheduler, "sched.core_recover",
                        round_ts, 0, core.id));
                }
            }
            if (_coreOfflineUntil[core.id] == 0) {
                uint32_t len = faultPlan->coreOutageAt(
                    core.id, core.isa, _stats.rounds);
                if (len != 0) {
                    _coreOfflineUntil[core.id] = _stats.rounds + len;
                    ++_stats.coreOutages;
                    if (traced) {
                        trace->record(
                            telemetry::traceInstant(
                                TraceCategory::Scheduler,
                                "sched.core_fail", round_ts, 0,
                                core.id)
                                .arg("rounds", len));
                    }
                }
            }
        }

        // Degraded-mode tracking: an ISA is offline when every one of
        // its cores is. Transitions are counted and traced; workers
        // learn about suspension at assignment time.
        for (IsaKind isa : kAllIsas) {
            bool offline = true;
            bool any = false;
            for (const CmpCore &core : cores) {
                if (core.isa != isa)
                    continue;
                any = true;
                if (coreOnline(core.id)) {
                    offline = false;
                    break;
                }
            }
            offline = any && offline;
            const size_t i = static_cast<size_t>(isa);
            if (offline && !_isaOffline[i]) {
                ++_stats.degradedEntries;
                if (traced) {
                    trace->record(telemetry::traceInstant(
                        TraceCategory::Scheduler,
                        "sched.degraded_enter", round_ts, 0,
                        static_cast<uint32_t>(isa)));
                }
            } else if (!offline && _isaOffline[i]) {
                ++_stats.degradedExits;
                if (traced) {
                    trace->record(telemetry::traceInstant(
                        TraceCategory::Scheduler,
                        "sched.degraded_exit", round_ts, 0,
                        static_cast<uint32_t>(isa)));
                }
            }
            _isaOffline[i] = offline;
        }
        if (degraded())
            ++_stats.degradedRounds;

        // Evacuate workers stranded on a dead ISA's queue, in queue
        // order: live cross-ISA migration when a safe transform point
        // is reachable, hard respawn onto the surviving ISA otherwise.
        for (IsaKind isa : kAllIsas) {
            const size_t i = static_cast<size_t>(isa);
            const IsaKind to = otherIsa(isa);
            if (!_isaOffline[i] ||
                _isaOffline[static_cast<size_t>(to)]) {
                continue;
            }
            auto &queue = _ready[i];
            while (!queue.empty()) {
                GuestProcess *p = queue.front();
                queue.pop_front();
                // Retarget the boot ISA too: a mid-service program
                // restart must not snap the worker back onto the dead
                // ISA's queue (it would be evacuated again each
                // round until the outage ends).
                p->setStartIsa(to);
                if (p->relocateToIsa(to)) {
                    ++_stats.reroutes;
                } else {
                    ++_stats.rerouteRespawns;
                    // The hard evacuation respawned the worker with
                    // fresh randomization: its consecutive-crash
                    // streak belongs to the incarnation that was just
                    // lost, and carrying it over would quarantine the
                    // fresh one for crashes it never had.
                    _streak.erase(p->pid());
                }
                if (traced) {
                    trace->record(
                        telemetry::traceInstant(
                            TraceCategory::Scheduler, "sched.reroute",
                            round_ts, p->pid() + 1, 0)
                            .arg("to_isa", static_cast<uint64_t>(to)));
                }
                if (p->state() == ProcState::Ready) {
                    _ready[static_cast<size_t>(p->isa())]
                        .push_back(p);
                }
            }
        }
    }

    // Release convalescents whose round has come, in pid order. A
    // release is a Section 5.3 respawn; if the worker's boot ISA is
    // down it is retargeted at the surviving one first.
    for (auto it = _infirmary.begin(); it != _infirmary.end();) {
        if (it->second.releaseRound > _stats.rounds) {
            ++it;
            continue;
        }
        GuestProcess *p = it->second.p;
        if (degraded()) {
            IsaKind up =
                _isaOffline[0] ? IsaKind::Cisc : IsaKind::Risc;
            p->setStartIsa(up);
        }
        p->respawn();
        ++_stats.respawns;
        ++_stats.recoveries;
        _stats.recoveryRoundsSum +=
            _stats.rounds - it->second.crashRound;
        if (traced) {
            trace->record(
                telemetry::traceInstant(TraceCategory::Scheduler,
                                        "sched.release", round_ts,
                                        p->pid() + 1, 0)
                    .arg("quarantined",
                         it->second.quarantined ? 1 : 0)
                    .arg("rounds",
                         _stats.rounds - it->second.crashRound));
        }
        if (p->state() == ProcState::Ready)
            _ready[static_cast<size_t>(p->isa())].push_back(p);
        it = _infirmary.erase(it);
    }
}

bool
CmpScheduler::superviseCrash(GuestProcess *p, unsigned coreId,
                             double round_ts, bool traced)
{
    using telemetry::TraceCategory;

    if (_cfg.respawnLimit != 0 &&
        p->respawnCount() >= _cfg.respawnLimit) {
        _retired.push_back(p);
        ++_stats.retired;
        _streak.erase(p->pid());
        if (traced) {
            trace->record(telemetry::traceInstant(
                              TraceCategory::Scheduler, "sched.retire",
                              round_ts, p->pid() + 1, coreId)
                              .arg("respawns", p->respawnCount()));
        }
        return false;
    }

    const SupervisorConfig &sup = _cfg.supervisor;
    const uint32_t streak = ++_streak[p->pid()];

    if (sup.quarantineAfter != 0 && streak >= sup.quarantineAfter) {
        // Repeatedly faulting worker: park it long enough for a
        // correlated failure burst to pass, then respawn with fresh
        // randomization and a clean slate.
        _infirmary.emplace(
            p->pid(),
            Convalescent{ p, _stats.rounds,
                          _stats.rounds + sup.quarantineRounds,
                          true });
        ++_stats.quarantines;
        _streak.erase(p->pid());
        if (traced) {
            trace->record(
                telemetry::traceInstant(TraceCategory::Scheduler,
                                        "sched.quarantine", round_ts,
                                        p->pid() + 1, coreId)
                    .arg("streak", streak)
                    .arg("rounds", sup.quarantineRounds));
        }
        return false;
    }

    if (sup.backoffBaseRounds == 0) {
        // Legacy immediate respawn, in the round that saw the crash.
        p->respawn();
        ++_stats.respawns;
        if (traced) {
            trace->record(telemetry::traceInstant(
                              TraceCategory::Scheduler,
                              "sched.respawn", round_ts, p->pid() + 1,
                              coreId)
                              .arg("respawns", p->respawnCount()));
        }
        return true;
    }

    // Saturating base << (streak-1), clamped to the cap. The shift
    // count is unbounded (with quarantine disabled a guest can crash
    // hundreds of times in a row), so a raw shift is UB past 63 and
    // wraps to a *shorter* backoff well before that — saturate
    // instead: once the doubling passes the cap it stays there.
    const uint32_t shift = streak - 1;
    uint64_t backoff = sup.backoffCapRounds;
    if (shift < 64 &&
        (uint64_t(sup.backoffBaseRounds) << shift) >> shift ==
            sup.backoffBaseRounds) {
        backoff = std::min<uint64_t>(
            uint64_t(sup.backoffBaseRounds) << shift,
            sup.backoffCapRounds);
    }
    _infirmary.emplace(
        p->pid(), Convalescent{ p, _stats.rounds,
                                _stats.rounds + backoff, false });
    if (traced) {
        trace->record(telemetry::traceInstant(
                          TraceCategory::Scheduler, "sched.backoff",
                          round_ts, p->pid() + 1, coreId)
                          .arg("streak", streak)
                          .arg("rounds", backoff));
    }
    return false;
}

unsigned
CmpScheduler::round(ThreadPool *pool)
{
    const std::vector<CmpCore> &cores = _cmp.cores();

    using telemetry::TraceCategory;
    const bool traced =
        trace != nullptr && trace->enabled(TraceCategory::Scheduler);
    const double round_ts = double(_stats.rounds) * _usPerRound;

    // Supervision runs only when there is something to supervise, so
    // the fault-free scheduler's rounds are bit-for-bit the legacy
    // ones.
    if (faultPlan != nullptr || !_infirmary.empty())
        superviseRound(traced, round_ts);

    // Assign in fixed core order from the matching ISA queue.
    std::vector<GuestProcess *> assigned(cores.size(), nullptr);
    unsigned n = 0;
    for (const CmpCore &core : cores) {
        if (faultPlan != nullptr && !coreOnline(core.id)) {
            ++_stats.offlineCoreQuanta;
            continue;
        }
        auto &queue = _ready[static_cast<size_t>(core.isa)];
        if (queue.empty()) {
            ++_stats.idleCoreQuanta;
            continue;
        }
        GuestProcess *p = queue.front();
        queue.pop_front();
        // Degraded mode switches cross-ISA protection off (and back
        // on after recovery) at the moment the worker is scheduled.
        if (faultPlan != nullptr)
            p->setMigrationSuspended(degraded());
        assigned[core.id] = p;
        ++n;
    }

    // Run every assigned quantum concurrently: processes share only
    // the immutable FatBinary.
    std::vector<QuantumResult> results(cores.size());
    parallelFor(
        cores.size(),
        [&](size_t i) {
            if (assigned[i] != nullptr)
                results[i] = assigned[i]->runQuantum(_cfg.quantumInsts);
        },
        pool);

    // Merge outcomes in fixed core order so queue contents — and
    // therefore every subsequent scheduling decision — never depend
    // on completion interleaving. Trace events are recorded here, in
    // this sequential section, so their ring order is deterministic.
    for (const CmpCore &core : cores) {
        GuestProcess *p = assigned[core.id];
        if (p == nullptr)
            continue;
        ++_stats.quantaRun;
        const QuantumResult &q = results[core.id];

        if (traced) {
            // The core executes q.ran guest instructions at its own
            // modeled rate; the remainder of the round slot is idle.
            double ips = _cmp.instsPerSecond(core.isa);
            double dur =
                ips > 0 ? double(q.ran) / ips * 1e6 : _usPerRound;
            trace->record(
                telemetry::traceSpan(TraceCategory::Scheduler,
                                     "sched.quantum", round_ts, dur,
                                     p->pid() + 1, core.id)
                    .arg("ran", q.ran)
                    .arg("reason", static_cast<uint64_t>(q.reason))
                    .arg("migrated", q.migrated ? 1 : 0));
        }

        bool respawned = false;
        if (p->state() == ProcState::Crashed) {
            respawned = superviseCrash(p, core.id, round_ts, traced);
        } else if (!_streak.empty()) {
            // A clean quantum ends the consecutive-crash streak. The
            // emptiness guard keeps the legacy path free of per-merge
            // map lookups.
            _streak.erase(p->pid());
        }

        if (p->state() == ProcState::Ready) {
            // Only a quantum that genuinely migrated counts as a
            // security routing decision; the start-ISA affinity a
            // restart or respawn re-establishes does not.
            if (!respawned && p->lastQuantumMigrated()) {
                ++_stats.migrationsRouted;
                if (traced) {
                    trace->record(
                        telemetry::traceInstant(
                            TraceCategory::Scheduler,
                            "sched.route_migration", round_ts,
                            p->pid() + 1, core.id)
                            .arg("to_isa", static_cast<uint64_t>(
                                               p->isa())));
                }
            }
            _ready[static_cast<size_t>(p->isa())].push_back(p);
        }
        // Blocked (service complete, awaiting the next request) and
        // Exited processes leave the scheduler until the server
        // re-submits them via notifyReady().
    }

    ++_stats.rounds;
    return n;
}

bool
CmpScheduler::idle() const
{
    for (const auto &queue : _ready)
        if (!queue.empty())
            return false;
    return true;
}

template <class A>
void
CmpScheduler::transfer(A &a, const PidResolver &resolve)
{
    auto resolveTo = [&](uint32_t pid, GuestProcess *&p) {
        if constexpr (A::kLoading) {
            p = resolve(pid);
            a.check(p != nullptr, "checkpoint names unknown pid");
        }
    };
    auto byPid = [&](GuestProcess *&p) {
        uint32_t pid = A::kLoading ? 0 : p->pid();
        a(pid);
        resolveTo(pid, p);
    };

    a(_stats);
    for (auto &queue : _ready)
        a.seq32(queue, byPid);
    a.seq32(_retired, byPid);
    a.expect(uint32_t(_coreOfflineUntil.size()),
             "checkpoint core count mismatch");
    for (uint64_t &until : _coreOfflineUntil)
        a(until);
    a(_isaOffline);
    a.seq32(_infirmary, [&](auto &kv) {
        a(kv.first, kv.second.crashRound, kv.second.releaseRound,
          kv.second.quarantined);
        resolveTo(kv.first, kv.second.p);
    });
    a.seq32(_streak, [&](auto &kv) { a(kv.first, kv.second); });
}

void
CmpScheduler::saveState(ByteWriter &w) const
{
    SaveArchive a(w);
    const_cast<CmpScheduler *>(this)->transfer(a, nullptr);
}

void
CmpScheduler::loadState(ByteReader &r, const PidResolver &resolve)
{
    LoadArchive a(r);
    transfer(a, resolve);
}

} // namespace hipstr
