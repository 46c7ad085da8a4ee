#include "protected_server.hh"

#include <algorithm>

#include "attack/campaign.hh"
#include "binary/loader.hh"
#include "isa/interp.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** Safety valve against scheduling livelock; generous by orders of
 *  magnitude over any configured stream. */
constexpr uint64_t kMaxRounds = 100'000'000;

} // namespace

Request
drawRequest(const RequestStream &stream, uint64_t id, ServerTap *tap,
            attack::CampaignEngine *campaign, uint32_t homeShard,
            uint64_t session, uint64_t round)
{
    Request r;
    if (tap != nullptr && tap->supplyRequest(id, r))
        return r;
    r = stream.make(id);
    if (campaign != nullptr)
        campaign->rewrite(r, homeShard, session, round);
    if (tap != nullptr)
        tap->requestDrawn(r);
    return r;
}

ProtectedServer::ProtectedServer(const FatBinary &bin,
                                 const ServerConfig &cfg)
    : _bin(bin), _cfg(cfg), _cmp(cfg.cmp), _sched(_cmp, cfg.sched),
      _stream(cfg.seed, cfg.mix, cfg.costs)
{
    hipstr_assert(cfg.workers > 0);
    _sched.trace = cfg.trace;
    const FaultPlan *active = nullptr;
    if (cfg.faultPlanOverride != nullptr) {
        active = cfg.faultPlanOverride;
    } else if (cfg.faults.enabled) {
        _plan = std::make_unique<FaultPlan>(cfg.faults);
        active = _plan.get();
    }
    if (active != nullptr)
        _sched.faultPlan = active;
    uint64_t expected = 0;
    if (cfg.verifyOutput)
        expected = referenceChecksum();

    for (unsigned i = 0; i < cfg.workers; ++i) {
        GuestProcessConfig pcfg;
        pcfg.pid = i;
        pcfg.seed = cfg.seed;
        pcfg.hipstr = cfg.hipstr;
        pcfg.outputCap = cfg.outputCap;
        if (active != nullptr) {
            pcfg.faultPlan = active;
            pcfg.watchdogQuanta = cfg.watchdogQuanta;
        }
        auto proc = std::make_unique<GuestProcess>(bin, pcfg);
        if (cfg.verifyOutput)
            proc->setExpectedChecksum(expected);
        proc->runtime().setTraceBuffer(cfg.trace);
        _workers.push_back(std::move(proc));
    }
}

uint64_t
ProtectedServer::referenceChecksum() const
{
    // One native run on the reference interpreter: the guest's output
    // is ISA-independent (the workloads are self-checking), so one
    // checksum covers every worker on either ISA.
    Memory mem;
    loadFatBinary(_bin, mem);
    GuestOs os;
    Interpreter interp(IsaKind::Cisc, mem, os);
    initMachineState(interp.state, _bin, IsaKind::Cisc);
    RunResult r = interp.run(1'000'000'000);
    if (r.reason != StopReason::Exited && r.reason != StopReason::Halted)
        hipstr_fatal("server reference run did not complete: %s",
                     stopReasonName(r.reason));
    return os.outputChecksum();
}

void
ProtectedServer::beginRun()
{
    ServeState st;
    st.inflight.assign(_workers.size(), InFlight{});
    st.retired.assign(_workers.size(), false);
    st.latencies.reserve(static_cast<size_t>(
        std::min<uint64_t>(_cfg.requestCount, 1 << 20)));

    // Request-lifecycle tracing on the modeled timeline (one round =
    // one quantum per core through the CMP's aggregate rate).
    using telemetry::TraceCategory;
    telemetry::TraceBuffer *tr = _cfg.trace;
    st.traced = tr != nullptr && tr->enabled(TraceCategory::Server);
    double agg = _cmp.aggregateInstsPerSecond();
    if (agg > 0) {
        st.usPerRound = double(_cfg.sched.quantumInsts) *
            double(_cmp.totalCores()) / agg * 1e6;
    }
    st.begun = true;
    _serve = std::move(st);

    // Degraded-mode gauge for dashboards.
    if (_cfg.metrics != nullptr)
        _cfg.metrics->gauge("server.degraded_mode").set(0);
}

bool
ProtectedServer::stepRound(ThreadPool *pool)
{
    ServeState &st = _serve;
    hipstr_assert(st.begun);
    if (st.finished)
        return false;
    if (st.done >= _cfg.requestCount || st.roundNo >= kMaxRounds) {
        st.finished = true;
        return false;
    }

    // Top the intake up to the idle workers: queued retries go first,
    // then fresh stream ids in order — exactly the requests
    // serveRound() assigns this round.
    for (size_t n = st.intake.size(), cap = admissionCapacity();
         n < cap && st.nextId < _cfg.requestCount; ++n) {
        st.intake.push_back(drawRequest(_stream, st.nextId++, _cfg.tap,
                                        _cfg.campaign, _cfg.campaignShard,
                                        0, st.roundNo));
    }
    // Nothing queued, runnable, or parked for later: the run is over.
    if (st.intake.empty() && st.nextId >= _cfg.requestCount &&
        _sched.idle() && !_sched.hasConvalescents()) {
        st.finished = true;
        return false;
    }

    serveRound(pool);

    // A retired worker's request goes back to the head of the intake
    // for another worker.
    for (const Request &r : st.retried)
        st.intake.push_front(r);
    // All workers gone: the remaining stream is unservable.
    if (liveWorkers() == 0) {
        st.report.requestsAbandoned = _cfg.requestCount - st.done;
        st.finished = true;
    }
    if (_cfg.campaign != nullptr)
        _cfg.campaign->commitRound(st.roundNo);
    // The round completed (even if it finished the run) — let a
    // recorder flush its per-round journal records and sync point.
    if (_cfg.tap != nullptr)
        _cfg.tap->roundEnd(st.roundNo, roundSyncSignature());
    return !st.finished;
}

void
ProtectedServer::serveRound(ThreadPool *pool)
{
    ServeState &st = _serve;
    hipstr_assert(st.begun);
    st.completed.clear();
    st.retried.clear();
    if (liveWorkers() == 0)
        return;

    using telemetry::TraceCategory;
    telemetry::TraceBuffer *tr = _cfg.trace;
    const bool traced = st.traced;
    const double us_per_round = st.usPerRound;

    // ---- Assign requests to idle workers in pid order. ----
    for (size_t w = 0; w < _workers.size() && !st.intake.empty(); ++w) {
        GuestProcess &proc = *_workers[w];
        if (st.retired[w] || st.inflight[w].active ||
            proc.state() != ProcState::Blocked) {
            continue;
        }
        Request r = st.intake.front();
        st.intake.pop_front();
        proc.beginService(r.costInsts);
        // Stage the request's payload only on first delivery — a
        // retried request already burned its exploit.
        if (r.retries == 0) {
            if (r.kind == RequestKind::Attack)
                (void)proc.injectAttackProbe(r.id);
            else if (r.kind == RequestKind::Malformed)
                (void)proc.injectCorruption(r.id);
        }
        InFlight f{ r, st.roundNo, true };
        // Staging-time facts for the campaign's compromise oracle and
        // crash detection; cheap and deterministic, so captured
        // unconditionally (checkpoint format stays campaign-free).
        f.assignIsa = proc.isa();
        f.assignGeneration = static_cast<uint32_t>(
            proc.runtime().vm(proc.isa()).randomizer().generation());
        f.assignRespawns = proc.respawnCount();
        st.inflight[w] = f;
        _sched.notifyReady(&proc);
        if (traced) {
            tr->record(
                telemetry::traceInstant(
                    TraceCategory::Server, "server.request.assign",
                    double(st.roundNo) * us_per_round,
                    static_cast<uint32_t>(w) + 1)
                    .arg("id", r.id)
                    .arg("kind", static_cast<uint64_t>(r.kind))
                    .arg("cost_insts", r.costInsts)
                    .arg("retries", r.retries));
        }
    }

    _sched.round(pool);
    ++st.roundNo;

    if (faultPlan() != nullptr) {
        const bool deg = _sched.degraded();
        if (deg != st.wasDegraded) {
            if (_cfg.metrics != nullptr)
                _cfg.metrics->gauge("server.degraded_mode")
                    .set(deg ? 1 : 0);
            if (deg) {
                st.degradedStart = st.roundNo;
            } else if (traced) {
                tr->record(telemetry::traceSpan(
                    TraceCategory::Server, "server.degraded",
                    double(st.degradedStart) * us_per_round,
                    double(st.roundNo - st.degradedStart) *
                        us_per_round,
                    0));
            }
            st.wasDegraded = deg;
        }
    }

    // Tell the campaign what worker w's service attempt looks like
    // from the attacker's seat right now.
    auto observe = [&](size_t w, attack::ProbeSignal signal) {
        const InFlight &f = st.inflight[w];
        attack::ProbeEvent ev;
        ev.id = f.req.id;
        ev.signal = signal;
        ev.shard = _cfg.campaignShard;
        ev.worker = static_cast<uint32_t>(w);
        ev.latencyRounds = st.roundNo - f.startRound;
        ev.payloadDelivered =
            signal == attack::ProbeSignal::Response && f.req.retries == 0;
        ev.isaAtEvent = _workers[w]->isa();
        ev.isaAtAssign = f.assignIsa;
        ev.generationAtAssign = f.assignGeneration;
        _cfg.campaign->observe(ev);
    };

    // ---- Poll outcomes in pid order. ----
    for (size_t w = 0; w < _workers.size(); ++w) {
        GuestProcess &proc = *_workers[w];
        if (!st.inflight[w].active)
            continue;

        if (proc.state() == ProcState::Blocked) {
            // Service complete.
            const Request &r = st.inflight[w].req;
            uint64_t lat = st.roundNo - st.inflight[w].startRound;
            if (_cfg.campaign != nullptr) {
                // A crash the poll loop never saw as a Crashed state
                // (immediate-respawn supervisor configs) still reset
                // the connection: the respawn-count delta says so.
                if (!st.inflight[w].crashSeen &&
                    proc.respawnCount() > st.inflight[w].assignRespawns)
                    observe(w, attack::ProbeSignal::Crash);
                observe(w, attack::ProbeSignal::Response);
            }
            st.latencies.push_back(lat);
            ++st.report.requestsServed;
            ++st.report.servedByKind[static_cast<size_t>(r.kind)];
            fold64(st.sig, r.id);
            fold64(st.sig, static_cast<uint64_t>(r.kind));
            fold64(st.sig, lat);
            fold64(st.sig, static_cast<uint64_t>(w));
            if (traced) {
                tr->record(
                    telemetry::traceSpan(
                        TraceCategory::Server, "server.request",
                        double(st.inflight[w].startRound) *
                            us_per_round,
                        double(lat) * us_per_round,
                        static_cast<uint32_t>(w) + 1)
                        .arg("id", r.id)
                        .arg("kind", static_cast<uint64_t>(r.kind))
                        .arg("latency_rounds", lat));
            }
            st.inflight[w].active = false;
            ++st.done;
            st.completed.push_back(r);
        } else if (proc.state() == ProcState::Crashed) {
            // The campaign sees every crash as a connection reset,
            // exactly once per service attempt (the worker stays
            // Crashed for every round it convalesces).
            if (_cfg.campaign != nullptr && !st.inflight[w].crashSeen) {
                st.inflight[w].crashSeen = true;
                observe(w, attack::ProbeSignal::Crash);
            }
            if (!_sched.isRetired(&proc))
                continue;
            // Still Crashed after the scheduler round *and*
            // permanently retired (a worker merely parked in the
            // supervisor's infirmary keeps its request and will
            // finish it after respawning). The retired worker's
            // request goes back to the feeder for another worker.
            st.retired[w] = true;
            Request r = st.inflight[w].req;
            ++r.retries;
            st.retried.push_back(r);
            st.inflight[w].active = false;
            if (traced) {
                tr->record(
                    telemetry::traceInstant(
                        TraceCategory::Server,
                        "server.request.retry",
                        double(st.roundNo) * us_per_round,
                        static_cast<uint32_t>(w) + 1)
                        .arg("id", r.id)
                        .arg("retries", r.retries));
            }
        }
    }
}

ServerReport
ProtectedServer::finishRun()
{
    ServeState &st = _serve;
    hipstr_assert(st.begun);
    st.finished = true;

    // ---- Aggregate. ----
    ServerReport report = st.report;
    uint64_t sig = st.sig;
    report.rounds = st.roundNo;
    const SchedulerStats &ss = _sched.stats();
    report.migrationsRouted = ss.migrationsRouted;
    report.respawns = ss.respawns;
    report.retiredWorkers = ss.retired;
    report.coreOutages = ss.coreOutages;
    report.coreRecoveries = ss.coreRecoveries;
    report.offlineCoreQuanta = ss.offlineCoreQuanta;
    report.degradedEntries = ss.degradedEntries;
    report.degradedExits = ss.degradedExits;
    report.degradedRounds = ss.degradedRounds;
    report.reroutes = ss.reroutes;
    report.rerouteRespawns = ss.rerouteRespawns;
    report.quarantines = ss.quarantines;
    report.recoveries = ss.recoveries;
    report.meanRoundsToRecover = _sched.meanRoundsToRecover();
    for (const auto &proc : _workers) {
        GuestProcessStats s = proc->stats();
        report.totalGuestInsts += s.guestInsts;
        for (size_t i = 0; i < kNumIsas; ++i)
            report.guestInstsPerIsa[i] += s.guestInstsPerIsa[i];
        report.migrations += s.migrations;
        report.migrationsDenied += s.migrationsDenied;
        report.securityEvents += proc->securityEvents();
        report.crashes += s.crashes;
        report.programsCompleted += s.programsCompleted;
        report.checksumMismatches += s.checksumMismatches;
        report.probesStaged += s.probesStaged;
        report.phases += s.phases;
        for (size_t k = 0; k < kNumFaultKinds; ++k) {
            report.faultsInjected[k] += s.faultsInjected[k];
            report.faultsInjectedTotal += s.faultsInjected[k];
        }
        report.wedgedQuanta += s.wedgedQuanta;
        report.watchdogKills += s.watchdogKills;
        report.transformAborts += s.transformAborts;
        report.migrationsSuppressed += s.migrationsSuppressed;
        report.emergencyRelocations += s.emergencyRelocations;
        fold64(sig, proc->statsSignature());
    }

    if (faultPlan() != nullptr && _cfg.metrics != nullptr) {
        telemetry::MetricRegistry &m = *_cfg.metrics;
        for (size_t k = 1; k < kNumFaultKinds; ++k) {
            m.counter(std::string("server.fault.") +
                      faultKindName(static_cast<FaultKind>(k)))
                .set(report.faultsInjected[k]);
        }
        m.counter("server.fault.total").set(report.faultsInjectedTotal);
        m.counter("server.fault.wedged_quanta").set(report.wedgedQuanta);
        m.counter("server.fault.watchdog_kills")
            .set(report.watchdogKills);
        m.counter("server.fault.transform_aborts")
            .set(report.transformAborts);
        m.counter("server.fault.migrations_suppressed")
            .set(report.migrationsSuppressed);
        m.counter("server.fault.emergency_relocations")
            .set(report.emergencyRelocations);
        m.counter("server.fault.core_outages").set(report.coreOutages);
        m.counter("server.fault.core_recoveries")
            .set(report.coreRecoveries);
        m.counter("server.fault.offline_core_quanta")
            .set(report.offlineCoreQuanta);
        m.counter("server.fault.degraded_entries")
            .set(report.degradedEntries);
        m.counter("server.fault.degraded_exits")
            .set(report.degradedExits);
        m.counter("server.fault.degraded_rounds")
            .set(report.degradedRounds);
        m.counter("server.fault.reroutes").set(report.reroutes);
        m.counter("server.fault.reroute_respawns")
            .set(report.rerouteRespawns);
        m.counter("server.fault.quarantines").set(report.quarantines);
        m.counter("server.fault.recoveries").set(report.recoveries);
        m.gauge("server.fault.mean_rounds_to_recover")
            .set(report.meanRoundsToRecover);
    }

    if (!st.latencies.empty()) {
        std::vector<uint64_t> sorted = st.latencies;
        std::sort(sorted.begin(), sorted.end());
        double sum = 0;
        for (uint64_t l : sorted)
            sum += double(l);
        report.latency.meanRounds = sum / double(sorted.size());
        report.latency.p50Rounds = sorted[sorted.size() / 2];
        report.latency.p95Rounds =
            sorted[std::min(sorted.size() - 1,
                            sorted.size() * 95 / 100)];
        report.latency.maxRounds = sorted.back();
    }

    // Modeled time: every round advances the machine by one quantum
    // on each core; the CMP's aggregate rate converts that to
    // seconds. Purely configuration-derived — no host clock touches
    // the report.
    double agg = _cmp.aggregateInstsPerSecond();
    if (agg > 0) {
        report.modeledSeconds =
            double(report.rounds) *
            double(_cfg.sched.quantumInsts) *
            double(_cmp.totalCores()) / agg;
        if (report.modeledSeconds > 0) {
            report.requestsPerModeledSecond =
                double(report.requestsServed) /
                report.modeledSeconds;
        }
    }

    report.signature = sig;
    return report;
}

ServerReport
ProtectedServer::run(ThreadPool *pool)
{
    beginRun();
    while (stepRound(pool)) {
    }
    return finishRun();
}

void
ProtectedServer::submit(const Request &r)
{
    hipstr_assert(_serve.begun);
    _serve.intake.push_back(r);
}

unsigned
ProtectedServer::admissionCapacity() const
{
    const ServeState &st = _serve;
    hipstr_assert(st.begun);
    unsigned n = 0;
    for (size_t w = 0; w < _workers.size(); ++w) {
        if (!st.retired[w] && !st.inflight[w].active &&
            _workers[w]->state() == ProcState::Blocked) {
            ++n;
        }
    }
    return n;
}

unsigned
ProtectedServer::liveWorkers() const
{
    const ServeState &st = _serve;
    hipstr_assert(st.begun);
    unsigned n = 0;
    for (size_t w = 0; w < _workers.size(); ++w)
        n += st.retired[w] ? 0 : 1;
    return n;
}

uint64_t
ProtectedServer::roundSyncSignature() const
{
    uint64_t h = kFnvBasis;
    fold64(h, _serve.roundNo);
    fold64(h, _serve.done);
    fold64(h, _serve.nextId);
    for (const auto &proc : _workers)
        fold64(h, proc->statsSignature());
    return h;
}

template <class A>
void
ProtectedServer::transfer(A &a)
{
    auto &[report, inflight, retired, intake, completed, retried, nextId,
           latencies, sig, roundNo, done, wasDegraded, degradedStart,
           finished, begun, traced, usPerRound] = _serve;
    // The last round's outcomes are consumed within it; the rest is
    // fixed by beginRun().
    notCheckpointed(completed, retried, begun, traced, usPerRound);
    hipstr_assert(begun);
    a.expect(uint32_t(_workers.size()), "checkpoint worker count mismatch");

    if constexpr (A::kLoading) {
        report = ServerReport{};
        inflight.assign(_workers.size(), InFlight{});
        retired.assign(_workers.size(), false);
    }
    a(report.requestsServed, report.requestsAbandoned,
      report.servedByKind);
    for (InFlight &f : inflight) {
        auto &[req, startRound, active, assignIsa, assignGeneration,
               assignRespawns, crashSeen] = f;
        a(req, startRound, active, assignIsa, assignGeneration,
          assignRespawns, crashSeen);
    }
    for (size_t i = 0; i < retired.size(); ++i) {
        bool r = retired[i];
        a(r);
        if constexpr (A::kLoading)
            retired[i] = r;
    }
    a.seq32(intake);
    a(nextId);
    a.seq64(latencies);
    a(sig, roundNo, done, wasDegraded, degradedStart, finished);

    a.object(_sched, [this](uint32_t pid) {
        return pid < _workers.size() ? _workers[pid].get() : nullptr;
    });
    for (auto &proc : _workers)
        a.object(*proc);
}

void
ProtectedServer::saveCheckpoint(ByteWriter &w) const
{
    SaveArchive a(w);
    const_cast<ProtectedServer *>(this)->transfer(a);
}

void
ProtectedServer::loadCheckpoint(ByteReader &r)
{
    LoadArchive a(r);
    transfer(a);
}

} // namespace hipstr
