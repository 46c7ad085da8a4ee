#include "record_replay.hh"

#include <deque>

#include "support/logging.hh"

namespace hipstr
{
namespace replay
{

namespace
{

void
writeRequest(ByteWriter &w, const Request &r)
{
    w.u64(r.id);
    w.u8(static_cast<uint8_t>(r.kind));
    w.u64(r.costInsts);
    w.u32(r.retries);
}

} // namespace

// ---------------------------------------------------------------
// Fault-plan decorators.
// ---------------------------------------------------------------

RecordingFaultPlan::RecordingFaultPlan(const FaultPlanConfig &cfg,
                                       unsigned workers)
    : FaultPlan(cfg), _faultLog(workers)
{
}

QuantumFault
RecordingFaultPlan::quantumFault(uint32_t pid, uint64_t serial) const
{
    QuantumFault f = FaultPlan::quantumFault(pid, serial);
    if (f.kind != FaultKind::None && pid < _faultLog.size())
        _faultLog[pid].push_back(FaultRec{ pid, serial, f });
    return f;
}

uint32_t
RecordingFaultPlan::coreOutageAt(unsigned coreId, IsaKind isa,
                                 uint64_t round) const
{
    uint32_t len = FaultPlan::coreOutageAt(coreId, isa, round);
    if (len != 0)
        _outageLog.push_back(OutageRec{ coreId, isa, round, len });
    return len;
}

void
RecordingFaultPlan::drain(std::vector<FaultRec> &faults,
                          std::vector<OutageRec> &outages) const
{
    faults.clear();
    outages.clear();
    for (auto &perPid : _faultLog) {
        faults.insert(faults.end(), perPid.begin(), perPid.end());
        perPid.clear();
    }
    outages.swap(_outageLog);
}

ReplayFaultPlan::ReplayFaultPlan(const FaultPlanConfig &cfg,
                                 const Journal &j)
    : FaultPlan(cfg), _journal(j)
{
}

QuantumFault
ReplayFaultPlan::quantumFault(uint32_t pid, uint64_t serial) const
{
    auto it = _journal.faults.find({ pid, serial });
    return it == _journal.faults.end() ? QuantumFault{} : it->second;
}

uint32_t
ReplayFaultPlan::coreOutageAt(unsigned coreId, IsaKind isa,
                              uint64_t round) const
{
    (void)isa;
    auto it = _journal.outages.find({ coreId, round });
    return it == _journal.outages.end() ? 0 : it->second;
}

// ---------------------------------------------------------------
// Config hashing.
// ---------------------------------------------------------------

uint64_t
serverConfigHash(const ServerConfig &cfg)
{
    // Serialize every behavioural knob, then FNV-1a the bytes.
    // Observer pointers (trace, metrics, tap, faultPlanOverride) are
    // deliberately excluded: they change what is observed, not what
    // happens.
    ByteWriter w;
    w.u32(cfg.workers);
    w.u32(cfg.cmp.riscCores);
    w.u32(cfg.cmp.ciscCores);
    w.u64(cfg.sched.quantumInsts);
    w.u32(cfg.sched.respawnLimit);
    w.u32(cfg.sched.supervisor.backoffBaseRounds);
    w.u32(cfg.sched.supervisor.backoffCapRounds);
    w.u32(cfg.sched.supervisor.quarantineAfter);
    w.u32(cfg.sched.supervisor.quarantineRounds);
    w.u64(cfg.requestCount);
    w.u64(cfg.seed);
    w.f64(cfg.mix.dynamicFrac);
    w.f64(cfg.mix.postFrac);
    w.f64(cfg.mix.malformedFrac);
    w.f64(cfg.mix.attackFrac);
    w.u64(cfg.costs.staticInsts);
    w.u64(cfg.costs.dynamicInsts);
    w.u64(cfg.costs.postInsts);
    w.u64(cfg.costs.malformedInsts);
    w.u64(cfg.costs.attackInsts);
    const PsrConfig &p = cfg.hipstr.psr;
    w.u32(p.optLevel);
    w.u32(p.randSpaceBytes);
    w.boolean(p.randomizeCallingConvention);
    w.boolean(p.randomizeRegisters);
    w.boolean(p.relocateRegsToMemory);
    w.boolean(p.randomizeSlots);
    w.u32(p.codeCacheBytes);
    w.u32(p.ratEntries);
    w.u32(p.regCacheEntries);
    w.u32(p.maxSuperblockBlocks);
    w.u32(p.traceHotThreshold);
    w.u32(p.traceMaxBlocks);
    w.boolean(p.isomeronMode);
    w.u64(p.seed);
    w.f64(cfg.hipstr.diversificationProbability);
    w.boolean(cfg.hipstr.migrateOnSecurityEvents);
    w.u64(cfg.hipstr.phaseIntervalInsts);
    w.u32(cfg.hipstr.migrationLogCap);
    w.u8(static_cast<uint8_t>(cfg.hipstr.startIsa));
    w.u64(cfg.hipstr.policySeed);
    w.u64(cfg.outputCap);
    w.boolean(cfg.verifyOutput);
    w.boolean(cfg.faults.enabled);
    w.u64(cfg.faults.seed);
    w.f64(cfg.faults.quantumFaultRate);
    w.f64(cfg.faults.coreFailRate);
    w.u32(cfg.faults.outageRoundsMin);
    w.u32(cfg.faults.outageRoundsMax);
    w.u32(cfg.faults.wedgeQuantaMin);
    w.u32(cfg.faults.wedgeQuantaMax);
    w.u8(static_cast<uint8_t>(cfg.faults.scriptedOutageIsa));
    w.u64(cfg.faults.scriptedOutageRound);
    w.u32(cfg.faults.scriptedOutageRounds);
    w.u32(cfg.watchdogQuanta);
    // Shard mode changes the serve loop (no stream draws, external
    // intake) even though the callbacks themselves are output-only.
    w.boolean(cfg.shardMode);

    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t b : w.data()) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------

namespace
{

/** The recorder tap: buffers one round's draws and flushes every
 *  journaled stream at the round boundary, in a fixed order. */
class Recorder : public ServerTap
{
  public:
    Recorder(JournalWriter &out, const RecordingFaultPlan *plan,
             unsigned workers, uint64_t checkpointEvery)
        : coinLogs(workers), _out(out), _plan(plan),
          _every(checkpointEvery)
    {
    }

    void
    requestDrawn(const Request &r) override
    {
        ++requestsDrawn;
        _draws.push_back(r);
    }

    void
    roundEnd(uint64_t round, uint64_t sig) override
    {
        for (const Request &r : _draws) {
            ByteWriter w;
            writeRequest(w, r);
            _out.record(RecordTag::Request, w);
        }
        _draws.clear();
        if (_plan != nullptr) {
            std::vector<RecordingFaultPlan::FaultRec> fs;
            std::vector<RecordingFaultPlan::OutageRec> os;
            _plan->drain(fs, os);
            for (const auto &f : fs) {
                ByteWriter w;
                w.u32(f.pid);
                w.u64(f.serial);
                w.u8(static_cast<uint8_t>(f.fault.kind));
                w.u64(f.fault.payload);
                _out.record(RecordTag::Fault, w);
            }
            for (const auto &o : os) {
                ByteWriter w;
                w.u32(o.coreId);
                w.u8(static_cast<uint8_t>(o.isa));
                w.u64(o.round);
                w.u32(o.len);
                _out.record(RecordTag::Outage, w);
            }
        }
        for (size_t pid = 0; pid < coinLogs.size(); ++pid) {
            for (uint8_t flip : coinLogs[pid]) {
                ByteWriter w;
                w.u32(uint32_t(pid));
                w.u8(flip);
                _out.record(RecordTag::Coin, w);
            }
            coinLogs[pid].clear();
        }
        {
            ByteWriter w;
            w.u64(round);
            w.u64(sig);
            _out.record(RecordTag::Sync, w);
        }
        if (server != nullptr && _every != 0 && round % _every == 0) {
            ByteWriter cp;
            server->saveCheckpoint(cp);
            ByteWriter w;
            w.u64(round);
            w.u32(uint32_t(cp.size()));
            w.bytes(cp.data().data(), cp.size());
            _out.record(RecordTag::Checkpoint, w);
            ++checkpoints;
        }
    }

    /** Wired after construction (the server's config needs the tap
     *  pointer before the server exists). */
    ProtectedServer *server = nullptr;
    /** Per-worker coin capture, wired into each runtime's coinLog. */
    std::vector<std::vector<uint8_t>> coinLogs;
    uint64_t requestsDrawn = 0;
    uint64_t checkpoints = 0;

  private:
    JournalWriter &_out;
    const RecordingFaultPlan *_plan;
    std::vector<Request> _draws;
    uint64_t _every;
};

} // namespace

RecordResult
recordRun(const FatBinary &bin, const ServerConfig &cfg,
          const std::string &path, ThreadPool *pool,
          const RecordOptions &opts)
{
    JournalWriter out(path, serverConfigHash(cfg));

    ServerConfig rcfg = cfg;
    std::unique_ptr<RecordingFaultPlan> rplan;
    if (cfg.faults.enabled) {
        rplan = std::make_unique<RecordingFaultPlan>(cfg.faults,
                                                     cfg.workers);
        rcfg.faultPlanOverride = rplan.get();
    }
    Recorder rec(out, rplan.get(), cfg.workers,
                 opts.checkpointEveryRounds);
    rcfg.tap = &rec;

    ProtectedServer srv(bin, rcfg);
    rec.server = &srv;
    for (unsigned i = 0; i < cfg.workers; ++i)
        srv.worker(i).runtime().coinLog = &rec.coinLogs[i];

    ServerReport report = srv.run(pool);

    ByteWriter end;
    end.u64(report.rounds);
    end.u64(report.signature);
    end.u64(report.requestsServed);
    out.record(RecordTag::End, end);
    out.close();

    RecordResult res;
    res.report = report;
    res.rounds = report.rounds;
    res.journalBytes = out.bytesWritten();
    res.requestsDrawn = rec.requestsDrawn;
    res.checkpoints = rec.checkpoints;
    return res;
}

// ---------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------

namespace
{

/** The replayer tap: requests answer from the journal; every round
 *  signature is compared and the first mismatch latched. */
class Replayer : public ServerTap
{
  public:
    explicit Replayer(const Journal &j) : _j(j) {}

    bool
    supplyRequest(uint64_t id, Request &req) override
    {
        auto it = _j.requests.find(id);
        if (it == _j.requests.end())
            return false;
        req = it->second;
        return true;
    }

    void
    roundEnd(uint64_t round, uint64_t sig) override
    {
        if (diverged)
            return;
        auto it = _j.rounds.find(round);
        if (it == _j.rounds.end()) {
            diverged = true;
            message = "replay reached round " +
                std::to_string(round) +
                " which the recording never ran";
            return;
        }
        ++syncChecks;
        if (it->second.syncSig != sig) {
            diverged = true;
            message = "sync signature mismatch at round " +
                std::to_string(round);
        }
    }

    bool diverged = false;
    std::string message;
    uint64_t syncChecks = 0;

  private:
    const Journal &_j;
};

ReplayResult
drive(const FatBinary &bin, const ServerConfig &cfg,
      const std::string &path, uint64_t fromRound, ThreadPool *pool)
{
    Journal j = parseJournal(path);
    if (j.configHash != serverConfigHash(cfg)) {
        throw ReplayError(ReplayErrc::ConfigMismatch,
                          "journal was recorded under a different "
                          "server configuration");
    }

    ServerConfig rcfg = cfg;
    // The journal already carries every campaign rewrite; replaying
    // with a live engine attached would double-feed it observations.
    rcfg.campaign = nullptr;
    std::unique_ptr<ReplayFaultPlan> rplan;
    if (cfg.faults.enabled) {
        rplan = std::make_unique<ReplayFaultPlan>(cfg.faults, j);
        rcfg.faultPlanOverride = rplan.get();
    }
    Replayer tap(j);
    rcfg.tap = &tap;

    ProtectedServer srv(bin, rcfg);
    srv.beginRun();

    uint64_t start = 0;
    if (fromRound > 0) {
        uint64_t cp = j.checkpointAtOrBefore(fromRound);
        if (cp != 0) {
            try {
                ByteReader r(j.rounds.at(cp).checkpoint);
                srv.loadCheckpoint(r);
            } catch (const SerializeError &e) {
                throw ReplayError(ReplayErrc::Corrupt,
                                  std::string("checkpoint unusable: ") +
                                      e.what());
            }
            start = cp;
        }
    }

    // Feed each worker the coin flips of every round past the start
    // point, in journal order. Feeds are per-worker, so concurrent
    // quanta never share one.
    std::vector<std::deque<uint8_t>> feeds(cfg.workers);
    for (const auto &kv : j.rounds) {
        if (kv.first <= start)
            continue;
        for (const auto &c : kv.second.coins) {
            if (c.first >= cfg.workers)
                throw ReplayError(ReplayErrc::Corrupt,
                                  "journal coin names bad worker");
            feeds[c.first].push_back(c.second);
        }
    }
    for (unsigned i = 0; i < cfg.workers; ++i)
        srv.worker(i).runtime().coinFeed = &feeds[i];

    auto check = [&]() {
        if (tap.diverged)
            throw ReplayError(ReplayErrc::Divergence, tap.message);
        for (unsigned i = 0; i < cfg.workers; ++i) {
            if (srv.worker(i).runtime().coinStarved) {
                throw ReplayError(
                    ReplayErrc::Divergence,
                    "worker " + std::to_string(i) +
                        " drew more coins than were recorded");
            }
        }
    };

    while (srv.stepRound(pool))
        check();
    check();

    ServerReport report = srv.finishRun();
    if (report.rounds != j.endRounds ||
        report.requestsServed != j.endServed ||
        report.signature != j.endSignature) {
        throw ReplayError(ReplayErrc::Divergence,
                          "replayed run's final report disagrees "
                          "with the recording");
    }

    ReplayResult res;
    res.report = report;
    res.rounds = report.rounds - start;
    res.startRound = start;
    res.syncChecks = tap.syncChecks;
    return res;
}

} // namespace

ReplayResult
replayRun(const FatBinary &bin, const ServerConfig &cfg,
          const std::string &path, ThreadPool *pool)
{
    return drive(bin, cfg, path, 0, pool);
}

ReplayResult
replayWindow(const FatBinary &bin, const ServerConfig &cfg,
             const std::string &path, uint64_t fromRound,
             ThreadPool *pool)
{
    return drive(bin, cfg, path, fromRound, pool);
}

} // namespace replay
} // namespace hipstr
