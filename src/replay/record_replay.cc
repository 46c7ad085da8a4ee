#include "record_replay.hh"

#include <deque>
#include <memory>
#include <vector>

#include "support/hash.hh"
#include "support/logging.hh"

namespace hipstr
{
namespace replay
{

namespace
{

uint64_t
hashBytes(const ByteWriter &w)
{
    uint64_t h = kFnvBasis;
    foldBytes(h, w.data().data(), w.size());
    return h;
}

/** Cores per CMP — the stride of the global core-id space. */
unsigned
coresPerShard(const ServerConfig &cfg)
{
    return cfg.cmp.riscCores + cfg.cmp.ciscCores;
}

/** Each shard's derived fault config, in shard order. */
std::vector<FaultPlanConfig>
shardFaults(const FleetConfig &cfg)
{
    std::vector<FaultPlanConfig> out;
    for (unsigned k = 0; k < cfg.shards; ++k)
        out.push_back(shardServerConfig(cfg, k).faults);
    return out;
}

} // namespace

// ---------------------------------------------------------------
// Config hashing.
// ---------------------------------------------------------------

namespace
{

// One field list per hashed config struct. Each structured binding
// names every data member, so a member added to the struct fails to
// compile here until it is classified: passed to the visitor
// (behavioural, in hash order) or to observers() (it changes what is
// observed, not what happens, and is never hashed).

template <class... T>
void
observers(const T &...)
{
}

/** A struct whose fields are all behavioural, in declaration order. */
#define HIPSTR_BEHAVIOURAL_FIELDS(Type, ...)                          \
    template <class V>                                                \
    void visitFields(const Type &c, V &&v)                            \
    {                                                                 \
        const auto &[__VA_ARGS__] = c;                                \
        v(__VA_ARGS__);                                               \
    }

HIPSTR_BEHAVIOURAL_FIELDS(CmpConfig, riscCores, ciscCores)
HIPSTR_BEHAVIOURAL_FIELDS(SupervisorConfig, backoffBaseRounds,
                          backoffCapRounds, quarantineAfter,
                          quarantineRounds)
HIPSTR_BEHAVIOURAL_FIELDS(SchedulerConfig, quantumInsts, respawnLimit,
                          supervisor)
HIPSTR_BEHAVIOURAL_FIELDS(RequestMix, dynamicFrac, postFrac,
                          malformedFrac, attackFrac)
HIPSTR_BEHAVIOURAL_FIELDS(RequestCosts, staticInsts, dynamicInsts,
                          postInsts, malformedInsts, attackInsts)
HIPSTR_BEHAVIOURAL_FIELDS(FaultPlanConfig, enabled, seed,
                          quantumFaultRate, coreFailRate,
                          outageRoundsMin, outageRoundsMax,
                          wedgeQuantaMin, wedgeQuantaMax,
                          scriptedOutageIsa, scriptedOutageRound,
                          scriptedOutageRounds)
HIPSTR_BEHAVIOURAL_FIELDS(HipstrConfig, psr, diversificationProbability,
                          migrateOnSecurityEvents, phaseIntervalInsts,
                          migrationLogCap, startIsa, policySeed)
#undef HIPSTR_BEHAVIOURAL_FIELDS

template <class V>
void
visitFields(const PsrConfig &c, V &&v)
{
    const auto &[optLevel, randSpaceBytes, randomizeCallingConvention,
                 randomizeRegisters, relocateRegsToMemory,
                 randomizeSlots, codeCacheBytes, ratEntries,
                 regCacheEntries, maxSuperblockBlocks, traceMode,
                 traceHotThreshold, traceMaxBlocks, jitMode,
                 jitArenaBytes, isomeronMode, seed] = c;
    observers(traceMode, jitMode, jitArenaBytes);
    v(optLevel, randSpaceBytes, randomizeCallingConvention,
      randomizeRegisters, relocateRegsToMemory, randomizeSlots,
      codeCacheBytes, ratEntries, regCacheEntries, maxSuperblockBlocks,
      traceHotThreshold, traceMaxBlocks, isomeronMode, seed);
}

template <class V>
void
visitFields(const ServerConfig &c, V &&v)
{
    const auto &[workers, cmp, sched, requestCount, seed, mix, costs,
                 hipstr, outputCap, verifyOutput, trace, faults,
                 watchdogQuanta, metrics, tap, faultPlanOverride,
                 campaign, campaignShard] = c;
    observers(trace, metrics, tap, faultPlanOverride, campaign,
              campaignShard);
    v(workers, cmp, sched, requestCount, seed, mix, costs, hipstr,
      outputCap, verifyOutput, faults, watchdogQuanta);
}

/** The shard template `server` goes last: see ConfigHasher. */
template <class V>
void
visitFields(const FleetConfig &c, V &&v)
{
    const auto &[shards, server, requestCount, seed, mix, costs,
                 sessions, vnodesPerShard, queueCap, sloRounds,
                 batchSize, workStealing, keepOutcomes,
                 permuteShardStep, trace, metrics, metricsPrefix, tap,
                 shardPlanOverrides, campaign] = c;
    observers(keepOutcomes, permuteShardStep, trace, metrics,
              metricsPrefix, tap, shardPlanOverrides, campaign);
    v(shards, requestCount, seed, mix, costs, sessions, vnodesPerShard,
      queueCap, sloRounds, batchSize, workStealing, server);
}

/**
 * Serializes behavioural fields by type: integers, bools, doubles and
 * ISAs as themselves, config structs through their field list; any
 * other type fails to compile. A ServerConfig ends with its serving
 * role (true for a fleet shard). Inside a fleet it is the template,
 * written as every derived shard config's hash: two fleets hash equal
 * iff every shard would behave identically.
 */
struct ConfigHasher
{
    template <class... T>
    void
    operator()(const T &...fields)
    {
        (put(fields), ...);
    }

    void put(bool x) { w.boolean(x); }
    void put(uint32_t x) { w.u32(x); }
    void put(uint64_t x) { w.u64(x); }
    void put(double x) { w.f64(x); }
    void put(IsaKind x) { w.u8(static_cast<uint8_t>(x)); }

    template <class Config>
    void
    put(const Config &c)
    {
        visitFields(c, *this);
    }

    void
    put(const ServerConfig &c)
    {
        if (fleet == nullptr) {
            visitFields(c, *this);
            w.boolean(fleetShard);
            return;
        }
        for (unsigned k = 0; k < fleet->shards; ++k) {
            ConfigHasher shard;
            shard.fleetShard = true;
            shard.put(shardServerConfig(*fleet, k));
            w.u64(hashBytes(shard.w));
        }
    }

    ByteWriter w;
    const FleetConfig *fleet = nullptr;
    bool fleetShard = false;
};

} // namespace

uint64_t
serverConfigHash(const ServerConfig &cfg)
{
    ConfigHasher h;
    h.put(cfg);
    return hashBytes(h.w);
}

uint64_t
fleetConfigHash(const FleetConfig &cfg)
{
    ConfigHasher h;
    h.fleet = &cfg;
    h.put(cfg);
    return hashBytes(h.w);
}

namespace
{

// ---------------------------------------------------------------
// Fault-plan decorators. Both take the shard's (pidBase, coreBase)
// so their journal keys are global ids.
// ---------------------------------------------------------------

/**
 * FaultPlan decorator that answers from the real plan and logs every
 * non-trivial answer. The per-pid fault log is written from
 * concurrently running quanta, but each pid runs at most one quantum
 * per round on one host thread, so distinct pids never race and one
 * pid's entries are ordered by its quantum serial. Outage queries
 * happen in the scheduler's sequential supervision step.
 */
class RecordingFaultPlan : public FaultPlan
{
  public:
    RecordingFaultPlan(const FaultPlanConfig &cfg, unsigned workers,
                       uint32_t pidBase, uint32_t coreBase)
        : FaultPlan(cfg), _faultLog(workers), _pidBase(pidBase),
          _coreBase(coreBase)
    {
    }

    QuantumFault
    quantumFault(uint32_t pid, uint64_t serial) const override
    {
        QuantumFault f = FaultPlan::quantumFault(pid, serial);
        if (f.kind != FaultKind::None && pid < _faultLog.size()) {
            ByteWriter w;
            w.u32(_pidBase + pid);
            w.u64(serial);
            w.u8(static_cast<uint8_t>(f.kind));
            w.u64(f.payload);
            _faultLog[pid].push_back(std::move(w));
        }
        return f;
    }

    uint32_t
    coreOutageAt(unsigned coreId, IsaKind isa,
                 uint64_t round) const override
    {
        uint32_t len = FaultPlan::coreOutageAt(coreId, isa, round);
        if (len != 0) {
            ByteWriter w;
            w.u32(_coreBase + coreId);
            w.u8(static_cast<uint8_t>(isa));
            w.u64(round);
            w.u32(len);
            _outageLog.push_back(std::move(w));
        }
        return len;
    }

    /** Journal everything logged since the last flush: faults in pid
     *  order, then outages in firing order. */
    void
    flush(JournalWriter &out) const
    {
        for (auto &perPid : _faultLog) {
            for (const ByteWriter &w : perPid)
                out.record(RecordTag::Fault, w);
            perPid.clear();
        }
        for (const ByteWriter &w : _outageLog)
            out.record(RecordTag::Outage, w);
        _outageLog.clear();
    }

  private:
    /** Indexed by pid; mutable because the query API is const. */
    mutable std::vector<std::vector<ByteWriter>> _faultLog;
    mutable std::vector<ByteWriter> _outageLog;
    uint32_t _pidBase;
    uint32_t _coreBase;
};

/**
 * FaultPlan that answers quantum faults and core outages from a
 * parsed journal; wedge lengths (a pure function of the payload)
 * delegate to the real plan's derivation.
 */
class ReplayFaultPlan : public FaultPlan
{
  public:
    ReplayFaultPlan(const FaultPlanConfig &cfg, const Journal &j,
                    uint32_t pidBase, uint32_t coreBase)
        : FaultPlan(cfg), _journal(j), _pidBase(pidBase),
          _coreBase(coreBase)
    {
    }

    QuantumFault
    quantumFault(uint32_t pid, uint64_t serial) const override
    {
        auto it = _journal.faults.find({ _pidBase + pid, serial });
        return it == _journal.faults.end() ? QuantumFault{}
                                           : it->second;
    }

    uint32_t
    coreOutageAt(unsigned coreId, IsaKind isa,
                 uint64_t round) const override
    {
        (void)isa;
        auto it = _journal.outages.find({ _coreBase + coreId, round });
        return it == _journal.outages.end() ? 0 : it->second;
    }

  private:
    const Journal &_journal;
    uint32_t _pidBase;
    uint32_t _coreBase;
};

/**
 * What the recorder and the replayer share: the shards they span and
 * one fault-plan decorator per shard whose faults are enabled. Shard
 * k's workers are global pids k * workers + i; a lone server is the
 * single shard 0.
 */
template <class Plan>
class ShardTap : public ServerTap
{
  public:
    /** Every shard's plan, shard order; null where faults are off. */
    std::vector<const FaultPlan *>
    plans() const
    {
        std::vector<const FaultPlan *> out;
        for (const auto &p : _plans)
            out.push_back(p.get());
        return out;
    }

    /** Link shard @p k to the server that runs it and wire its
     *  workers' coin capture or feed. */
    void
    attach(unsigned k, ProtectedServer &srv)
    {
        _shards[k] = &srv;
        for (unsigned i = 0; i < _workers; ++i)
            wire(srv.worker(i).runtime(), size_t(k) * _workers + i);
    }

  protected:
    /** @p faults: each shard's fault config, shard order. */
    template <class... PlanArgs>
    ShardTap(const std::vector<FaultPlanConfig> &faults,
             unsigned workers, unsigned cores, const PlanArgs &...args)
        : _shards(faults.size(), nullptr), _workers(workers)
    {
        for (size_t k = 0; k < faults.size(); ++k) {
            _plans.push_back(
                faults[k].enabled
                    ? std::make_unique<Plan>(faults[k], args...,
                                             uint32_t(k * workers),
                                             uint32_t(k * cores))
                    : nullptr);
        }
    }

    /** Point global worker @p gpid's runtime at its coin stream. */
    virtual void wire(HipstrRuntime &rt, size_t gpid) = 0;

    /** The runtime of global worker @p gpid (its shard attached). */
    HipstrRuntime &
    runtime(size_t gpid)
    {
        return _shards[gpid / _workers]
            ->worker(gpid % _workers)
            .runtime();
    }

    size_t workerCount() const { return _shards.size() * _workers; }

    std::vector<std::unique_ptr<Plan>> _plans;
    std::vector<ProtectedServer *> _shards;
    unsigned _workers;
};

// ---------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------

/**
 * The recorder tap: buffers one round's draws and flushes every
 * journaled stream at the round boundary in a fixed order — draws,
 * then each shard's fault firings in shard order, then every
 * worker's coins in global-pid order, then the Sync record and, for
 * a lone server at the checkpoint cadence, a Checkpoint record.
 */
class Recorder : public ShardTap<RecordingFaultPlan>
{
  public:
    /** @p checkpointEvery: 0, or — one shard only — the cadence. */
    Recorder(const std::string &path, uint64_t configHash,
             const std::vector<FaultPlanConfig> &faults,
             unsigned workers, unsigned cores,
             uint64_t checkpointEvery)
        : ShardTap(faults, workers, cores, workers),
          _out(path, configHash), _coinLogs(workerCount()),
          _every(checkpointEvery)
    {
        hipstr_assert(_every == 0 || faults.size() == 1);
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
            SaveArchive{ w }(r);
            _out.record(RecordTag::Request, w);
        }
        _draws.clear();
        for (const auto &p : _plans) {
            if (p != nullptr)
                p->flush(_out);
        }
        for (size_t g = 0; g < _coinLogs.size(); ++g) {
            for (uint8_t flip : _coinLogs[g]) {
                ByteWriter w;
                w.u32(uint32_t(g));
                w.u8(flip);
                _out.record(RecordTag::Coin, w);
            }
            _coinLogs[g].clear();
        }
        {
            ByteWriter w;
            w.u64(round);
            w.u64(sig);
            _out.record(RecordTag::Sync, w);
        }
        if (_every != 0 && round % _every == 0) {
            ByteWriter cp;
            _shards[0]->saveCheckpoint(cp);
            ByteWriter w;
            w.u64(round);
            w.u32(uint32_t(cp.size()));
            w.bytes(cp.data().data(), cp.size());
            _out.record(RecordTag::Checkpoint, w);
            ++checkpoints;
        }
    }

    /** Close the journal with @p report's End record; returns the
     *  journal's size in bytes. */
    template <class Report>
    uint64_t
    finish(const Report &report)
    {
        ByteWriter end;
        end.u64(report.rounds);
        end.u64(report.signature);
        end.u64(report.requestsServed);
        _out.record(RecordTag::End, end);
        _out.close();
        return _out.bytesWritten();
    }

    uint64_t requestsDrawn = 0;
    uint64_t checkpoints = 0;

  private:
    void
    wire(HipstrRuntime &rt, size_t gpid) override
    {
        rt.coinLog = &_coinLogs[gpid];
    }

    JournalWriter _out;
    /** Per-worker coin capture, indexed by global pid. */
    std::vector<std::vector<uint8_t>> _coinLogs;
    std::vector<Request> _draws;
    uint64_t _every;
};

// ---------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------

/**
 * The replayer tap: requests answer from the journal and every
 * round is verified. The first disagreement throws ReplayError
 * straight out of roundEnd — safe in both drivers, because roundEnd
 * runs last in a round, on the caller's thread, after every quantum
 * of the round has joined.
 */
class Replayer : public ShardTap<ReplayFaultPlan>
{
  public:
    /** Each worker is fed the coin flips of every round after
     *  @p start (0, or the restored checkpoint), in journal order.
     *  Feeds are per worker, so concurrent quanta never share one. */
    Replayer(const Journal &j, uint64_t start,
             const std::vector<FaultPlanConfig> &faults,
             unsigned workers, unsigned cores)
        : ShardTap(faults, workers, cores, j), _j(j),
          _feeds(workerCount())
    {
        for (const auto &kv : _j.rounds) {
            if (kv.first <= start)
                continue;
            for (const auto &c : kv.second.coins) {
                if (c.first >= _feeds.size())
                    throw ReplayError(ReplayErrc::Corrupt,
                                      "journal coin names bad worker");
                _feeds[c.first].push_back(c.second);
            }
        }
    }

    bool
    supplyRequest(uint64_t id, Request &req) override
    {
        auto it = _j.requests.find(id);
        if (it == _j.requests.end())
            return false;
        req = it->second;
        return true;
    }

    /** Coin starvation is checked first: it is the root cause of
     *  any sync mismatch in the same round. */
    void
    roundEnd(uint64_t round, uint64_t sig) override
    {
        for (size_t g = 0; g < _feeds.size(); ++g) {
            if (runtime(g).coinStarved) {
                throw ReplayError(
                    ReplayErrc::Divergence,
                    "worker " + std::to_string(g) +
                        " drew more coins than were recorded");
            }
        }
        auto it = _j.rounds.find(round);
        if (it == _j.rounds.end()) {
            throw ReplayError(ReplayErrc::Divergence,
                              "replay reached round " +
                                  std::to_string(round) +
                                  " which the recording never ran");
        }
        ++syncChecks;
        if (it->second.syncSig != sig) {
            throw ReplayError(ReplayErrc::Divergence,
                              "sync signature mismatch at round " +
                                  std::to_string(round));
        }
    }

    /** The final report must match the recorded End record. */
    template <class Report>
    void
    verifyEnd(const Report &report) const
    {
        if (report.rounds != _j.endRounds ||
            report.requestsServed != _j.endServed ||
            report.signature != _j.endSignature) {
            throw ReplayError(ReplayErrc::Divergence,
                              "replayed run's final report disagrees "
                              "with the recording");
        }
    }

    uint64_t syncChecks = 0;

  private:
    void
    wire(HipstrRuntime &rt, size_t gpid) override
    {
        rt.coinFeed = &_feeds[gpid];
    }

    const Journal &_j;
    std::vector<std::deque<uint8_t>> _feeds;
};

/** Parse @p path and check it was recorded under @p configHash. */
Journal
openJournal(const std::string &path, uint64_t configHash,
            const char *what)
{
    Journal j = parseJournal(path);
    if (j.configHash != configHash) {
        throw ReplayError(ReplayErrc::ConfigMismatch,
                          std::string("journal was recorded under a "
                                      "different ") +
                              what + " configuration");
    }
    return j;
}

ReplayResult
drive(const FatBinary &bin, const ServerConfig &cfg,
      const std::string &path, uint64_t fromRound, ThreadPool *pool)
{
    Journal j = openJournal(path, serverConfigHash(cfg), "server");
    uint64_t start = j.checkpointAtOrBefore(fromRound);
    Replayer tap(j, start, { cfg.faults }, cfg.workers,
                 coresPerShard(cfg));

    ServerConfig rcfg = cfg;
    // The journal already carries every campaign rewrite; replaying
    // with a live engine attached would double-feed it observations.
    rcfg.campaign = nullptr;
    rcfg.tap = &tap;
    if (cfg.faults.enabled)
        rcfg.faultPlanOverride = tap.plans()[0];

    ProtectedServer srv(bin, rcfg);
    tap.attach(0, srv);
    srv.beginRun();
    if (start != 0) {
        try {
            ByteReader r(j.rounds.at(start).checkpoint);
            srv.loadCheckpoint(r);
            if (!r.atEnd())
                throw SerializeError(SerializeErrc::Corrupt,
                                     "trailing bytes after checkpoint");
        } catch (const SerializeError &e) {
            throw ReplayError(ReplayErrc::Corrupt,
                              std::string("checkpoint unusable: ") +
                                  e.what());
        }
    }

    while (srv.stepRound(pool)) {
    }
    ServerReport report = srv.finishRun();
    tap.verifyEnd(report);

    ReplayResult res;
    res.report = report;
    res.rounds = report.rounds - start;
    res.startRound = start;
    res.syncChecks = tap.syncChecks;
    return res;
}

} // namespace

RecordResult
recordRun(const FatBinary &bin, const ServerConfig &cfg,
          const std::string &path, ThreadPool *pool,
          const RecordOptions &opts)
{
    Recorder rec(path, serverConfigHash(cfg), { cfg.faults },
                 cfg.workers, coresPerShard(cfg),
                 opts.checkpointEveryRounds);
    ServerConfig rcfg = cfg;
    rcfg.tap = &rec;
    if (cfg.faults.enabled)
        rcfg.faultPlanOverride = rec.plans()[0];

    ProtectedServer srv(bin, rcfg);
    rec.attach(0, srv);

    RecordResult res;
    res.report = srv.run(pool);
    res.rounds = res.report.rounds;
    res.journalBytes = rec.finish(res.report);
    res.requestsDrawn = rec.requestsDrawn;
    res.checkpoints = rec.checkpoints;
    return res;
}

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

FleetRecordResult
recordFleetRun(const FatBinary &bin, const FleetConfig &cfg,
               const std::string &path, ThreadPool *pool)
{
    // Decorate the exact derived fault config each shard runs
    // (per-shard seed included) so the recorded run draws the same
    // fault stream as an un-recorded one.
    Recorder rec(path, fleetConfigHash(cfg), shardFaults(cfg),
                 cfg.server.workers, coresPerShard(cfg.server), 0);
    FleetConfig rcfg = cfg;
    rcfg.tap = &rec;
    if (cfg.server.faults.enabled)
        rcfg.shardPlanOverrides = rec.plans();

    ProtectedFleet fleet(bin, rcfg);
    for (unsigned k = 0; k < cfg.shards; ++k)
        rec.attach(k, fleet.shard(k));

    FleetRecordResult res;
    res.report = fleet.run(pool);
    res.rounds = res.report.rounds;
    res.journalBytes = rec.finish(res.report);
    res.requestsDrawn = rec.requestsDrawn;
    return res;
}

FleetReplayResult
replayFleetRun(const FatBinary &bin, const FleetConfig &cfg,
               const std::string &path, ThreadPool *pool)
{
    Journal j = openJournal(path, fleetConfigHash(cfg), "fleet");
    Replayer tap(j, 0, shardFaults(cfg), cfg.server.workers,
                 coresPerShard(cfg.server));

    FleetConfig rcfg = cfg;
    rcfg.campaign = nullptr; // as in the server replay
    rcfg.tap = &tap;
    if (cfg.server.faults.enabled)
        rcfg.shardPlanOverrides = tap.plans();

    ProtectedFleet fleet(bin, rcfg);
    for (unsigned k = 0; k < cfg.shards; ++k)
        tap.attach(k, fleet.shard(k));

    FleetReplayResult res;
    res.report = fleet.run(pool);
    tap.verifyEnd(res.report);
    res.rounds = res.report.rounds;
    res.syncChecks = tap.syncChecks;
    return res;
}

} // namespace replay
} // namespace hipstr
