#include "fleet.hh"

#include <algorithm>

#include "attack/campaign.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace hipstr
{

namespace
{

/** Livelock valve: far above any configured fleet stream. */
constexpr uint64_t kMaxFleetRounds = 10'000'000;

/** Fleet-latency histogram geometry: 1-round bins, the last bin
 *  absorbing pathological tails (maxRounds stays exact). 16k bins
 *  keep round-exact percentiles even for backlogged open-loop runs
 *  (a 30k-request overload bench sees p99 in the thousands). */
constexpr size_t kLatencyBins = 16384;

/** Disposal markers folded into the run signature so event streams
 *  that differ only in kind cannot collide. */
constexpr uint64_t kSigServed = 0x5e72;
constexpr uint64_t kSigShed = 0x51ed;
constexpr uint64_t kSigAbandoned = 0xaba7;
constexpr uint64_t kSigRetry = 0x2e72;

} // namespace

const char *
fleetOutcomeName(FleetOutcome o)
{
    switch (o) {
      case FleetOutcome::Served: return "served";
      case FleetOutcome::ShedDeadline: return "shed_deadline";
      case FleetOutcome::Abandoned: return "abandoned";
    }
    return "?";
}

ServerConfig
shardServerConfig(const FleetConfig &cfg, unsigned k)
{
    ServerConfig sc = cfg.server;
    // The shard draws nothing itself; its requestCount only sizes
    // internal reservations, and the fleet bounds what one shard can
    // be asked to hold.
    sc.requestCount = cfg.requestCount;
    // Per-shard seeds fold (fleet seed, shard id) through SplitMix64
    // so shards decorrelate but derive from nothing else — the
    // byte-identity root of the determinism contract.
    uint64_t s = cfg.seed ^ (0x9e3779b97f4a7c15ull * (k + 1));
    sc.seed = splitMix64(s);
    if (sc.faults.enabled) {
        uint64_t fs =
            cfg.server.faults.seed ^ (0xd1b54a32d192ed03ull * (k + 1));
        sc.faults.seed = splitMix64(fs);
    }
    // Observers: the fleet's trace flows through (shard events share
    // the modeled timeline); the registry does not (per-shard gauges
    // under one name would collide — the fleet publishes instead).
    sc.trace = cfg.trace;
    sc.metrics = nullptr;
    sc.tap = nullptr;
    sc.faultPlanOverride = k < cfg.shardPlanOverrides.size()
        ? cfg.shardPlanOverrides[k]
        : nullptr;
    // Campaign plumbing: shards observe probe outcomes on their own
    // channel but never rewrite (the fleet's ingest does) and never
    // commit (the fleet commits once per fleet round, in shard-index
    // order — the permuteShardStep invariance root).
    sc.campaign = cfg.campaign;
    sc.campaignShard = k;
    return sc;
}

ProtectedFleet::ProtectedFleet(const FatBinary &bin,
                               const FleetConfig &cfg)
    : _cfg(cfg),
      _stream(cfg.seed, cfg.mix, cfg.costs),
      _sig(kFnvBasis)
{
    hipstr_assert(cfg.shards > 0);
    hipstr_assert(cfg.sessions > 0);
    hipstr_assert(cfg.vnodesPerShard > 0);
    hipstr_assert(cfg.queueCap > 0);
    hipstr_assert(cfg.batchSize > 0);
    hipstr_assert(cfg.shardPlanOverrides.empty() ||
                  cfg.shardPlanOverrides.size() == cfg.shards);

    // Consistent-hash ring: vnodesPerShard points per shard, each a
    // pure function of (fleet seed, shard, vnode). Ties (vanishingly
    // rare) break on shard id so the sort is total.
    for (unsigned k = 0; k < cfg.shards; ++k) {
        for (unsigned v = 0; v < cfg.vnodesPerShard; ++v) {
            uint64_t s = cfg.seed ^
                (0x9e3779b97f4a7c15ull * (k + 1)) ^
                (0x2545f4914f6cdd1dull * (v + 1));
            _ring.push_back(RingPoint{ splitMix64(s), k });
        }
    }
    std::sort(_ring.begin(), _ring.end(),
              [](const RingPoint &a, const RingPoint &b) {
                  return a.point != b.point ? a.point < b.point
                                            : a.shard < b.shard;
              });

    _queues.resize(cfg.shards);
    _disposed.assign(cfg.requestCount, 0);
    for (unsigned k = 0; k < cfg.shards; ++k) {
        _shards.push_back(std::make_unique<ProtectedServer>(
            bin, shardServerConfig(cfg, k)));
        _lat.push_back(std::make_unique<telemetry::HistogramMetric>(
            "fleet.latency", 1, kLatencyBins));
    }
}

ProtectedFleet::~ProtectedFleet() = default;

uint64_t
ProtectedFleet::sessionOf(uint64_t id) const
{
    uint64_t s = _cfg.seed ^ (0x94d049bb133111ebull * (id + 1));
    return splitMix64(s) % _cfg.sessions;
}

uint32_t
ProtectedFleet::shardOf(uint64_t session) const
{
    uint64_t s = _cfg.seed ^ (0xbf58476d1ce4e5b9ull * (session + 1));
    uint64_t h = splitMix64(s);
    // First ring point at or after the session's hash, wrapping.
    auto it = std::lower_bound(
        _ring.begin(), _ring.end(), h,
        [](const RingPoint &p, uint64_t v) { return p.point < v; });
    if (it == _ring.end())
        it = _ring.begin();
    return it->shard;
}

bool
ProtectedFleet::shardStormy(unsigned k) const
{
    const ProtectedServer &s = *_shards[k];
    return s.liveWorkers() == 0 ||
        s.scheduler().convalescentCount() > 0 ||
        s.scheduler().degraded();
}

void
ProtectedFleet::dispose(const Pending &p, uint32_t shard,
                        FleetOutcome o, uint64_t latency)
{
    hipstr_assert(p.req.id < _disposed.size());
    if (_disposed[p.req.id]) {
        hipstr_fatal("fleet request %llu disposed twice",
                     static_cast<unsigned long long>(p.req.id));
    }
    _disposed[p.req.id] = 1;

    switch (o) {
      case FleetOutcome::Served:
        ++_report.requestsServed;
        ++_report.servedByKind[static_cast<size_t>(p.req.kind)];
        fold64(_sig, kSigServed);
        break;
      case FleetOutcome::ShedDeadline:
        ++_report.requestsShed;
        fold64(_sig, kSigShed);
        break;
      case FleetOutcome::Abandoned:
        ++_report.requestsAbandoned;
        fold64(_sig, kSigAbandoned);
        break;
    }
    fold64(_sig, p.req.id);
    fold64(_sig, static_cast<uint64_t>(p.req.kind));
    fold64(_sig, latency);
    fold64(_sig, shard);

    // Commutative witness over (id, session, kind, outcome): the
    // wrapping sum is order- and placement-independent, so a run
    // where every request is served folds identically for any shard
    // count.
    uint64_t x = _cfg.seed ^ (0x9e3779b97f4a7c15ull * (p.req.id + 1)) ^
        (p.session << 24) ^
        (static_cast<uint64_t>(p.req.kind) << 8) ^
        static_cast<uint64_t>(o);
    _outcomeSetSig += splitMix64(x);

    // Non-served disposals are silence from the attacker's seat: the
    // request vanished without a response or a reset.
    if (_cfg.campaign != nullptr && o != FleetOutcome::Served) {
        attack::ProbeEvent ev;
        ev.id = p.req.id;
        ev.signal = attack::ProbeSignal::Silence;
        ev.shard = shard;
        ev.latencyRounds = latency;
        _cfg.campaign->observe(ev);
    }

    if (_cfg.keepOutcomes) {
        FleetOutcomeRec rec;
        rec.id = p.req.id;
        rec.session = p.session;
        rec.shard = shard;
        rec.homeShard = p.home;
        rec.kind = p.req.kind;
        rec.outcome = o;
        rec.latencyRounds = latency;
        rec.retries = p.req.retries;
        _report.outcomes.push_back(rec);
    }
}

void
ProtectedFleet::shedRound()
{
    if (_cfg.sloRounds == 0)
        return;
    using telemetry::TraceCategory;
    auto expired = [&](const Pending &p) {
        return _roundNo - p.arrival >= _cfg.sloRounds;
    };
    auto shedFrom = [&](std::deque<Pending> &q, bool useHome,
                        uint32_t shard) {
        std::deque<Pending> keep;
        while (!q.empty()) {
            Pending p = q.front();
            q.pop_front();
            if (!expired(p)) {
                keep.push_back(p);
                continue;
            }
            uint64_t age = _roundNo - p.arrival;
            uint32_t at = useHome ? p.home : shard;
            dispose(p, at, FleetOutcome::ShedDeadline, age);
            if (_traced) {
                _cfg.trace->record(
                    telemetry::traceInstant(
                        TraceCategory::Fleet, "fleet.shed",
                        double(_roundNo) * _usPerRound, 0, at)
                        .arg("id", p.req.id)
                        .arg("age_rounds", age));
            }
        }
        q.swap(keep);
    };
    shedFrom(_arrival, true, 0);
    for (unsigned k = 0; k < _cfg.shards; ++k)
        shedFrom(_queues[k], false, k);
}

void
ProtectedFleet::ingestRound()
{
    for (unsigned b = 0;
         b < _cfg.batchSize && _nextId < _cfg.requestCount; ++b) {
        uint64_t id = _nextId++;
        const uint64_t session = sessionOf(id);
        const uint32_t home = shardOf(session);
        Pending p;
        p.req = drawRequest(_stream, id, _cfg.tap, _cfg.campaign, home,
                            session, _roundNo);
        p.session = session;
        p.home = home;
        p.arrival = _roundNo;
        _arrival.push_back(p);
    }
}

void
ProtectedFleet::routeRound()
{
    std::deque<Pending> stalled;
    while (!_arrival.empty()) {
        Pending p = _arrival.front();
        _arrival.pop_front();
        if (!_cfg.workStealing &&
            _shards[p.home]->liveWorkers() == 0) {
            // Nothing will ever drain this shard's queue and no
            // thief exists: a typed drop beats an eternal stall.
            dispose(p, p.home, FleetOutcome::Abandoned,
                    _roundNo - p.arrival);
            continue;
        }
        if (_queues[p.home].size() < _cfg.queueCap) {
            _queues[p.home].push_back(p);
        } else {
            ++_report.backpressureStalls;
            stalled.push_back(p);
        }
    }
    _arrival.swap(stalled);
}

void
ProtectedFleet::stealRound(const std::vector<bool> &stormy)
{
    using telemetry::TraceCategory;
    for (unsigned s = 0; s < _cfg.shards; ++s) {
        if (!stormy[s] || _queues[s].empty())
            continue;
        for (unsigned d = 0;
             d < _cfg.shards && !_queues[s].empty(); ++d) {
            if (d == s || stormy[d])
                continue;
            // Spare capacity the donor can absorb beyond its own
            // queue — every stolen request dispatches this round.
            long spare =
                static_cast<long>(_shards[d]->admissionCapacity()) -
                static_cast<long>(_queues[d].size());
            while (spare > 0 && !_queues[s].empty()) {
                Pending p = _queues[s].front();
                _queues[s].pop_front();
                _queues[d].push_back(p);
                ++_report.steals;
                --spare;
                if (_traced) {
                    _cfg.trace->record(
                        telemetry::traceInstant(
                            TraceCategory::Fleet, "fleet.steal",
                            double(_roundNo) * _usPerRound, 0, d)
                            .arg("id", p.req.id)
                            .arg("from", s)
                            .arg("to", d));
                }
            }
        }
    }
}

void
ProtectedFleet::finishShardFold(unsigned k)
{
    using telemetry::TraceCategory;
    auto takeInflight = [&](const Request &r, const char *what) {
        auto it = _inflight.find(r.id);
        if (it == _inflight.end()) {
            hipstr_fatal("shard %u %s unknown request %llu", k, what,
                         static_cast<unsigned long long>(r.id));
        }
        Pending p = it->second;
        _inflight.erase(it);
        p.req = r; // the shard's copy carries the retry count
        return p;
    };
    for (const Request &r : _shards[k]->completed()) {
        Pending p = takeInflight(r, "completed");
        uint64_t lat = _roundNo - p.arrival;
        _lat[k]->sample(lat);
        _report.maxRounds = std::max(_report.maxRounds, lat);
        dispose(p, k, FleetOutcome::Served, lat);
    }

    for (const Request &r : _shards[k]->retried()) {
        Pending p = takeInflight(r, "retried");
        ++_report.requestsRetried;
        fold64(_sig, kSigRetry);
        fold64(_sig, r.id);
        fold64(_sig, k);
        // Ahead of new arrivals: an already-aged request re-routes
        // (home shard, or a thief) before fresh traffic.
        _arrival.push_front(p);
        if (_traced) {
            _cfg.trace->record(
                telemetry::traceInstant(
                    TraceCategory::Fleet, "fleet.retry",
                    double(_roundNo) * _usPerRound, 0, k)
                    .arg("id", r.id)
                    .arg("retries", r.retries));
        }
    }
}

uint64_t
ProtectedFleet::roundSyncSignature() const
{
    uint64_t h = kFnvBasis;
    fold64(h, _roundNo);
    fold64(h, _nextId);
    fold64(h, _report.requestsServed);
    fold64(h, _report.requestsShed);
    fold64(h, _report.requestsAbandoned);
    fold64(h, _arrival.size());
    for (unsigned k = 0; k < _cfg.shards; ++k) {
        fold64(h, _queues[k].size());
        fold64(h, _shards[k]->roundSyncSignature());
    }
    return h;
}

FleetReport
ProtectedFleet::run(ThreadPool *pool)
{
    hipstr_assert(!_ran);
    _ran = true;

    using telemetry::TraceCategory;
    _traced = _cfg.trace != nullptr &&
        _cfg.trace->enabled(TraceCategory::Fleet);
    for (unsigned k = 0; k < _cfg.shards; ++k)
        _shards[k]->beginRun();
    double agg = _shards[0]->cmp().aggregateInstsPerSecond();
    if (agg > 0) {
        _usPerRound = double(_cfg.server.sched.quantumInsts) *
            double(_shards[0]->cmp().totalCores()) / agg * 1e6;
    }

    bool finished = false;
    while (!finished) {
        // 1. SLO shedding on everything still waiting for a worker.
        shedRound();

        // 2. Batched ingestion of new requests.
        ingestRound();

        // 3. Route arrivals to their pinned shards' bounded queues.
        routeRound();

        // 4. Respawn-storm work stealing.
        if (_cfg.workStealing) {
            std::vector<bool> stormy(_cfg.shards);
            bool any = false;
            for (unsigned k = 0; k < _cfg.shards; ++k) {
                stormy[k] = shardStormy(k);
                any = any || stormy[k];
            }
            if (any)
                stealRound(stormy);
        }

        // 5. Dispatch up to each shard's idle-worker capacity.
        for (unsigned k = 0; k < _cfg.shards; ++k) {
            size_t n = std::min<size_t>(
                _shards[k]->admissionCapacity(), _queues[k].size());
            for (size_t i = 0; i < n; ++i) {
                Pending p = _queues[k].front();
                _queues[k].pop_front();
                _shards[k]->submit(p.req);
                _inflight.emplace(p.req.id, p);
            }
        }

        // 6. One scheduler round per shard. The visit order is
        // irrelevant by construction (disjoint state, fixed-order
        // fold below); permuteShardStep rotates it to prove that.
        for (unsigned i = 0; i < _cfg.shards; ++i) {
            unsigned k = _cfg.permuteShardStep
                ? static_cast<unsigned>((i + _roundNo) % _cfg.shards)
                : i;
            _shards[k]->serveRound(pool);
        }
        ++_roundNo;

        // 7. Fold completions and retries in shard-index order.
        for (unsigned k = 0; k < _cfg.shards; ++k)
            finishShardFold(k);

        // 8. Typed abandonment. A dead shard's queue can only be
        // drained by a thief, so without stealing it is dropped now;
        // when no worker anywhere can serve, everything is.
        unsigned live = 0;
        for (unsigned k = 0; k < _cfg.shards; ++k)
            live += _shards[k]->liveWorkers();
        for (unsigned k = 0; k < _cfg.shards; ++k) {
            if (live != 0 &&
                (_cfg.workStealing || _shards[k]->liveWorkers() != 0))
                continue;
            for (const Pending &p : _queues[k])
                dispose(p, k, FleetOutcome::Abandoned,
                        _roundNo - p.arrival);
            _queues[k].clear();
        }
        if (live == 0) {
            hipstr_assert(_inflight.empty());
            for (const Pending &p : _arrival)
                dispose(p, p.home, FleetOutcome::Abandoned,
                        _roundNo - p.arrival);
            _arrival.clear();
            // Requests past _nextId were never ingested — they do
            // not count as offered (the client never got to send
            // them), so availability stays served/offered over what
            // the fleet actually admitted.
            finished = true;
        }

        // 9. Done when the stream is drained and nothing is queued,
        // stalled, or in flight anywhere.
        if (!finished && _nextId >= _cfg.requestCount &&
            _arrival.empty() && _inflight.empty()) {
            bool empty = true;
            for (unsigned k = 0; k < _cfg.shards; ++k)
                empty = empty && _queues[k].empty();
            finished = empty;
        }

        // Commit the campaign's buffered observations for this round
        // — after every shard stepped and every disposal landed, so
        // the engine sees one canonical, shard-ordered event stream
        // regardless of the step permutation above.
        if (_cfg.campaign != nullptr)
            _cfg.campaign->commitRound(_roundNo);

        if (_traced) {
            size_t queued = 0;
            for (unsigned k = 0; k < _cfg.shards; ++k)
                queued += _queues[k].size();
            _cfg.trace->record(
                telemetry::traceInstant(
                    TraceCategory::Fleet, "fleet.round",
                    double(_roundNo) * _usPerRound)
                    .arg("round", _roundNo)
                    .arg("stalled", _arrival.size())
                    .arg("queued", queued)
                    .arg("inflight", _inflight.size()));
        }
        if (_cfg.tap != nullptr)
            _cfg.tap->roundEnd(_roundNo, roundSyncSignature());
        if (_roundNo >= kMaxFleetRounds)
            hipstr_fatal("fleet livelocked after %llu rounds",
                         static_cast<unsigned long long>(_roundNo));
    }

    // ---- Merge. ----
    FleetReport rep = std::move(_report);
    _report = FleetReport{};
    rep.requestsOffered = _nextId;
    rep.rounds = _roundNo;
    rep.availability = rep.requestsOffered > 0
        ? double(rep.requestsServed) / double(rep.requestsOffered)
        : 1.0;

    telemetry::HistogramMetric merged("fleet.latency", 1,
                                      kLatencyBins);
    for (unsigned k = 0; k < _cfg.shards; ++k)
        merged.merge(*_lat[k]);
    rep.meanLatencyRounds = merged.mean();
    rep.p50Rounds = merged.percentile(0.50);
    rep.p99Rounds = merged.percentile(0.99);
    rep.p999Rounds = merged.percentile(0.999);

    uint64_t sig = _sig;
    for (unsigned k = 0; k < _cfg.shards; ++k) {
        ServerReport sr = _shards[k]->finishRun();
        rep.totalGuestInsts += sr.totalGuestInsts;
        rep.securityEvents += sr.securityEvents;
        rep.migrations += sr.migrations;
        rep.crashes += sr.crashes;
        rep.respawns += sr.respawns;
        rep.retiredWorkers += sr.retiredWorkers;
        rep.quarantines += sr.quarantines;
        rep.faultsInjectedTotal += sr.faultsInjectedTotal;
        fold64(sig, sr.signature);
        rep.shardReports.push_back(std::move(sr));
    }
    fold64(sig, rep.rounds);
    fold64(sig, rep.requestsOffered);
    fold64(sig, rep.steals);
    fold64(sig, rep.backpressureStalls);
    rep.signature = sig;
    rep.outcomeSetSignature = _outcomeSetSig;

    if (_cfg.metrics != nullptr) {
        telemetry::MetricRegistry &m = *_cfg.metrics;
        const std::string &p = _cfg.metricsPrefix;
        m.counter(p + ".requests_offered").set(rep.requestsOffered);
        m.counter(p + ".requests_served").set(rep.requestsServed);
        m.counter(p + ".requests_shed").set(rep.requestsShed);
        m.counter(p + ".requests_abandoned")
            .set(rep.requestsAbandoned);
        m.counter(p + ".requests_retried").set(rep.requestsRetried);
        m.counter(p + ".steals").set(rep.steals);
        m.counter(p + ".backpressure_stalls")
            .set(rep.backpressureStalls);
        m.counter(p + ".rounds").set(rep.rounds);
        m.gauge(p + ".availability").set(rep.availability);
        m.gauge(p + ".latency_mean_rounds")
            .set(rep.meanLatencyRounds);
        m.counter(p + ".latency_p50_rounds").set(rep.p50Rounds);
        m.counter(p + ".latency_p99_rounds").set(rep.p99Rounds);
        m.counter(p + ".latency_p999_rounds").set(rep.p999Rounds);
        m.counter(p + ".latency_max_rounds").set(rep.maxRounds);
        telemetry::CounterFamily &byOutcome =
            m.family(p + ".requests", { "outcome" });
        byOutcome.at({ "served" }).set(rep.requestsServed);
        byOutcome.at({ "shed_deadline" }).set(rep.requestsShed);
        byOutcome.at({ "abandoned" }).set(rep.requestsAbandoned);
        telemetry::CounterFamily &byKind =
            m.family(p + ".served", { "kind" });
        for (size_t i = 0; i < kNumRequestKinds; ++i) {
            byKind
                .at({ requestKindName(
                    static_cast<RequestKind>(i)) })
                .set(rep.servedByKind[i]);
        }
        telemetry::CounterFamily &byShard =
            m.family(p + ".shard.served", { "shard" });
        for (unsigned k = 0; k < _cfg.shards; ++k) {
            byShard.at({ std::to_string(k) })
                .set(rep.shardReports[k].requestsServed);
        }
    }

    return rep;
}

} // namespace hipstr
