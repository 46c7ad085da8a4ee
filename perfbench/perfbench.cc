#include "perfbench.hh"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "binary/loader.hh"
#include "compiler/compile.hh"
#include "isa/interp.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/random.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr::perfbench
{

// ---------------------------------------------------------------- spans

double
SpanLog::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - _t0)
        .count();
}

int32_t
SpanLog::add(const char *name, int32_t parent, double start,
             double end)
{
    if (!_on)
        return -1;
    _spans.push_back(Span{ name, parent, _run, start, end });
    return int32_t(_spans.size() - 1);
}

int32_t
SpanLog::open(const char *name, int32_t parent)
{
    if (!_on)
        return -1;
    const double t = now();
    return add(name, parent, t, t);
}

void
SpanLog::close(int32_t id)
{
    if (id >= 0)
        _spans[size_t(id)].end = now();
}

void
SpanLog::writeJson(std::ostream &os) const
{
    char buf[256];
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"name\": \"%s\", \"run\": %u, "
                      "\"parent\": %d, \"start\": %.9f, \"end\": %.9f}\n",
                      i, s.name.c_str(), s.run, s.parent, s.start,
                      s.end);
        os << buf;
    }
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> kids(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const int32_t p = spans[i].parent;
        if (p >= 0 && size_t(p) < spans.size() && size_t(p) != i)
            kids[size_t(p)].push_back(i);
    }
    std::map<std::string, double> out;
    std::vector<std::pair<double, double>> cover;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        cover.clear();
        for (size_t k : kids[i]) {
            const double a = std::max(s.start, spans[k].start);
            const double b = std::min(s.end, spans[k].end);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0, lo = 0, hi = 0;
        bool open = false;
        for (const auto &[a, b] : cover) {
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        out[s.name] += std::max(0.0, (s.end - s.start) - covered);
    }
    return out;
}

// ----------------------------------------------------------- statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logs = 0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / double(v.size()));
}

std::optional<Percentile>
tailPercentile(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    // Percentiles in hundredths of a percent, so the nearest rank
    // ceil(p * n) is exact integer arithmetic.
    for (uint64_t p : { 9999, 9990, 9900, 9000, 5000 }) {
        const uint64_t rank = std::max<uint64_t>(1, (p * n + 9999) / 10000);
        if (rank <= n && n - rank >= 10)
            return Percentile{ double(p) / 100.0, samples[rank - 1] };
    }
    return std::nullopt;
}

// --------------------------------------------------------- CPU pinning

CpuPinner::CpuPinner() : _buf(1 << 20)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                _cpus.push_back(c);
}

namespace
{

bool
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
}

/** Random read-modify-writes over @p buf for @p seconds; millions of
 *  updates per second. */
double
probeMemory(std::vector<uint64_t> &buf, double seconds)
{
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t x = 1, n = 0;
    double elapsed = 0;
    while ((elapsed = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count()) < seconds) {
        for (int i = 0; i < 20'000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            buf[(x >> 40) % buf.size()] += x;
        }
        n += 20'000;
    }
    return double(n) / elapsed / 1e6;
}

} // namespace

void
CpuPinner::repin()
{
    if (_cpus.size() < 2)
        return;
    // 30 ms per CPU, but at most 0.12 s per repin on larger hosts.
    const double probe =
        std::max(0.005, std::min(0.03, 0.12 / double(_cpus.size())));
    int best = -1;
    double bestRate = 0;
    for (int c : _cpus) {
        if (!pinTo(c))
            continue;
        const double rate = probeMemory(_buf, probe);
        if (rate > bestRate) {
            bestRate = rate;
            best = c;
        }
    }
    if (best < 0 || !pinTo(best))
        return;
    if (_cpu >= 0 && best != _cpu)
        ++_switches;
    _cpu = best;
}

// ------------------------------------------------------------ workloads

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : { Workload::FleetHostile, Workload::FleetClean,
                        Workload::VmMatrix }) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::FleetHostile:
        return "fleet-hostile";
    case Workload::FleetClean:
        return "fleet-clean";
    case Workload::VmMatrix:
        return "vm-matrix";
    }
    return "?";
}

FleetConfig
fleetConfig(bool hostile, uint64_t seed, uint64_t requests)
{
    FleetConfig cfg;
    cfg.shards = 4;
    cfg.requestCount = requests;
    cfg.seed = 0xf1ee7 + seed; // seed 0 = bench_fleet_serving's seed
    // Many sessions on a fine ring spread load within a few percent of
    // even: with bench_fleet_serving's 64 sessions and 16 vnodes per
    // shard, 7 of 10 seeds pinned enough sessions to one shard that
    // benign traffic at this ingest rate backed up (up to 7M stalled
    // request-rounds), and fleet-clean must keep up on every seed.
    cfg.sessions = 1024;
    cfg.vnodesPerShard = 128;
    cfg.queueCap = 64;
    cfg.batchSize = 6;
    cfg.workStealing = true;

    ServerConfig &s = cfg.server;
    s.workers = 8;
    s.hipstr.diversificationProbability = 1.0;
    s.watchdogQuanta = 3;
    s.sched.supervisor.backoffBaseRounds = 2;
    s.sched.supervisor.backoffCapRounds = 8;
    s.sched.supervisor.quarantineAfter = 4;
    s.sched.supervisor.quarantineRounds = 16;
    if (hostile) {
        cfg.mix.attackFrac = 0.03;
        cfg.mix.malformedFrac = 0.03;
        s.faults.enabled = true;
        s.faults.quantumFaultRate = 0.005;
        s.faults.coreFailRate = 0.001;
    }
    return cfg;
}

FatBinary
compileHttpd()
{
    WorkloadConfig wc;
    wc.scale = 2;
    return compileModule(buildWorkload("httpd", wc));
}

namespace
{

/** Process CPU seconds (user + system, all threads). */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** The getrusage fields the host layer reports. */
struct Usage
{
    double user = 0;
    double sys = 0;
    double minorFaults = 0;
    double involSwitches = 0;

    static Usage
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        auto secs = [](const timeval &tv) {
            return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
        };
        return Usage{ secs(ru.ru_utime), secs(ru.ru_stime),
                      double(ru.ru_minflt), double(ru.ru_nivcsw) };
    }

    Usage
    operator-(const Usage &o) const
    {
        return Usage{ user - o.user, sys - o.sys,
                      minorFaults - o.minorFaults,
                      involSwitches - o.involSwitches };
    }
};

/** Medians of per-repeat host usage into the host.* metrics. */
void
publishUsage(const std::vector<Usage> &us, MetricMap &m)
{
    std::vector<double> user, sys, flt, ctx;
    for (const Usage &u : us) {
        user.push_back(u.user);
        sys.push_back(u.sys);
        flt.push_back(u.minorFaults);
        ctx.push_back(u.involSwitches);
    }
    m["host.user_s"] = median(user);
    m["host.sys_s"] = median(sys);
    m["host.minor_faults"] = median(flt);
    m["host.invol_ctx_switches"] = median(ctx);
}

/** Counters summed over a set of PSR VMs (fleet workers or cells). */
struct VmTotals
{
    uint64_t translations = 0;
    uint64_t translatedGuestInsts = 0;
    uint64_t ratHits = 0;
    uint64_t ratMisses = 0;
    uint64_t cacheFlushes = 0;
    uint64_t tracesFormed = 0;
    uint64_t tracesInvalidated = 0;
    jit::JitStats jit;
    uint64_t regallocCalls = 0;
    uint64_t relocationCalls = 0;

    void
    add(const PsrVm &vm)
    {
        translations += vm.stats.translations;
        translatedGuestInsts += vm.stats.translatedGuestInsts;
        ratHits += vm.stats.ratHits;
        ratMisses += vm.stats.ratMisses;
        cacheFlushes += vm.stats.cacheFlushes;
        tracesFormed += vm.traceStats().formed;
        tracesInvalidated += vm.traceStats().invalidated;
        const jit::JitStats &j = vm.jitStats();
        jit.compiledTraces += j.compiledTraces;
        jit.codeBytes += j.codeBytes;
        jit.executions += j.executions;
        jit.sideExits += j.sideExits;
        jit.bailouts += j.bailouts;
        jit.invalidated += j.invalidated;
        regallocCalls += vm.randomizer().regallocPhase.invocations;
        relocationCalls += vm.randomizer().relocationPhase.invocations;
    }

    /** core.* and vm.* counters; @p requests normalizes the
     *  translation work per request. */
    void
    publish(MetricMap &m, double requests) const
    {
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
        m["core.translations"] = double(translations);
        m["core.translated_guest_insts"] = double(translatedGuestInsts);
        m["core.translated_insts_per_request"] =
            ratio(double(translatedGuestInsts), requests);
        m["core.regalloc.invocations"] = double(regallocCalls);
        m["core.relocation.invocations"] = double(relocationCalls);
        m["vm.cache_flushes"] = double(cacheFlushes);
        m["vm.rat_hit_ratio"] =
            ratio(double(ratHits), double(ratHits + ratMisses));
        m["vm.trace.formed"] = double(tracesFormed);
        m["vm.trace.invalidated"] = double(tracesInvalidated);
        m["vm.jit.compiled_traces"] = double(jit.compiledTraces);
        m["vm.jit.code_bytes"] = double(jit.codeBytes);
        m["vm.jit.executions"] = double(jit.executions);
        m["vm.jit.bailouts"] = double(jit.bailouts);
        m["vm.jit.side_exit_ratio"] =
            ratio(double(jit.sideExits), double(jit.executions));
        m["vm.jit.wasted_compile_ratio"] =
            ratio(double(jit.invalidated), double(jit.compiledTraces));
    }
};

/** Self time per span name as a share of all root-span time. */
void
publishSelfTime(const SpanLog &log, MetricMap &m)
{
    double roots = 0;
    for (const Span &s : log.spans())
        if (s.parent < 0)
            roots += s.end - s.start;
    for (const auto &[name, self] : selfTimeByName(log.spans()))
        m["self_pct." + name] = roots > 0 ? 100.0 * self / roots : 0;
}

// ---------------------------------------------------------------- fleets

/** Requests per timed fleet run: the bench_fleet_serving headline
 *  size, at which hostile traffic falls well behind. */
constexpr uint64_t kFleetRequests = 30'000;
/** Requests in the default-seed canary run every fleet run makes. */
constexpr uint64_t kCanaryRequests = 600;

struct Signatures
{
    uint64_t signature;
    uint64_t outcomeSet;
};

/** FleetReport signatures recorded at kDefaultSeed, clean / hostile.
 *  Any change in served-path behaviour changes them. @{ */
constexpr Signatures kCanarySigs[2] = {
    { 0xd332567018c03b38ull, 0x63848b4d1074dd99ull },
    { 0x97e0321c05e928beull, 0x0140d700374f39bfull },
};
constexpr Signatures kFullSigs[2] = {
    { 0x0ff2c21bd63fd524ull, 0x2a4a89b76a83c010ull },
    { 0x87999068dae7db56ull, 0xe46d77ad32f89a84ull },
};
/** @} */

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
    return buf;
}

/**
 * Per-round host timing at FleetTap::roundEnd: each round becomes a
 * span under the enclosing fleet.run span, tagged with how many
 * workers respawned during it (GuestProcess::respawnCount diffs).
 */
class RoundTap final : public FleetTap
{
  public:
    struct Round
    {
        double ms;
        uint64_t respawns;
    };

    RoundTap(SpanLog &log, std::vector<Round> &rounds)
        : _log(log), _rounds(rounds)
    {}

    void
    begin(ProtectedFleet &fleet, int32_t runSpan)
    {
        _fleet = &fleet;
        _runSpan = runSpan;
        _respawns = countRespawns();
        _last = _log.now();
    }

    void
    roundEnd(uint64_t round, uint64_t syncSig) override
    {
        (void)round;
        (void)syncSig;
        const double t = _log.now();
        const uint64_t r = countRespawns();
        _rounds.push_back(Round{ 1e3 * (t - _last), r - _respawns });
        _log.add("fleet.round", _runSpan, _last, t);
        _last = t;
        _respawns = r;
    }

  private:
    uint64_t
    countRespawns() const
    {
        uint64_t n = 0;
        for (unsigned k = 0; k < _fleet->shards(); ++k)
            for (const auto &w : _fleet->shard(k).workers())
                n += w->respawnCount();
        return n;
    }

    SpanLog &_log;
    std::vector<Round> &_rounds;
    ProtectedFleet *_fleet = nullptr;
    int32_t _runSpan = -1;
    uint64_t _respawns = 0;
    double _last = 0;
};

/** Output checks every fleet report must pass. */
void
checkFleetReport(const FleetReport &r, uint64_t offered,
                 const std::string &what, Result &res)
{
    auto fail = [&](const std::string &msg) {
        res.errors.push_back(what + ": " + msg);
    };
    if (r.requestsServed + r.requestsShed + r.requestsAbandoned !=
        r.requestsOffered)
        fail("served + shed + abandoned != offered");
    if (r.requestsOffered != offered)
        fail("offered " + std::to_string(r.requestsOffered) + " of " +
             std::to_string(offered));
    if (r.requestsServed != r.requestsOffered)
        fail("served " + std::to_string(r.requestsServed) + " of " +
             std::to_string(r.requestsOffered));
    uint64_t mismatches = 0;
    for (const ServerReport &s : r.shardReports)
        mismatches += s.checksumMismatches;
    if (mismatches != 0)
        fail(std::to_string(mismatches) + " checksum mismatches");
    res.attempted += r.requestsOffered;
    res.failed += r.requestsShed + r.requestsAbandoned + mismatches;
}

void
checkSignatures(const FleetReport &r, const Signatures &want,
                const std::string &what, Result &res)
{
    if (r.signature != want.signature ||
        r.outcomeSetSignature != want.outcomeSet) {
        res.errors.push_back(
            what + ": signatures " + hex(r.signature) + "/" +
            hex(r.outcomeSetSignature) + " differ from recorded " +
            hex(want.signature) + "/" + hex(want.outcomeSet));
    }
}

/** What one pass (a series of fleet repeats) measured. */
struct FleetPass
{
    std::vector<double> setup, compile, construct;
    std::vector<double> rps, cpuUs, mips;
    std::vector<Usage> usage;
};

Result
runFleet(bool hostile, uint64_t seed, double seconds, SpanLog &log,
         CpuPinner &pin)
{
    Result res;
    const int h = hostile ? 1 : 0;

    // Canary: whatever --seed is, a short default-seed run must
    // reproduce its recorded signatures.
    {
        const FatBinary bin = compileHttpd();
        ProtectedFleet fleet(
            bin, fleetConfig(hostile, kDefaultSeed, kCanaryRequests));
        const FleetReport r = fleet.run();
        checkFleetReport(r, kCanaryRequests, "canary", res);
        checkSignatures(r, kCanarySigs[h], "canary", res);
    }

    const FleetConfig cfg =
        fleetConfig(hostile, seed, kFleetRequests);
    std::optional<Signatures> first;
    std::vector<RoundTap::Round> rounds;
    FleetReport lastReport;
    VmTotals lastVms;
    uint64_t lastQuanta = 0;
    uint32_t run = 0;

    auto pass = [&](double budget, bool traced) {
        FleetPass p;
        // Stop when another repeat would overrun the budget by more
        // than half a repeat, so a run lasts about its --seconds.
        const double start = log.now();
        double last = 0;
        while (p.rps.empty() || log.now() - start + last / 2 < budget) {
            const double repeatStart = log.now();
            pin.repin();
            log.setRun(run++);
            const int32_t setupSpan = traced ? log.open("setup") : -1;
            const double t0 = log.now();
            const FatBinary bin = compileHttpd();
            const double t1 = log.now();
            RoundTap tap(log, rounds);
            FleetConfig c = cfg;
            if (traced)
                c.tap = &tap;
            ProtectedFleet fleet(bin, c);
            const double t2 = log.now();
            if (traced) {
                log.add("setup.compile", setupSpan, t0, t1);
                log.add("setup.construct", setupSpan, t1, t2);
                log.close(setupSpan);
            }

            const int32_t runSpan =
                traced ? log.open("fleet.run") : -1;
            if (traced)
                tap.begin(fleet, runSpan);
            const Usage u0 = Usage::now();
            const double c0 = cpuSeconds();
            const double r0 = log.now();
            const FleetReport r = fleet.run();
            const double runS = log.now() - r0;
            const double cpu = cpuSeconds() - c0;
            p.usage.push_back(Usage::now() - u0);
            log.close(runSpan);

            checkFleetReport(r, cfg.requestCount, "fleet run", res);
            const Signatures sig{ r.signature, r.outcomeSetSignature };
            if (!first)
                first = sig;
            checkSignatures(r, *first, "repeat", res);
            if (seed == kDefaultSeed)
                checkSignatures(r, kFullSigs[h], "default seed", res);

            const double served = double(r.requestsServed);
            p.setup.push_back(t2 - t0);
            p.compile.push_back(t1 - t0);
            p.construct.push_back(t2 - t1);
            p.rps.push_back(served / runS);
            p.cpuUs.push_back(1e6 * cpu / served);
            p.mips.push_back(double(r.totalGuestInsts) / runS / 1e6);

            const PsrVm &vm0 =
                fleet.shard(0).workers()[0]->runtime().vm(IsaKind::Cisc);
            res.jitEnabled = vm0.jitEnabled();
            res.tracingEnabled = vm0.tracingEnabled();
            if (traced) {
                lastReport = r;
                lastVms = VmTotals{};
                lastQuanta = 0;
                for (unsigned k = 0; k < fleet.shards(); ++k) {
                    for (const auto &w : fleet.shard(k).workers()) {
                        lastQuanta += w->stats().quanta;
                        for (IsaKind isa : kAllIsas)
                            lastVms.add(w->runtime().vm(isa));
                    }
                }
            }
            last = log.now() - repeatStart;
        }
        return p;
    };

    const bool traced = log.enabled();
    const FleetPass plain = pass(traced ? seconds / 2 : seconds, false);
    MetricMap &e = res.endToEnd;
    e["setup_s"] = median(plain.setup);
    e["requests_per_s"] = median(plain.rps);
    e["cpu_us_per_request"] = median(plain.cpuUs);
    e["guest_mips"] = median(plain.mips);
    if (!traced)
        return res;

    const FleetPass tp = pass(seconds / 2, true);
    MetricMap &m = res.perLayer;
    const FleetReport &r = lastReport;
    m["trace.overhead.requests_per_s"] =
        median(tp.rps) - e["requests_per_s"];
    m["trace.overhead.guest_mips"] = median(tp.mips) - e["guest_mips"];
    m["trace.repeats"] = double(tp.rps.size());

    m["fleet.rounds"] = double(r.rounds);
    m["fleet.stalled_request_rounds"] = double(r.backpressureStalls);
    m["fleet.steals"] = double(r.steals);
    m["fleet.latency_p50_rounds"] = double(r.p50Rounds);
    m["fleet.latency_p99_rounds"] = double(r.p99Rounds);
    std::vector<double> ms;
    double respawnMs = 0, quietMs = 0;
    uint64_t respawnRounds = 0, respawns = 0;
    for (const RoundTap::Round &rd : rounds) {
        ms.push_back(rd.ms);
        if (rd.respawns > 0) {
            respawnMs += rd.ms;
            ++respawnRounds;
            respawns += rd.respawns;
        } else {
            quietMs += rd.ms;
        }
    }
    const uint64_t quietRounds = rounds.size() - respawnRounds;
    const double quietMean = quietRounds ? quietMs / double(quietRounds) : 0;
    const double respawnMean =
        respawnRounds ? respawnMs / double(respawnRounds) : 0;
    m["fleet.round_samples"] = double(ms.size());
    m["fleet.round_ms.p50"] = median(ms);
    if (auto tail = tailPercentile(ms)) {
        m["fleet.round_ms.tail"] = tail->value;
        m["fleet.round_ms.tail_pct"] = tail->pct;
    }

    uint32_t watchdog = 0, denied = 0, aborts = 0;
    double migrationUs = 0;
    for (const ServerReport &s : r.shardReports) {
        watchdog += s.watchdogKills;
        denied += s.migrationsDenied;
        aborts += s.transformAborts;
        migrationUs +=
            s.phases[telemetry::Phase::MigrationTransform].modeledMicros;
    }
    m["server.quanta"] = double(lastQuanta);
    m["server.respawns"] = double(r.respawns);
    m["server.crashes"] = double(r.crashes);
    m["server.faults_injected"] = double(r.faultsInjectedTotal);
    m["server.watchdog_kills"] = double(watchdog);
    m["server.quarantines"] = double(r.quarantines);
    m["server.round_ms.respawn_rounds"] = respawnMean;
    m["server.round_ms.quiet_rounds"] = quietMean;
    m["server.respawn_ms_est"] =
        respawns ? (respawnMs - quietMean * double(respawnRounds)) /
            double(respawns)
                 : 0;

    m["migration.count"] = double(r.migrations);
    m["migration.denied"] = double(denied);
    m["migration.transform_aborts"] = double(aborts);
    m["migration.modeled_us"] = migrationUs;

    lastVms.publish(m, double(r.requestsServed));
    publishUsage(tp.usage, m);
    m["setup.compile_s"] = median(tp.compile);
    m["setup.construct_s"] = median(tp.construct);
    publishSelfTime(log, m);
    return res;
}

// ------------------------------------------------------------- vm-matrix

constexpr uint32_t kVmScale = 3;
/** Guest instructions in one cold start after reRandomize(). */
constexpr uint64_t kColdInsts = 200'000;
/** Guest instructions per timed steady-state slice. */
constexpr uint64_t kWarmSlice = 2'000'000;
/** Host seconds per cell per round, the cold starts' share of them
 *  (the rest is steady state), and the fewest rounds per pass. @{ */
constexpr double kSlotSeconds = 0.2;
constexpr double kColdShare = 0.4;
constexpr unsigned kMinRounds = 3;
/** @} */
/** Complete set-ups per run; setup_s is their median. */
constexpr unsigned kSetupRepeats = 3;
constexpr uint64_t kRunCap = 2'000'000'000;

/** One (program, ISA) cell on its own VM. */
struct Cell
{
    std::string prog;
    IsaKind isa = IsaKind::Risc;
    const FatBinary *bin = nullptr;
    std::unique_ptr<Memory> mem;
    std::unique_ptr<GuestOs> os;
    std::unique_ptr<PsrVm> vm;
    uint64_t refChecksum = 0;
    uint32_t refExit = 0;
    std::vector<double> coldMips, warmMips;

    std::string
    name() const
    {
        return prog + "." + isaName(isa);
    }

    /**
     * Fresh program image and entry; the VM keeps its translations.
     * Unlike a respawn this does not zero heap and stack first: the
     * programs never read memory they did not write (every run's
     * output is checked), and an 8 MiB memset before each timed run
     * would make its rate depend on how contended the host's caches
     * are.
     */
    void
    reload()
    {
        loadFatBinary(*bin, *mem);
        restart();
    }

    /** Warm restart after a clean exit, as a server worker restarts
     *  httpd: same image, fresh OS state and entry point. The
     *  programs leave their inputs intact, so every rerun's output
     *  still matches the reference. */
    void
    restart()
    {
        os->reset();
        vm->reset();
    }
};

/** The loaded matrix: binaries own the code the cells run. */
struct Matrix
{
    std::vector<std::unique_ptr<FatBinary>> bins;
    std::vector<Cell> cells;
};

uint64_t
cellSeed(uint64_t seed, size_t cell)
{
    uint64_t s = seed * 0x9e3779b97f4a7c15ull + cell;
    return splitMix64(s);
}

/** Compile, construct and run the reference interpreter, timed. */
Matrix
setUpMatrix(uint64_t seed, double times[3], SpanLog &log)
{
    Matrix mx;
    const int32_t setupSpan = log.open("setup");
    double t = log.now();
    auto lap = [&](const char *name) {
        const double now = log.now();
        log.add(name, setupSpan, t, now);
        return now - std::exchange(t, now);
    };

    for (const std::string &prog : specWorkloadNames()) {
        WorkloadConfig wc;
        wc.scale = kVmScale;
        mx.bins.push_back(std::make_unique<FatBinary>(
            compileModule(buildWorkload(prog, wc))));
    }
    times[0] = lap("setup.compile");

    for (size_t p = 0; p < mx.bins.size(); ++p) {
        for (IsaKind isa : kAllIsas) {
            Cell c;
            c.prog = specWorkloadNames()[p];
            c.isa = isa;
            c.bin = mx.bins[p].get();
            c.mem = std::make_unique<Memory>();
            c.os = std::make_unique<GuestOs>();
            loadFatBinary(*c.bin, *c.mem);
            PsrConfig pc;
            pc.seed = cellSeed(seed, mx.cells.size());
            c.vm = std::make_unique<PsrVm>(*c.bin, isa, *c.mem, *c.os, pc);
            c.vm->reset();
            mx.cells.push_back(std::move(c));
        }
    }
    times[1] = lap("setup.construct");

    // One reference run per program: guest output is ISA-independent,
    // so the shorter Risc run checks the cells of both ISAs.
    for (size_t p = 0; p < mx.bins.size(); ++p) {
        const FatBinary &bin = *mx.bins[p];
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        Interpreter interp(IsaKind::Risc, mem, os);
        initMachineState(interp.state, bin, IsaKind::Risc);
        const RunResult r = interp.run(kRunCap);
        if (r.reason != StopReason::Exited)
            hipstr_fatal("reference run of %s did not exit: %s",
                         specWorkloadNames()[p].c_str(),
                         stopReasonName(r.reason));
        for (Cell &c : mx.cells) {
            if (c.bin == &bin) {
                c.refChecksum = os.outputChecksum();
                c.refExit = os.exitCode();
            }
        }
    }
    times[2] = lap("setup.reference");
    log.close(setupSpan);
    return mx;
}

/** What one pass over the matrix measured, one sample per round. */
struct MatrixPass
{
    std::vector<double> requestsPerS, cpuUsPerRequest;
    uint64_t coldStarts = 0;
    double rerandomizeSeconds = 0;
    Usage usage;
};

/** Verify a completed program run against the reference. */
void
checkExit(const Cell &c, const VmRunResult &r, Result &res)
{
    ++res.attempted;
    if (r.reason == VmStop::Exited &&
        c.os->outputChecksum() == c.refChecksum &&
        c.os->exitCode() == c.refExit)
        return;
    ++res.failed;
    res.errors.push_back(c.name() + ": run stopped with " +
                         vmStopName(r.reason) + ", checksum " +
                         hex(c.os->outputChecksum()) + " vs reference " +
                         hex(c.refChecksum));
}

/**
 * Rounds until @p budget is spent. Each round first sweeps the cells
 * with cold starts, then with steady-state runs, for kSlotSeconds per
 * cell split by kColdShare. Rates are medians over rounds, and both
 * phases sample the whole pass, so a host slowdown covering less than
 * half of it moves neither.
 */
MatrixPass
runMatrixPass(Matrix &mx, double budget, SpanLog &log, CpuPinner &pin,
              Result &res)
{
    MatrixPass p;
    const Usage u0 = Usage::now();
    for (Cell &c : mx.cells) {
        c.coldMips.clear();
        c.warmMips.clear();
    }
    const double coldSlot = kColdShare * kSlotSeconds;
    const double warmSlot = kSlotSeconds - coldSlot;
    const double start = log.now();
    for (unsigned round = 0;
         round < kMinRounds || log.now() - start < budget; ++round) {
        pin.repin();

        // Cold: reRandomize() and the first kColdInsts of the program,
        // repeated. The image reload between starts is not timed.
        const int32_t coldSpan = log.open("vm.cold");
        uint64_t starts = 0;
        double timedAll = 0, cpuAll = 0;
        for (Cell &c : mx.cells) {
            double timed = 0;
            uint64_t insts = 0;
            const double slotStart = log.now();
            while (insts == 0 || log.now() - slotStart < coldSlot) {
                c.reload();
                const uint64_t before = c.vm->stats.guestInsts;
                const double cpu0 = cpuSeconds();
                const double t0 = log.now();
                c.vm->reRandomize();
                const double t1 = log.now();
                const VmRunResult r = c.vm->run(kColdInsts);
                const double t2 = log.now();
                cpuAll += cpuSeconds() - cpu0;
                const int32_t s = log.add("vm.cold_start", coldSpan, t0, t2);
                log.add("vm.rerandomize", s, t0, t1);
                log.add("vm.run", s, t1, t2);
                // Programs shorter than kColdInsts finish inside the
                // cold start; their output is checked like any run.
                if (r.reason == VmStop::StepLimit)
                    ++res.attempted;
                else
                    checkExit(c, r, res);
                insts += c.vm->stats.guestInsts - before;
                timed += t2 - t0;
                p.rerandomizeSeconds += t1 - t0;
                ++starts;
            }
            timedAll += timed;
            c.coldMips.push_back(double(insts) / timed / 1e6);
        }
        p.coldStarts += starts;
        p.requestsPerS.push_back(double(starts) / timedAll);
        p.cpuUsPerRequest.push_back(1e6 * cpuAll / double(starts));
        log.close(coldSpan);

        // Steady: the cold sweep left every VM re-randomized, so each
        // cell first finishes one program run untimed (hot code
        // translated and compiled), then times kWarmSlice slices,
        // restarting the program whenever it exits. Every completed
        // program run is checked against the reference.
        const int32_t warmSpan = log.open("vm.steady");
        for (Cell &c : mx.cells) {
            c.reload();
            VmRunResult r;
            do
                r = c.vm->run(kWarmSlice);
            while (r.reason == VmStop::StepLimit);
            checkExit(c, r, res);
            c.restart();

            double timed = 0;
            uint64_t insts = 0;
            const double slotStart = log.now();
            while (insts == 0 || log.now() - slotStart < warmSlot) {
                const uint64_t before = c.vm->stats.guestInsts;
                const double t0 = log.now();
                r = c.vm->run(kWarmSlice);
                const double t1 = log.now();
                log.add("vm.run", warmSpan, t0, t1);
                insts += c.vm->stats.guestInsts - before;
                timed += t1 - t0;
                if (r.reason != VmStop::StepLimit) {
                    checkExit(c, r, res);
                    c.restart();
                }
            }
            c.warmMips.push_back(double(insts) / timed / 1e6);
        }
        log.close(warmSpan);
    }
    p.usage = Usage::now() - u0;
    return p;
}

Result
runVmMatrix(uint64_t seed, double seconds, SpanLog &log, CpuPinner &pin)
{
    Result res;
    std::vector<double> setup, compile, construct, reference;
    Matrix mx;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        mx = Matrix{}; // one matrix alive at a time
        double t[3];
        mx = setUpMatrix(seed, t, log);
        compile.push_back(t[0]);
        construct.push_back(t[1]);
        reference.push_back(t[2]);
        setup.push_back(t[0] + t[1] + t[2]);
    }
    res.jitEnabled = mx.cells[0].vm->jitEnabled();
    res.tracingEnabled = mx.cells[0].vm->tracingEnabled();

    auto summarize = [&](const MatrixPass &p, MetricMap &m) {
        std::vector<double> warm, cold;
        for (const Cell &c : mx.cells) {
            warm.push_back(median(c.warmMips));
            cold.push_back(median(c.coldMips));
        }
        m["requests_per_s"] = median(p.requestsPerS);
        m["cpu_us_per_request"] = median(p.cpuUsPerRequest);
        m["guest_mips"] = geomean(warm);
        m["vm.cold_mips"] = geomean(cold);
    };

    const bool traced = log.enabled();
    // The untraced pass records no spans even in a traced run.
    SpanLog quiet(false);
    const MatrixPass plain =
        runMatrixPass(mx, traced ? seconds / 2 : seconds, quiet, pin, res);
    MetricMap &e = res.endToEnd;
    e["setup_s"] = median(setup);
    summarize(plain, e);
    e.erase("vm.cold_mips");
    if (!traced)
        return res;

    const MatrixPass tp = runMatrixPass(mx, seconds / 2, log, pin, res);
    MetricMap &m = res.perLayer;
    MetricMap t;
    summarize(tp, t);
    m["trace.overhead.requests_per_s"] =
        t["requests_per_s"] - e["requests_per_s"];
    m["trace.overhead.guest_mips"] = t["guest_mips"] - e["guest_mips"];
    m["trace.repeats"] = 1;
    m["vm.cold_mips"] = t["vm.cold_mips"];
    m["vm.warm_mips"] = t["guest_mips"];
    for (const Cell &c : mx.cells) {
        m["vm.warm_mips." + c.name()] = median(c.warmMips);
        m["vm.cold_mips." + c.name()] = median(c.coldMips);
    }
    m["vm.rerandomize_us"] =
        1e6 * tp.rerandomizeSeconds / double(tp.coldStarts);

    VmTotals totals;
    for (const Cell &c : mx.cells)
        totals.add(*c.vm);
    totals.publish(m, double(plain.coldStarts + tp.coldStarts));
    publishUsage({ tp.usage }, m);
    m["setup.compile_s"] = median(compile);
    m["setup.construct_s"] = median(construct);
    m["setup.reference_s"] = median(reference);
    publishSelfTime(log, m);
    return res;
}

} // namespace

Result
runWorkload(Workload w, uint64_t seed, double seconds, SpanLog &log,
            CpuPinner &pin)
{
    pin.repin();
    Result r = w == Workload::VmMatrix
        ? runVmMatrix(seed, seconds, log, pin)
        : runFleet(w == Workload::FleetHostile, seed, seconds, log, pin);
    r.jobs = hipstrJobs();
    return r;
}

} // namespace hipstr::perfbench
