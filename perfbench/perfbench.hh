/**
 * @file
 * Served-path host benchmark: the three workloads (fleet-hostile,
 * fleet-clean, vm-matrix), the in-memory span log of the traced run,
 * and the statistics the driver reports. Everything here drives the
 * src/ libraries through their public entry points only; README.md
 * has the layer -> metric -> workload contract.
 */

#ifndef HIPSTR_PERFBENCH_PERFBENCH_HH
#define HIPSTR_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/fleet.hh"

namespace hipstr::perfbench
{

/** One timed interval of the traced run. Times are seconds since the
 *  log was created; parent is the index of the enclosing span or -1. */
struct Span
{
    std::string name;
    int32_t parent = -1;
    uint32_t run = 0; ///< repeat index within the process
    double start = 0;
    double end = 0;
};

/**
 * Spans kept in memory and written once, at exit. A disabled log
 * records nothing, so the untraced passes pay one branch per call.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : _on(enabled) {}

    bool enabled() const { return _on; }
    /** Seconds since the log was created. */
    double now() const;
    /** Repeat index stamped on spans added from now on. */
    void setRun(uint32_t run) { _run = run; }

    /** Record a closed span; returns its index (-1 when disabled). */
    int32_t add(const char *name, int32_t parent, double start,
                double end);
    /** Open a span now; close() stamps its end. */
    int32_t open(const char *name, int32_t parent = -1);
    void close(int32_t id);

    const std::vector<Span> &spans() const { return _spans; }
    /** One JSON object per line: name, run, parent, start, end. */
    void writeJson(std::ostream &os) const;

  private:
    bool _on;
    uint32_t _run = 0;
    std::chrono::steady_clock::time_point _t0 =
        std::chrono::steady_clock::now();
    std::vector<Span> _spans;
};

/**
 * Self time per span name: each span's duration minus the part of
 * its interval covered by the union of its children, summed over all
 * spans of that name.
 */
std::map<std::string, double> selfTimeByName(
    const std::vector<Span> &spans);

/** Median of @p v (0 for an empty set). */
double median(std::vector<double> v);

/** Geometric mean of positive values (0 for an empty set). */
double geomean(const std::vector<double> &v);

/** A percentile and its nearest-rank value. */
struct Percentile
{
    double pct = 0;
    double value = 0;
};

/**
 * The tail percentile to report for @p samples: the highest of
 * p50/p90/p99/p99.9/p99.99 whose nearest-rank position leaves at
 * least ten samples beyond it. nullopt when even p50 does not
 * (fewer than 20 samples).
 */
std::optional<Percentile> tailPercentile(std::vector<double> samples);

/**
 * Keeps the process on the least contended allowed CPU. On a shared
 * host the vCPUs differ in how contended their physical cores are —
 * by up to 2x for memory-bound code, for tens of seconds at a time —
 * and an unpinned single-threaded run migrates between them. The
 * workloads call repin() between timed sections, never inside one.
 */
class CpuPinner
{
  public:
    CpuPinner();

    /** Probe each allowed CPU with a memory-latency loop (0.12 s in
     *  all) and pin the process to the fastest. No-op with one
     *  allowed CPU. */
    void repin();

    /** The CPU pinned to (-1 before the first repin). */
    int cpu() const { return _cpu; }
    /** Times repin() moved the process to another CPU. */
    unsigned switches() const { return _switches; }

  private:
    std::vector<int> _cpus;
    std::vector<uint64_t> _buf;
    int _cpu = -1;
    unsigned _switches = 0;
};

/** The benchmark's workloads. */
enum class Workload
{
    FleetHostile,
    FleetClean,
    VmMatrix
};

std::optional<Workload> parseWorkload(const std::string &name);
const char *workloadName(Workload w);
/**
 * HIPSTR_JOBS for every workload (recorded as env.jobs). One host
 * thread: on a shared 4-core box fleet wall time spreads +-15% at
 * 2-4 jobs, wider than the benchmark's bounds.
 */
constexpr unsigned kJobs = 1;

/** The seed whose fleet signatures are recorded in perfbench.cc. */
constexpr uint64_t kDefaultSeed = 0;

/**
 * Fleet shape shared by both fleet workloads: 4 shards x 8 workers
 * serving httpd at 6 requests ingested per round, queueCap 64, work
 * stealing on, 1024 sessions on 128 vnodes per shard. @p hostile adds the bench_fleet_serving headline
 * traffic and faults; otherwise benign traffic with faults off.
 */
FleetConfig fleetConfig(bool hostile, uint64_t seed,
                        uint64_t requests);

/** The httpd image the fleets serve. */
FatBinary compileHttpd();

/** Metrics keyed by name; units live in the driver's tables. */
using MetricMap = std::map<std::string, double>;

/** What one workload run produced. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Output-check failures; any entry makes the run incorrect. */
    std::vector<std::string> errors;
    MetricMap endToEnd;
    MetricMap perLayer;
    /** Resolved knobs, printed so two commits can be compared. */
    unsigned jobs = 0;
    bool jitEnabled = false;
    bool tracingEnabled = false;
};

/**
 * Run @p w for about @p seconds of measurement. Untraced, the whole
 * budget measures the end-to-end metrics. Traced (@p log enabled),
 * half the budget repeats the untraced measurement and half runs
 * with spans and the fleet tap attached; the per-layer metrics come
 * from the traced half and the difference is the tracing overhead.
 */
Result runWorkload(Workload w, uint64_t seed, double seconds,
                   SpanLog &log, CpuPinner &pin);

} // namespace hipstr::perfbench

#endif // HIPSTR_PERFBENCH_PERFBENCH_HH
