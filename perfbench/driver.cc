/**
 * @file
 * Benchmark driver: one workload run, printed as a metric table and,
 * on the last line of stdout, one JSON object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding every end-to-end metric (--trace 0) or every per-layer
 * metric (--trace 1). Exits 1 when an output check fails and 2 on a
 * usage or environment error.
 *
 *   hipstr_perfbench --workload <fleet-hostile|fleet-clean|vm-matrix>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--spans <file>]
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "workloads/workloads.hh"

using namespace hipstr;
using namespace hipstr::perfbench;

namespace
{

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        { "setup_s", "s" },
        { "requests_per_s", "req/s" },
        { "cpu_us_per_request", "us" },
        { "guest_mips", "Minst/s" },
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            { "env.jobs", "count" },
            { "env.jit_enabled", "flag" },
            { "env.tracing_enabled", "flag" },
            { "trace.overhead.requests_per_s", "req/s" },
            { "trace.overhead.guest_mips", "Minst/s" },
            { "trace.repeats", "count" },
            { "trace.spans", "count" },
            { "fleet.rounds", "count" },
            { "fleet.stalled_request_rounds", "count" },
            { "fleet.steals", "count" },
            { "fleet.latency_p50_rounds", "rounds" },
            { "fleet.latency_p99_rounds", "rounds" },
            { "fleet.round_samples", "count" },
            { "fleet.round_ms.p50", "ms" },
            { "fleet.round_ms.tail", "ms" },
            { "fleet.round_ms.tail_pct", "%" },
            { "server.quanta", "count" },
            { "server.respawns", "count" },
            { "server.crashes", "count" },
            { "server.faults_injected", "count" },
            { "server.watchdog_kills", "count" },
            { "server.quarantines", "count" },
            { "server.round_ms.respawn_rounds", "ms" },
            { "server.round_ms.quiet_rounds", "ms" },
            { "server.respawn_ms_est", "ms" },
            { "migration.count", "count" },
            { "migration.denied", "count" },
            { "migration.transform_aborts", "count" },
            { "migration.modeled_us", "us" },
            { "core.translations", "count" },
            { "core.translated_guest_insts", "count" },
            { "core.translated_insts_per_request", "inst/req" },
            { "core.regalloc.invocations", "count" },
            { "core.relocation.invocations", "count" },
            { "vm.cache_flushes", "count" },
            { "vm.rat_hit_ratio", "ratio" },
            { "vm.trace.formed", "count" },
            { "vm.trace.invalidated", "count" },
            { "vm.jit.compiled_traces", "count" },
            { "vm.jit.code_bytes", "bytes" },
            { "vm.jit.executions", "count" },
            { "vm.jit.bailouts", "count" },
            { "vm.jit.side_exit_ratio", "ratio" },
            { "vm.jit.wasted_compile_ratio", "ratio" },
            { "vm.rerandomize_us", "us" },
            { "vm.warm_mips", "Minst/s" },
            { "vm.cold_mips", "Minst/s" },
        };
        for (const char *phase : { "warm", "cold" })
            for (const std::string &prog : specWorkloadNames())
                for (IsaKind isa : kAllIsas)
                    d.push_back({ std::string("vm.") + phase + "_mips." +
                                      prog + "." + isaName(isa),
                                  "Minst/s" });
        for (const char *name :
             { "host.user_s", "host.sys_s", "setup.compile_s",
               "setup.construct_s", "setup.reference_s" })
            d.push_back({ name, "s" });
        d.push_back({ "host.cpu_switches", "count" });
        d.push_back({ "host.minor_faults", "count" });
        d.push_back({ "host.invol_ctx_switches", "count" });
        for (const char *span :
             { "setup", "setup.compile", "setup.construct",
               "setup.reference", "fleet.run", "fleet.round", "vm.cold",
               "vm.cold_start", "vm.rerandomize", "vm.run",
               "vm.steady" })
            d.push_back({ std::string("self_pct.") + span, "%" });
        return d;
    }();
    return defs;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: hipstr_perfbench --workload "
                 "<fleet-hostile|fleet-clean|vm-matrix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n",
                 msg);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0' || errno != 0)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

/**
 * Environment pinning: knobs that change which layers run (or make
 * the run record/replay) are refused, and HIPSTR_JOBS is fixed, so
 * two commits measure the same configuration.
 */
void
pinEnvironment()
{
    for (const char *knob : { "HIPSTR_TRACE", "HIPSTR_JIT",
                              "HIPSTR_BENCH_SMOKE", "HIPSTR_RECORD",
                              "HIPSTR_REPLAY" }) {
        const char *v = std::getenv(knob);
        if (v != nullptr && *v != '\0') {
            std::fprintf(stderr,
                         "error: %s=%s is set; the benchmark measures "
                         "the default layer configuration only\n",
                         knob, v);
            std::exit(2);
        }
    }
    setenv("HIPSTR_JOBS", std::to_string(kJobs).c_str(), 1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    uint64_t seed = 0, seconds = 0, trace = 2;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            seed = parseUnsigned("--seed", val), haveSeed = true;
        else if (flag == "--seconds")
            seconds = parseUnsigned("--seconds", val);
        else if (flag == "--trace")
            trace = parseUnsigned("--trace", val);
        else if (flag == "--spans")
            spansPath = val;
        else
            usage(("unknown flag " + flag).c_str());
    }
    const std::optional<Workload> w = parseWorkload(workload);
    if (!w)
        usage("unknown or missing --workload");
    if (!haveSeed || seconds < 1 || seconds > 60 || trace > 1)
        usage("--seed, --seconds (1-60) and --trace (0|1) are required");
    pinEnvironment();

    SpanLog log(trace == 1);
    CpuPinner pin;
    Result r = runWorkload(*w, seed, double(seconds), log, pin);

    MetricMap &out = trace ? r.perLayer : r.endToEnd;
    const std::vector<MetricDef> &defs =
        trace ? perLayerMetrics() : endToEndMetrics();
    if (trace) {
        out["env.jobs"] = r.jobs;
        out["env.jit_enabled"] = r.jitEnabled;
        out["env.tracing_enabled"] = r.tracingEnabled;
        out["trace.spans"] = double(log.spans().size());
        out["host.cpu_switches"] = pin.switches();
    }
    for (const auto &[name, value] : out) {
        bool known = false;
        for (const MetricDef &d : defs)
            known = known || d.name == name;
        if (!known)
            r.errors.push_back("undeclared metric " + name);
    }
    for (const MetricDef &d : defs) {
        if (out.count(d.name) == 0) {
            if (!trace)
                r.errors.push_back("missing metric " + d.name);
            out[d.name] = 0; // layer not exercised by this workload
        }
        if (!std::isfinite(out[d.name])) {
            r.errors.push_back("non-finite metric " + d.name);
            out[d.name] = 0;
        }
    }

    if (trace && !spansPath.empty()) {
        std::ofstream f(spansPath);
        log.writeJson(f);
        if (!f)
            r.errors.push_back("cannot write spans to " + spansPath);
    }

    const bool correct = r.errors.empty() && r.failed == 0;
    std::printf("workload %s seed %llu seconds %llu trace %llu\n",
                workloadName(*w), (unsigned long long)seed,
                (unsigned long long)seconds, (unsigned long long)trace);
    std::printf("resolved: HIPSTR_JOBS=%u jitEnabled=%d "
                "tracingEnabled=%d last cpu %d (%u switches)\n",
                r.jobs, int(r.jitEnabled), int(r.tracingEnabled), pin.cpu(),
                pin.switches());
    for (size_t i = 0; i < r.errors.size() && i < 20; ++i)
        std::fprintf(stderr, "check failed: %s\n", r.errors[i].c_str());
    if (r.errors.size() > 20)
        std::fprintf(stderr, "... and %zu more failed checks\n",
                     r.errors.size() - 20);
    std::printf("attempted %llu failed %llu correct %s\n",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed, correct ? "yes" : "no");
    for (const MetricDef &d : defs)
        std::printf("  %-40s %16.6g %s\n", d.name.c_str(), out[d.name],
                    d.unit.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < defs.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", out[defs[i].name]);
        json += (i ? ", \"" : "\"") + defs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit +
            "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
