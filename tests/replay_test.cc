/**
 * @file
 * Tests for the record/replay subsystem: journal round trips,
 * bit-exact replay (full and windowed), the typed rejection of
 * damaged server and fleet journals and of damaged checkpoints, the
 * pinned journal bytes, guest-process checkpoint round trips across
 * every workload/ISA/seed combination, and the TCP introspection
 * server's line protocol.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/campaign.hh"
#include "replay/introspect.hh"
#include "replay/journal.hh"
#include "replay/record_replay.hh"
#include "support/hash.hh"
#include "support/random.hh"
#include "test_util.hh"
#include "workloads/workloads.hh"

using namespace hipstr;
using namespace hipstr::test;
using namespace hipstr::replay;

namespace
{

const FatBinary &
httpdBin()
{
    static const FatBinary bin = [] {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        return compileModule(buildWorkload("httpd", wcfg));
    }();
    return bin;
}

/** Small attack-bearing server configuration (fault-free). */
ServerConfig
smallConfig()
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 60;
    cfg.mix.attackFrac = 0.05;
    cfg.mix.malformedFrac = 0.05;
    cfg.hipstr.diversificationProbability = 0.5;
    return cfg;
}

/** Chaos configuration: faults + scripted ISA outage. */
ServerConfig
chaosConfig()
{
    ServerConfig cfg = smallConfig();
    cfg.requestCount = 80;
    cfg.faults.enabled = true;
    cfg.faults.seed = cfg.seed;
    cfg.faults.quantumFaultRate = 0.01;
    cfg.faults.coreFailRate = 0.002;
    cfg.faults.scriptedOutageIsa = IsaKind::Risc;
    cfg.faults.scriptedOutageRound = 20;
    cfg.faults.scriptedOutageRounds = 15;
    cfg.watchdogQuanta = 3;
    cfg.sched.supervisor.backoffBaseRounds = 2;
    return cfg;
}

/** Small chaos fleet: two shards, faults on, coin flips below 1. */
FleetConfig
smallFleetConfig()
{
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.requestCount = 120;
    cfg.sessions = 16;
    cfg.batchSize = 8;
    cfg.mix.attackFrac = 0.08;
    cfg.mix.malformedFrac = 0.05;
    cfg.server.workers = 3;
    cfg.server.hipstr.diversificationProbability = 0.5;
    cfg.server.watchdogQuanta = 3;
    cfg.server.sched.supervisor.backoffBaseRounds = 2;
    cfg.server.faults.enabled = true;
    cfg.server.faults.quantumFaultRate = 0.01;
    cfg.server.faults.coreFailRate = 0.002;
    return cfg;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<uint8_t>
slurp(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<uint8_t> bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<uint8_t> &bytes)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** Payload length of the record at byte offset @p off. */
uint32_t
recordLength(const std::vector<uint8_t> &bytes, size_t off)
{
    return uint32_t(bytes[off + 1]) | (uint32_t(bytes[off + 2]) << 8) |
        (uint32_t(bytes[off + 3]) << 16) |
        (uint32_t(bytes[off + 4]) << 24);
}

/** Byte offsets of every record with @p tag, in journal order. */
std::vector<size_t>
recordOffsets(const std::vector<uint8_t> &bytes, RecordTag tag)
{
    std::vector<size_t> out;
    size_t off = 8 + 4 + 8; // magic, version, configHash
    while (off + 5 <= bytes.size()) {
        if (bytes[off] == static_cast<uint8_t>(tag))
            out.push_back(off);
        off += 5 + recordLength(bytes, off);
    }
    return out;
}

/** FNV-1a of a whole file. */
uint64_t
fileHash(const std::string &path)
{
    std::vector<uint8_t> bytes = slurp(path);
    uint64_t h = kFnvBasis;
    foldBytes(h, bytes.data(), bytes.size());
    return h;
}

/** The code of the ReplayError @p fn throws; its message goes to
 *  @p what when given. */
ReplayErrc
replayErrcOf(const std::function<void()> &fn,
             std::string *what = nullptr)
{
    try {
        fn();
    } catch (const ReplayError &e) {
        if (what != nullptr)
            *what = e.what();
        return e.code();
    }
    ADD_FAILURE() << "expected a ReplayError";
    return ReplayErrc::Io;
}

} // namespace

// A recorded run replays bit-exactly: every round's sync signature
// verifies and the final report is identical.
TEST(Replay, RecordThenReplayBitExact)
{
    ServerConfig cfg = smallConfig();
    std::string path = tempPath("replay_clean.hjl");
    RecordResult rec = recordRun(httpdBin(), cfg, path);
    EXPECT_EQ(rec.report.requestsServed, cfg.requestCount);
    EXPECT_GT(rec.journalBytes, 0u);

    ReplayResult rep = replayRun(httpdBin(), cfg, path);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.rounds, rec.report.rounds);
    EXPECT_EQ(rep.report.requestsServed, rec.report.requestsServed);
    EXPECT_EQ(rep.report.migrations, rec.report.migrations);
    EXPECT_EQ(rep.report.securityEvents, rec.report.securityEvents);
    EXPECT_EQ(rep.report.totalGuestInsts, rec.report.totalGuestInsts);
    EXPECT_EQ(rep.syncChecks, rec.rounds);
    EXPECT_EQ(rep.startRound, 0u);
}

// Recording must not perturb the run: a recorded run's report is
// byte-identical to a plain run of the same configuration.
TEST(Replay, RecordingIsZeroPerturbation)
{
    ServerConfig cfg = smallConfig();
    ProtectedServer plain(httpdBin(), cfg);
    ServerReport base = plain.run();

    std::string path = tempPath("replay_perturb.hjl");
    RecordResult rec = recordRun(httpdBin(), cfg, path);
    EXPECT_EQ(rec.report.signature, base.signature);
    EXPECT_EQ(rec.report.rounds, base.rounds);
    EXPECT_EQ(rec.report.totalGuestInsts, base.totalGuestInsts);
}

// A chaos run — transient faults, core outages, a scripted full-ISA
// outage window, watchdog kills — records and replays bit-exactly.
TEST(Replay, RecordedChaosRunReplaysBitExact)
{
    ServerConfig cfg = chaosConfig();
    std::string path = tempPath("replay_chaos.hjl");
    RecordResult rec = recordRun(httpdBin(), cfg, path);
    EXPECT_GT(rec.report.faultsInjectedTotal, 0u);

    ReplayResult rep = replayRun(httpdBin(), cfg, path);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.faultsInjectedTotal,
              rec.report.faultsInjectedTotal);
    EXPECT_EQ(rep.report.degradedRounds, rec.report.degradedRounds);
    EXPECT_EQ(rep.report.crashes, rec.report.crashes);
}

// Windowed replay restores a mid-run checkpoint and re-drives only
// the tail, still landing on the identical final report.
TEST(Replay, WindowedReplayFromMidRunSyncPoint)
{
    ServerConfig cfg = chaosConfig();
    std::string path = tempPath("replay_window.hjl");
    RecordOptions opts;
    opts.checkpointEveryRounds = 8;
    RecordResult rec = recordRun(httpdBin(), cfg, path, nullptr, opts);
    ASSERT_GT(rec.checkpoints, 1u);

    uint64_t mid = rec.rounds / 2;
    ReplayResult rep = replayWindow(httpdBin(), cfg, path, mid);
    EXPECT_GT(rep.startRound, 0u);
    EXPECT_LE(rep.startRound, mid);
    EXPECT_LT(rep.rounds, rec.rounds);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.rounds, rec.report.rounds);
    EXPECT_EQ(rep.report.requestsServed, rec.report.requestsServed);
}

/** One journal flavour the damage tests run over. */
struct JournalCase
{
    std::string name;
    /** Record the fixed run to @p path. */
    std::function<void(const std::string &)> record;
    /** Replay @p path under the recorded config, or — @p mismatched —
     *  under one that differs in a single behavioural knob. */
    std::function<void(const std::string &, bool mismatched)> replay;
};

void
PrintTo(const JournalCase &c, std::ostream *os)
{
    *os << c.name;
}

class ReplayDamage : public ::testing::TestWithParam<JournalCase>
{
};

// Damaged journals fail fast with the right typed error — for a lone
// server and a two-shard fleet alike, both with faults on and coin
// flips that can land either way.
TEST_P(ReplayDamage, DamagedJournalsRejectedWithTypedErrors)
{
    const JournalCase &c = GetParam();
    std::string path = tempPath("replay_damage_" + c.name + ".hjl");
    c.record(path);
    std::vector<uint8_t> good = slurp(path);
    ASSERT_GT(good.size(), 40u);
    c.replay(path, false); // the undamaged journal replays

    std::string why;
    auto replayBytes = [&](const std::vector<uint8_t> &bytes) {
        std::string badPath =
            tempPath("replay_damage_" + c.name + "_bad.hjl");
        spit(badPath, bytes);
        return replayErrcOf([&] { c.replay(badPath, false); }, &why);
    };

    // Truncated: lop off the End record and change nothing else.
    EXPECT_EQ(replayBytes({ good.begin(), good.end() - 10 }),
              ReplayErrc::Truncated);
    // Bad magic.
    {
        std::vector<uint8_t> bad = good;
        bad[0] ^= 0xff;
        EXPECT_EQ(replayBytes(bad), ReplayErrc::BadMagic);
    }
    // Bad version.
    {
        std::vector<uint8_t> bad = good;
        bad[8] += 1;
        EXPECT_EQ(replayBytes(bad), ReplayErrc::BadVersion);
    }
    // Unknown record tag.
    {
        std::vector<uint8_t> bad = good;
        std::vector<size_t> syncs = recordOffsets(bad, RecordTag::Sync);
        ASSERT_FALSE(syncs.empty());
        bad[syncs[0]] = 0xee;
        EXPECT_EQ(replayBytes(bad), ReplayErrc::Corrupt);
    }
    // A request of a kind no writer produces.
    {
        std::vector<uint8_t> bad = good;
        std::vector<size_t> reqs =
            recordOffsets(bad, RecordTag::Request);
        ASSERT_FALSE(reqs.empty());
        bad[reqs[0] + 5 + 8] = 0xee; // the kind byte, after the id
        EXPECT_EQ(replayBytes(bad), ReplayErrc::Corrupt);
    }
    // Config mismatch: same journal, one behavioural knob changed.
    EXPECT_EQ(replayErrcOf([&] { c.replay(path, true); }),
              ReplayErrc::ConfigMismatch);
    // A flipped sync signature parses fine but diverges on replay.
    {
        std::vector<uint8_t> bad = good;
        std::vector<size_t> syncs = recordOffsets(bad, RecordTag::Sync);
        ASSERT_FALSE(syncs.empty());
        bad[syncs[0] + 5 + 8] ^= 0x01; // first byte of the signature
        EXPECT_EQ(replayBytes(bad), ReplayErrc::Divergence);
        EXPECT_NE(why.find("sync signature mismatch"), std::string::npos)
            << why;
    }
    // Dropping the last coin flip starves the worker that drew it.
    {
        std::vector<uint8_t> bad = good;
        std::vector<size_t> coins = recordOffsets(bad, RecordTag::Coin);
        ASSERT_FALSE(coins.empty());
        size_t off = coins.back();
        bad.erase(bad.begin() + off,
                  bad.begin() + off + 5 + recordLength(bad, off));
        EXPECT_EQ(replayBytes(bad), ReplayErrc::Divergence);
        EXPECT_NE(why.find("drew more coins than were recorded"),
                  std::string::npos)
            << why;
    }
    // A record whose body is longer than its fields: every record
    // body must be consumed exactly.
    for (RecordTag tag :
         { RecordTag::Request, RecordTag::Coin, RecordTag::Fault,
           RecordTag::Outage, RecordTag::Sync, RecordTag::End }) {
        std::vector<uint8_t> bad = good;
        std::vector<size_t> recs = recordOffsets(bad, tag);
        if (tag == RecordTag::Outage && recs.empty())
            continue; // no core failed in this run
        ASSERT_FALSE(recs.empty()) << "tag " << int(tag);
        size_t off = recs[0];
        uint32_t len = recordLength(bad, off) + 1;
        for (int i = 0; i < 4; ++i)
            bad[off + 1 + i] = uint8_t(len >> (8 * i));
        bad.insert(bad.begin() + off + 5 + (len - 1), 0);
        EXPECT_EQ(replayBytes(bad), ReplayErrc::Corrupt)
            << "tag " << int(tag);
        EXPECT_NE(why.find("trailing bytes"), std::string::npos) << why;
    }
    // A second Request record for an id already drawn.
    {
        std::vector<uint8_t> bad = good;
        std::vector<size_t> reqs =
            recordOffsets(bad, RecordTag::Request);
        ASSERT_FALSE(reqs.empty());
        size_t off = reqs[0];
        std::vector<uint8_t> rec(bad.begin() + off,
                                 bad.begin() + off + 5 +
                                     recordLength(bad, off));
        bad.insert(bad.begin() + off + rec.size(), rec.begin(),
                   rec.end());
        EXPECT_EQ(replayBytes(bad), ReplayErrc::Corrupt);
        EXPECT_NE(why.find("request ids not increasing"),
                  std::string::npos)
            << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Journals, ReplayDamage,
    ::testing::Values(
        JournalCase{ "Server",
                     [](const std::string &p) {
                         recordRun(httpdBin(), chaosConfig(), p);
                     },
                     [](const std::string &p, bool mismatched) {
                         ServerConfig cfg = chaosConfig();
                         cfg.seed += mismatched ? 1 : 0;
                         replayRun(httpdBin(), cfg, p);
                     } },
        JournalCase{ "Fleet",
                     [](const std::string &p) {
                         recordFleetRun(httpdBin(), smallFleetConfig(),
                                        p);
                     },
                     [](const std::string &p, bool mismatched) {
                         FleetConfig cfg = smallFleetConfig();
                         cfg.queueCap += mismatched ? 1 : 0;
                         replayFleetRun(httpdBin(), cfg, p);
                     } }),
    [](const ::testing::TestParamInfo<JournalCase> &info) {
        return info.param.name;
    });

// The journal format is pinned: a fixed server run (checkpoints
// included) and a fixed two-shard fleet run must produce exactly the
// bytes they always have. A deliberate format change bumps
// kJournalVersion and these constants together. Checkpoints carry the
// trace layer's counters, so the runs pin traces on rather than
// following HIPSTR_TRACE.
TEST(Replay, JournalBytesPinned)
{
    const auto tracesOn = PsrConfig::TraceMode::On;
    ServerConfig cfg = chaosConfig();
    cfg.hipstr.psr.traceMode = tracesOn;
    std::string path = tempPath("replay_pin_server.hjl");
    RecordOptions opts;
    opts.checkpointEveryRounds = 8;
    RecordResult rec = recordRun(httpdBin(), cfg, path, nullptr, opts);
    EXPECT_EQ(rec.checkpoints, 10u);
    EXPECT_EQ(fileHash(path), 0x5b3eb57383ce9f97ull);

    FleetConfig fcfg = smallFleetConfig();
    fcfg.server.hipstr.psr.traceMode = tracesOn;
    path = tempPath("replay_pin_fleet.hjl");
    recordFleetRun(httpdBin(), fcfg, path);
    EXPECT_EQ(fileHash(path), 0x3a512e288bb5bb0full);
}

namespace
{

/** One journal record: its tag and payload bytes. */
struct RawRecord
{
    uint8_t tag = 0;
    std::vector<uint8_t> payload;
};

/** The header and records of the journal at @p path, undecoded. */
std::pair<std::vector<uint8_t>, std::vector<RawRecord>>
rawRecords(const std::string &path)
{
    const std::vector<uint8_t> bytes = slurp(path);
    constexpr size_t kHeader = 8 + 4 + 8; // magic, version, configHash
    EXPECT_GE(bytes.size(), kHeader);
    std::vector<RawRecord> out;
    size_t at = kHeader;
    while (at + 5 <= bytes.size()) {
        RawRecord rec;
        rec.tag = bytes[at];
        uint32_t len = 0;
        for (int i = 0; i < 4; ++i)
            len |= uint32_t(bytes[at + 1 + i]) << (8 * i);
        at += 5;
        EXPECT_LE(at + len, bytes.size());
        rec.payload.assign(bytes.begin() + ptrdiff_t(at),
                           bytes.begin() + ptrdiff_t(at + len));
        at += len;
        out.push_back(std::move(rec));
    }
    EXPECT_EQ(at, bytes.size());
    return { std::vector<uint8_t>(bytes.begin(),
                                  bytes.begin() + ptrdiff_t(kHeader)),
             out };
}

/**
 * Restore server checkpoint @p blob under @p cfg and save it again,
 * with every VM's traceFollows folded into its chainFollows when
 * @p fold_split is set. @p trace_follows accumulates the traceFollows
 * seen.
 */
std::vector<uint8_t>
resaveCheckpoint(const ServerConfig &cfg, const std::vector<uint8_t> &blob,
                 bool fold_split, uint64_t &trace_follows)
{
    ProtectedServer srv(httpdBin(), cfg);
    srv.beginRun();
    ByteReader r(blob);
    srv.loadCheckpoint(r);
    EXPECT_TRUE(r.atEnd());
    for (size_t i = 0; i < srv.workers().size(); ++i) {
        for (IsaKind isa : kAllIsas) {
            VmStats &st = srv.worker(i).runtime().vm(isa).stats;
            trace_follows += st.traceFollows;
            if (fold_split) {
                st.chainFollows += st.traceFollows;
                st.traceFollows = 0;
            }
        }
    }
    ByteWriter w;
    srv.saveCheckpoint(w);
    return w.data();
}

} // namespace

// Superblock traces change how a run's block-to-block transfers split
// between chainFollows and traceFollows, and nothing else: recorded
// with traces on and off, the pinned server run journals the same
// records, and the checkpoints differ only in that split — folding
// traceFollows into chainFollows makes them byte-identical. This is
// what licenses re-pinning JournalBytesPinned when a trace-formation
// change moves the split.
TEST(Replay, JournalDiffersOnlyInTraceSplit)
{
    RecordOptions opts;
    opts.checkpointEveryRounds = 8;
    std::vector<ServerConfig> cfgs;
    std::vector<std::pair<std::vector<uint8_t>, std::vector<RawRecord>>>
        journals;
    for (PsrConfig::TraceMode mode :
         { PsrConfig::TraceMode::On, PsrConfig::TraceMode::Off }) {
        ServerConfig cfg = chaosConfig();
        cfg.hipstr.psr.traceMode = mode;
        const std::string path = tempPath("replay_split.hjl");
        recordRun(httpdBin(), cfg, path, nullptr, opts);
        cfgs.push_back(cfg);
        journals.push_back(rawRecords(path));
    }
    const auto &[on_header, on] = journals[0];
    const auto &[off_header, off] = journals[1];
    EXPECT_EQ(on_header, off_header);
    ASSERT_EQ(on.size(), off.size());

    size_t checkpoints = 0;
    uint64_t on_follows = 0, off_follows = 0;
    for (size_t k = 0; k < on.size(); ++k) {
        ASSERT_EQ(on[k].tag, off[k].tag) << "record " << k;
        if (on[k].tag != uint8_t(RecordTag::Checkpoint)) {
            EXPECT_EQ(on[k].payload, off[k].payload) << "record " << k;
            continue;
        }
        ++checkpoints;
        // Payload: round u64, image length u32, the server image.
        constexpr ptrdiff_t kPrefix = 8 + 4;
        const std::vector<uint8_t> on_image(
            on[k].payload.begin() + kPrefix, on[k].payload.end());
        const std::vector<uint8_t> off_image(
            off[k].payload.begin() + kPrefix, off[k].payload.end());
        EXPECT_TRUE(std::equal(on[k].payload.begin(),
                               on[k].payload.begin() + kPrefix,
                               off[k].payload.begin()))
            << "record " << k;
        // Restore + save is lossless, so the fold below is the only
        // difference the comparison can hide.
        uint64_t ignored = 0;
        EXPECT_EQ(resaveCheckpoint(cfgs[0], on_image, false, ignored),
                  on_image)
            << "record " << k;
        EXPECT_EQ(resaveCheckpoint(cfgs[0], on_image, true, on_follows),
                  resaveCheckpoint(cfgs[1], off_image, true, off_follows))
            << "checkpoint record " << k;
    }
    EXPECT_EQ(checkpoints, 10u);
    EXPECT_GT(on_follows, 0u) << "traces never ran: the test is vacuous";
    EXPECT_EQ(off_follows, 0u);
}

namespace
{

/** One single-field change to a hashed config. */
template <class Cfg>
struct Perturbation
{
    const char *field;
    std::function<void(Cfg &)> apply;
};

/** A change to every behavioural field of ServerConfig. */
std::vector<Perturbation<ServerConfig>>
serverBehaviouralFields()
{
    using P = Perturbation<ServerConfig>;
    return {
        P{ "workers", [](ServerConfig &c) { c.workers += 1; } },
        P{ "cmp.riscCores", [](ServerConfig &c) { c.cmp.riscCores += 1; } },
        P{ "cmp.ciscCores", [](ServerConfig &c) { c.cmp.ciscCores += 1; } },
        P{ "sched.quantumInsts",
           [](ServerConfig &c) { c.sched.quantumInsts += 1; } },
        P{ "sched.respawnLimit",
           [](ServerConfig &c) { c.sched.respawnLimit += 1; } },
        P{ "sched.supervisor.backoffBaseRounds",
           [](ServerConfig &c) {
               c.sched.supervisor.backoffBaseRounds += 1;
           } },
        P{ "sched.supervisor.backoffCapRounds",
           [](ServerConfig &c) {
               c.sched.supervisor.backoffCapRounds += 1;
           } },
        P{ "sched.supervisor.quarantineAfter",
           [](ServerConfig &c) {
               c.sched.supervisor.quarantineAfter += 1;
           } },
        P{ "sched.supervisor.quarantineRounds",
           [](ServerConfig &c) {
               c.sched.supervisor.quarantineRounds += 1;
           } },
        P{ "requestCount", [](ServerConfig &c) { c.requestCount += 1; } },
        P{ "seed", [](ServerConfig &c) { c.seed += 1; } },
        P{ "mix.dynamicFrac",
           [](ServerConfig &c) { c.mix.dynamicFrac += 0.125; } },
        P{ "mix.postFrac", [](ServerConfig &c) { c.mix.postFrac += 0.125; } },
        P{ "mix.malformedFrac",
           [](ServerConfig &c) { c.mix.malformedFrac += 0.125; } },
        P{ "mix.attackFrac",
           [](ServerConfig &c) { c.mix.attackFrac += 0.125; } },
        P{ "costs.staticInsts",
           [](ServerConfig &c) { c.costs.staticInsts += 1; } },
        P{ "costs.dynamicInsts",
           [](ServerConfig &c) { c.costs.dynamicInsts += 1; } },
        P{ "costs.postInsts", [](ServerConfig &c) { c.costs.postInsts += 1; } },
        P{ "costs.malformedInsts",
           [](ServerConfig &c) { c.costs.malformedInsts += 1; } },
        P{ "costs.attackInsts",
           [](ServerConfig &c) { c.costs.attackInsts += 1; } },
        P{ "psr.optLevel",
           [](ServerConfig &c) { c.hipstr.psr.optLevel -= 1; } },
        P{ "psr.randSpaceBytes",
           [](ServerConfig &c) { c.hipstr.psr.randSpaceBytes += 1; } },
        P{ "psr.randomizeCallingConvention",
           [](ServerConfig &c) {
               c.hipstr.psr.randomizeCallingConvention = false;
           } },
        P{ "psr.randomizeRegisters",
           [](ServerConfig &c) { c.hipstr.psr.randomizeRegisters = false; } },
        P{ "psr.relocateRegsToMemory",
           [](ServerConfig &c) { c.hipstr.psr.relocateRegsToMemory = false; } },
        P{ "psr.randomizeSlots",
           [](ServerConfig &c) { c.hipstr.psr.randomizeSlots = false; } },
        P{ "psr.codeCacheBytes",
           [](ServerConfig &c) { c.hipstr.psr.codeCacheBytes += 1; } },
        P{ "psr.ratEntries",
           [](ServerConfig &c) { c.hipstr.psr.ratEntries += 1; } },
        P{ "psr.regCacheEntries",
           [](ServerConfig &c) { c.hipstr.psr.regCacheEntries += 1; } },
        P{ "psr.maxSuperblockBlocks",
           [](ServerConfig &c) { c.hipstr.psr.maxSuperblockBlocks += 1; } },
        P{ "psr.traceHotThreshold",
           [](ServerConfig &c) { c.hipstr.psr.traceHotThreshold += 1; } },
        P{ "psr.traceMaxBlocks",
           [](ServerConfig &c) { c.hipstr.psr.traceMaxBlocks += 1; } },
        P{ "psr.isomeronMode",
           [](ServerConfig &c) { c.hipstr.psr.isomeronMode = true; } },
        P{ "psr.seed", [](ServerConfig &c) { c.hipstr.psr.seed += 1; } },
        P{ "hipstr.diversificationProbability",
           [](ServerConfig &c) {
               c.hipstr.diversificationProbability = 0.5;
           } },
        P{ "hipstr.migrateOnSecurityEvents",
           [](ServerConfig &c) {
               c.hipstr.migrateOnSecurityEvents = false;
           } },
        P{ "hipstr.phaseIntervalInsts",
           [](ServerConfig &c) { c.hipstr.phaseIntervalInsts += 1; } },
        P{ "hipstr.migrationLogCap",
           [](ServerConfig &c) { c.hipstr.migrationLogCap += 1; } },
        P{ "hipstr.startIsa",
           [](ServerConfig &c) { c.hipstr.startIsa = IsaKind::Risc; } },
        P{ "hipstr.policySeed",
           [](ServerConfig &c) { c.hipstr.policySeed += 1; } },
        P{ "outputCap", [](ServerConfig &c) { c.outputCap += 1; } },
        P{ "verifyOutput", [](ServerConfig &c) { c.verifyOutput = false; } },
        P{ "faults.enabled", [](ServerConfig &c) { c.faults.enabled = true; } },
        P{ "faults.seed", [](ServerConfig &c) { c.faults.seed += 1; } },
        P{ "faults.quantumFaultRate",
           [](ServerConfig &c) { c.faults.quantumFaultRate += 0.125; } },
        P{ "faults.coreFailRate",
           [](ServerConfig &c) { c.faults.coreFailRate += 0.125; } },
        P{ "faults.outageRoundsMin",
           [](ServerConfig &c) { c.faults.outageRoundsMin += 1; } },
        P{ "faults.outageRoundsMax",
           [](ServerConfig &c) { c.faults.outageRoundsMax += 1; } },
        P{ "faults.wedgeQuantaMin",
           [](ServerConfig &c) { c.faults.wedgeQuantaMin += 1; } },
        P{ "faults.wedgeQuantaMax",
           [](ServerConfig &c) { c.faults.wedgeQuantaMax += 1; } },
        P{ "faults.scriptedOutageIsa",
           [](ServerConfig &c) {
               c.faults.scriptedOutageIsa = IsaKind::Cisc;
           } },
        P{ "faults.scriptedOutageRound",
           [](ServerConfig &c) { c.faults.scriptedOutageRound += 1; } },
        P{ "faults.scriptedOutageRounds",
           [](ServerConfig &c) { c.faults.scriptedOutageRounds += 1; } },
        P{ "watchdogQuanta", [](ServerConfig &c) { c.watchdogQuanta += 1; } },
    };
}

/** Observer objects the observer perturbations point at. */
struct Observers
{
    telemetry::TraceBuffer trace{ 16 };
    telemetry::MetricRegistry metrics;
    ServerTap tap;
    FaultPlan plan{ FaultPlanConfig{} };
    attack::CampaignEngine campaign{ attack::CampaignConfig{} };
};

/** A change to every observer field of ServerConfig. */
std::vector<Perturbation<ServerConfig>>
serverObserverFields(Observers &o)
{
    using P = Perturbation<ServerConfig>;
    return {
        P{ "trace", [&o](ServerConfig &c) { c.trace = &o.trace; } },
        P{ "metrics", [&o](ServerConfig &c) { c.metrics = &o.metrics; } },
        P{ "tap", [&o](ServerConfig &c) { c.tap = &o.tap; } },
        P{ "faultPlanOverride",
           [&o](ServerConfig &c) { c.faultPlanOverride = &o.plan; } },
        P{ "campaign", [&o](ServerConfig &c) { c.campaign = &o.campaign; } },
        P{ "campaignShard", [](ServerConfig &c) { c.campaignShard = 3; } },
        P{ "psr.traceMode",
           [](ServerConfig &c) {
               c.hipstr.psr.traceMode = PsrConfig::TraceMode::Off;
           } },
        P{ "psr.jitMode",
           [](ServerConfig &c) {
               c.hipstr.psr.jitMode = PsrConfig::JitMode::Off;
           } },
        P{ "psr.jitArenaBytes",
           [](ServerConfig &c) { c.hipstr.psr.jitArenaBytes += 1; } },
    };
}

} // namespace

// Config hashes classify every field: a change to any behavioural
// field changes the hash, so a journal recorded under it is refused
// with ConfigMismatch, and a change to any observer field does not.
// The default configurations hash to constants pinned before the
// hashes were derived from the per-struct field lists.
TEST(ConfigHash, EveryFieldClassified)
{
    const uint64_t server = serverConfigHash(ServerConfig{});
    const uint64_t fleet = fleetConfigHash(FleetConfig{});
    EXPECT_EQ(server, 0xaec8e72c8d1f898full);
    EXPECT_EQ(fleet, 0xae4c8fd3b079f7a0ull);

    Observers obs;
    for (const auto &p : serverBehaviouralFields()) {
        ServerConfig c;
        p.apply(c);
        EXPECT_NE(serverConfigHash(c), server) << p.field;
        // Through the fleet's shard template: the fleet derives each
        // shard's request count and seed, so those two alone do not
        // reach the fleet hash.
        FleetConfig f;
        p.apply(f.server);
        const std::string name = p.field;
        if (name == "requestCount" || name == "seed")
            EXPECT_EQ(fleetConfigHash(f), fleet) << "server." << name;
        else
            EXPECT_NE(fleetConfigHash(f), fleet) << "server." << name;
    }
    for (const auto &p : serverObserverFields(obs)) {
        ServerConfig c;
        p.apply(c);
        EXPECT_EQ(serverConfigHash(c), server) << p.field;
        FleetConfig f;
        p.apply(f.server);
        EXPECT_EQ(fleetConfigHash(f), fleet) << "server." << p.field;
    }

    using P = Perturbation<FleetConfig>;
    const std::vector<P> behavioural = {
        P{ "shards", [](FleetConfig &c) { c.shards += 1; } },
        P{ "requestCount", [](FleetConfig &c) { c.requestCount += 1; } },
        P{ "seed", [](FleetConfig &c) { c.seed += 1; } },
        P{ "mix.dynamicFrac",
           [](FleetConfig &c) { c.mix.dynamicFrac += 0.125; } },
        P{ "mix.postFrac", [](FleetConfig &c) { c.mix.postFrac += 0.125; } },
        P{ "mix.malformedFrac",
           [](FleetConfig &c) { c.mix.malformedFrac += 0.125; } },
        P{ "mix.attackFrac",
           [](FleetConfig &c) { c.mix.attackFrac += 0.125; } },
        P{ "costs.staticInsts",
           [](FleetConfig &c) { c.costs.staticInsts += 1; } },
        P{ "costs.dynamicInsts",
           [](FleetConfig &c) { c.costs.dynamicInsts += 1; } },
        P{ "costs.postInsts", [](FleetConfig &c) { c.costs.postInsts += 1; } },
        P{ "costs.malformedInsts",
           [](FleetConfig &c) { c.costs.malformedInsts += 1; } },
        P{ "costs.attackInsts",
           [](FleetConfig &c) { c.costs.attackInsts += 1; } },
        P{ "sessions", [](FleetConfig &c) { c.sessions += 1; } },
        P{ "vnodesPerShard", [](FleetConfig &c) { c.vnodesPerShard += 1; } },
        P{ "queueCap", [](FleetConfig &c) { c.queueCap += 1; } },
        P{ "sloRounds", [](FleetConfig &c) { c.sloRounds += 1; } },
        P{ "batchSize", [](FleetConfig &c) { c.batchSize += 1; } },
        P{ "workStealing", [](FleetConfig &c) { c.workStealing = false; } },
    };
    for (const auto &p : behavioural) {
        FleetConfig c;
        p.apply(c);
        EXPECT_NE(fleetConfigHash(c), fleet) << p.field;
    }
    const std::vector<P> observers = {
        P{ "keepOutcomes", [](FleetConfig &c) { c.keepOutcomes = true; } },
        P{ "permuteShardStep",
           [](FleetConfig &c) { c.permuteShardStep = true; } },
        P{ "trace", [&obs](FleetConfig &c) { c.trace = &obs.trace; } },
        P{ "metrics", [&obs](FleetConfig &c) { c.metrics = &obs.metrics; } },
        P{ "metricsPrefix",
           [](FleetConfig &c) { c.metricsPrefix = "other"; } },
        P{ "tap", [&obs](FleetConfig &c) { c.tap = &obs.tap; } },
        P{ "shardPlanOverrides",
           [&obs](FleetConfig &c) {
               c.shardPlanOverrides.assign(c.shards, &obs.plan);
           } },
        P{ "campaign", [&obs](FleetConfig &c) { c.campaign = &obs.campaign; } },
    };
    for (const auto &p : observers) {
        FleetConfig c;
        p.apply(c);
        EXPECT_EQ(fleetConfigHash(c), fleet) << p.field;
    }
}

namespace
{

/** Open file descriptors of this process (0 without procfs). */
size_t
openFdCount()
{
    std::error_code ec;
    size_t n = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
         !ec && it != std::filesystem::directory_iterator(); ++it)
        ++n;
    return n;
}

} // namespace

// A checkpoint that cannot be written in full is reported as an error
// and leaves no file descriptor behind: a two-worker checkpoint is far
// larger than stdio's buffer, so the write to /dev/full fails short.
TEST(Introspect, FailedCheckpointClosesItsFile)
{
    if (!std::filesystem::exists("/dev/full") ||
        !std::filesystem::exists("/proc/self/fd"))
        GTEST_SKIP() << "needs /dev/full and /proc/self/fd";
    ServerConfig cfg = smallConfig();
    cfg.workers = 2;
    ProtectedServer srv(httpdBin(), cfg);
    srv.beginRun();
    ASSERT_TRUE(srv.stepRound());
    IntrospectionServer intro(srv);

    const size_t before = openFdCount();
    for (int i = 0; i < 3; ++i) {
        std::string resp = intro.handleLine("checkpoint /dev/full");
        EXPECT_EQ(resp.rfind("err short write", 0), 0u) << resp;
    }
    EXPECT_EQ(openFdCount(), before);
}

// Checkpoint round-trip property: for every workload, both start
// ISAs, and eight seeds, a GuestProcess snapshotted at a
// pseudo-random quantum and restored into a fresh process continues
// byte-identically — same lifecycle states, same stats signature,
// same retained-output checksum, same machine state — while its
// translation caches rebuild cold.
TEST(Checkpoint, GuestProcessRoundTripEveryWorkloadIsaSeed)
{
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    Rng pick(0xc0ffee);
    for (const std::string &name : allWorkloadNames()) {
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : { IsaKind::Risc, IsaKind::Cisc }) {
            for (uint64_t seed = 0; seed < 8; ++seed) {
                GuestProcessConfig cfg;
                cfg.pid = uint32_t(seed);
                cfg.seed = 0x5eed00 + seed;
                cfg.alternateStartIsa = false;
                cfg.hipstr.startIsa = isa;
                // Phase migrations force cross-ISA state (RAT,
                // relocation maps, both VMs) into the checkpoint.
                cfg.hipstr.phaseIntervalInsts = 30'000;

                GuestProcess a(bin, cfg);
                a.beginService(120'000);
                uint64_t snapAt = 1 + pick.below(4);
                ByteWriter snap;
                uint64_t q = 0;
                while (a.state() == ProcState::Ready) {
                    if (q == snapAt)
                        a.saveState(snap);
                    a.runQuantum(20'000);
                    ++q;
                }
                ASSERT_GT(q, snapAt)
                    << name << " finished before the snapshot";

                GuestProcess b(bin, cfg);
                ByteReader r(snap.data());
                b.loadState(r);
                EXPECT_TRUE(r.atEnd());
                while (b.state() == ProcState::Ready)
                    b.runQuantum(20'000);

                EXPECT_EQ(a.state(), b.state())
                    << name << "/" << isaName(isa) << "/" << seed;
                EXPECT_EQ(a.statsSignature(), b.statsSignature())
                    << name << "/" << isaName(isa) << "/" << seed;
                EXPECT_EQ(a.os().outputChecksum(),
                          b.os().outputChecksum())
                    << name << "/" << isaName(isa) << "/" << seed;
                EXPECT_EQ(a.isa(), b.isa());
                const MachineState &sa =
                    a.runtime().vm(a.isa()).state;
                const MachineState &sb =
                    b.runtime().vm(b.isa()).state;
                EXPECT_EQ(sa.pc, sb.pc);
                EXPECT_EQ(sa.regs, sb.regs);
                EXPECT_EQ(a.serviceRemaining(),
                          b.serviceRemaining());
            }
        }
    }
}

namespace
{

/** The code of the SerializeError @p fn throws (a failure if none). */
SerializeErrc
serializeErrcOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const SerializeError &e) {
        return e.code();
    }
    ADD_FAILURE() << "expected a SerializeError";
    return SerializeErrc::Corrupt;
}

/** A worker that has run long enough to hold relocation maps. */
std::unique_ptr<GuestProcess>
warmWorker()
{
    GuestProcessConfig cfg;
    cfg.pid = 1;
    auto proc = std::make_unique<GuestProcess>(httpdBin(), cfg);
    proc->beginService(60'000);
    while (proc->state() == ProcState::Ready)
        proc->runQuantum(20'000);
    return proc;
}

} // namespace

// Bytes no writer produces are refused with a typed error before they
// can index anything: the runtime's current ISA (which picks one of
// two VMs), and a relocation map's ISA and register bytes (which
// index machine state through mapReg()).
TEST(Checkpoint, OutOfRangeIsaAndRegisterBytesRejected)
{
    auto proc = warmWorker();
    HipstrRuntime &rt = proc->runtime();
    ByteWriter w;
    rt.saveState(w);
    for (uint8_t bad : { uint8_t(2), uint8_t(0xff) }) {
        std::vector<uint8_t> bytes = w.data();
        bytes[0] = bad; // the current ISA leads the runtime's image
        ByteReader r(bytes);
        EXPECT_EQ(serializeErrcOf([&] { rt.loadState(r); }),
                  SerializeErrc::Corrupt)
            << int(bad);
    }

    // Randomizer image: generation (8), RNG words (32), two phase
    // profiles (48), the map count (4), then the first map's funcId
    // (4), ISA (1) and register permutation.
    Randomizer &rz = rt.vm(rt.currentIsa()).randomizer();
    ByteWriter rw;
    rz.saveState(rw);
    const size_t isaAt = 8 + 32 + 48 + 4 + 4;
    ASSERT_GT(rw.size(), isaAt + 1) << "no relocation map generated";
    for (size_t at : { isaAt, isaAt + 1 }) {
        for (uint8_t bad : { uint8_t(16), uint8_t(0xff) }) {
            std::vector<uint8_t> bytes = rw.data();
            bytes[at] = bad;
            ByteReader r(bytes);
            EXPECT_EQ(serializeErrcOf([&] { rz.loadState(r); }),
                      SerializeErrc::Corrupt)
                << "byte " << at << " = " << int(bad);
        }
    }
}

// A length prefix is checked against the bytes that remain before
// anything is allocated: a 4 GiB retained-output claim in a 43-byte
// guest-OS image fails at once instead of zero-filling 4 GiB (an
// unchecked one fails this test under a memory limit).
TEST(Checkpoint, OversizedLengthPrefixRejected)
{
    GuestOs os;
    ByteWriter w;
    os.saveState(w);
    // Status and counters (39 bytes), then the u32 output length.
    const size_t lenAt = 1 + 8 + 8 + 1 + 4 + 1 + 12 + 4;
    ASSERT_EQ(w.size(), lenAt + 4);
    std::vector<uint8_t> bytes = w.data();
    for (size_t i = 0; i < 4; ++i)
        bytes[lenAt + i] = 0xff;
    ByteReader r(bytes);
    EXPECT_EQ(serializeErrcOf([&] { os.loadState(r); }),
              SerializeErrc::Truncated);
}

/** Offsets n in [0, @p size) at which @p loadPrefix(n) does not
 *  throw SerializeError. */
std::vector<size_t>
truncationsThatLoad(size_t size,
                    const std::function<void(size_t)> &loadPrefix)
{
    std::vector<size_t> loaded;
    for (size_t n = 0; n < size; ++n) {
        try {
            loadPrefix(n);
            loaded.push_back(n);
        } catch (const SerializeError &) {
        }
    }
    return loaded;
}

// Damage sweep over a real server checkpoint (the chaos run the
// pinned journal records). Every truncation fails with a typed
// error, and single bytes overwritten with 0x00 or 0xff across the
// whole image either fail typed or load: nothing aborts or trips a
// sanitizer, and no damaged length prefix sizes an allocation before
// it is checked (an unchecked one asks for gigabytes, which fails
// under ASan or a memory limit). The server a damaged load left
// behind then restores the intact checkpoint byte for byte.
TEST(Checkpoint, DamagedServerCheckpointFailsTyped)
{
    ServerConfig cfg = chaosConfig();
    cfg.hipstr.psr.traceMode = PsrConfig::TraceMode::On;
    std::string path = tempPath("checkpoint_damage.hjl");
    RecordOptions opts;
    opts.checkpointEveryRounds = 8;
    recordRun(httpdBin(), cfg, path, nullptr, opts);
    Journal j = parseJournal(path);
    std::vector<uint8_t> blob;
    for (const auto &[round, data] : j.rounds)
        if (!data.checkpoint.empty())
            blob = data.checkpoint; // the last one: the most state
    ASSERT_FALSE(blob.empty());

    ProtectedServer srv(httpdBin(), cfg);
    srv.beginRun();
    auto load = [&](const uint8_t *p, size_t n) {
        ByteReader r(p, n);
        srv.loadCheckpoint(r);
    };

    // The image ends with the workers' own images, in pid order.
    load(blob.data(), blob.size());
    std::vector<std::vector<uint8_t>> images;
    size_t prefix = blob.size();
    for (const auto &proc : srv.workers()) {
        ByteWriter w;
        proc->saveState(w);
        images.push_back(w.data());
        prefix -= w.size();
    }
    std::vector<uint8_t> tail(blob.begin() + ptrdiff_t(prefix), blob.end());
    std::vector<uint8_t> joined;
    for (const auto &img : images)
        joined.insert(joined.end(), img.begin(), img.end());
    ASSERT_EQ(tail, joined);

    // Truncation at every offset of the server's own fields and of
    // the first worker's image; the other workers' images have the
    // same format. Loading is sequential, so a blob cut inside a
    // worker's image loads everything before it exactly as the intact
    // blob does and then asks that worker to load its image cut at
    // the same point: the worker is swept directly.
    EXPECT_EQ(truncationsThatLoad(
                  prefix, [&](size_t n) { load(blob.data(), n); }),
              std::vector<size_t>{});
    GuestProcess &first = srv.worker(0);
    EXPECT_EQ(truncationsThatLoad(images[0].size(),
                                  [&](size_t n) {
                                      ByteReader r(images[0].data(), n);
                                      first.loadState(r);
                                  }),
              std::vector<size_t>{});

    // Single damaged bytes at a fixed stride across the whole blob.
    const size_t stride = 31;
    size_t refused = 0, loaded = 0;
    for (size_t at = 0; at < blob.size(); at += stride) {
        for (uint8_t v : { uint8_t(0x00), uint8_t(0xff) }) {
            std::vector<uint8_t> bad = blob;
            bad[at] = v;
            try {
                load(bad.data(), bad.size());
                ++loaded;
            } catch (const SerializeError &) {
                ++refused;
            }
        }
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(loaded, 0u);

    load(blob.data(), blob.size());
    ByteWriter again;
    srv.saveCheckpoint(again);
    EXPECT_EQ(again.data(), blob);
}

// The introspection server: line protocol over a real TCP socket —
// guest listing, registers, memory, telemetry, checkpoint-to-disk,
// and stepping a paused run.
TEST(Introspect, LineProtocolOverTcp)
{
    ServerConfig cfg = smallConfig();
    cfg.requestCount = 40;
    ProtectedServer srv(httpdBin(), cfg);
    srv.beginRun();
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(srv.stepRound());

    IntrospectionServer intro(srv);
    ASSERT_GT(intro.port(), 0);
    std::thread server([&] { intro.serve(); });

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(intro.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    std::string pending;
    auto rpc = [&](const std::string &cmd) {
        std::string req = cmd + "\n";
        EXPECT_EQ(::write(fd, req.data(), req.size()),
                  ssize_t(req.size()));
        std::vector<std::string> lines;
        for (;;) {
            size_t nl;
            while ((nl = pending.find('\n')) == std::string::npos) {
                char buf[512];
                ssize_t n = ::read(fd, buf, sizeof(buf));
                if (n <= 0)
                    return lines;
                pending.append(buf, size_t(n));
            }
            std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            lines.push_back(line);
            if (line.rfind("ok", 0) == 0 || line.rfind("err", 0) == 0)
                return lines;
        }
    };
    auto terminator = [](const std::vector<std::string> &lines) {
        return lines.empty() ? std::string() : lines.back();
    };

    std::vector<std::string> status = rpc("status");
    ASSERT_GE(status.size(), 2u);
    EXPECT_EQ(status[0], "round=3");
    EXPECT_EQ(terminator(status), "ok");

    std::vector<std::string> guests = rpc("guests");
    EXPECT_EQ(guests.size(), cfg.workers + 1);
    EXPECT_EQ(guests[0].rfind("guest 0 ", 0), 0u);

    std::vector<std::string> regs = rpc("regs 0");
    EXPECT_EQ(regs.size(), 16u + 2u + 1u);
    EXPECT_EQ(regs[16].rfind("pc=", 0), 0u);
    EXPECT_EQ(terminator(rpc("regs 99")), "err no such guest");

    char memCmd[64];
    std::snprintf(memCmd, sizeof(memCmd), "mem 0 %x 32",
                  unsigned(layout::kDataBase));
    std::vector<std::string> mem = rpc(memCmd);
    EXPECT_EQ(mem.size(), 3u); // two 16-byte lines + ok

    std::vector<std::string> telem = rpc("telemetry");
    EXPECT_EQ(terminator(telem), "ok");
    bool sawRound = false;
    for (const std::string &l : telem)
        sawRound = sawRound || l == "round=3";
    EXPECT_TRUE(sawRound);

    std::string cpPath = tempPath("introspect_checkpoint.bin");
    std::vector<std::string> cp = rpc("checkpoint " + cpPath);
    EXPECT_EQ(cp.back().rfind("ok bytes=", 0), 0u);

    std::vector<std::string> step = rpc("step 2");
    EXPECT_EQ(step.back().rfind("ok stepped=2", 0), 0u);
    EXPECT_EQ(rpc("status")[0], "round=5");

    EXPECT_EQ(terminator(rpc("bogus")),
              "err unknown command: bogus");
    EXPECT_EQ(terminator(rpc("quit")), "ok bye");
    ::close(fd);
    server.join();

    // The checkpoint the protocol wrote restores into a fresh server.
    std::vector<uint8_t> blob = slurp(cpPath);
    ASSERT_GT(blob.size(), 0u);
    ProtectedServer restored(httpdBin(), cfg);
    restored.beginRun();
    ByteReader r(blob);
    restored.loadCheckpoint(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(restored.roundNumber(), 3u);
}
