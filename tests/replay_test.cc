/**
 * @file
 * Tests for the record/replay subsystem: journal round trips,
 * bit-exact replay (full and windowed), the typed rejection of
 * damaged server and fleet journals, the pinned journal bytes,
 * guest-process checkpoint round trips across every workload/ISA/seed
 * combination, and the TCP introspection server's line protocol.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "replay/introspect.hh"
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
    EXPECT_EQ(fileHash(path), 0x15f3d9d7171c37e7ull);

    FleetConfig fcfg = smallFleetConfig();
    fcfg.server.hipstr.psr.traceMode = tracesOn;
    path = tempPath("replay_pin_fleet.hjl");
    recordFleetRun(httpdBin(), fcfg, path);
    EXPECT_EQ(fileHash(path), 0x3a512e288bb5bb0full);
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
