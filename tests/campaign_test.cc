/**
 * @file
 * Adaptive adversary campaign tests:
 *
 *  - belief-state mechanics: without-replacement sweeps, ISA
 *    inference, and the crash-epoch reset that models Section 5.3
 *    respawn-with-reRandomize;
 *  - campaign determinism: identical configurations produce
 *    byte-identical reports, across thread counts, across the
 *    fleet's shard-step interleaving knob, and across record/replay
 *    (a journaled hostile run replays bit-exactly with no engine);
 *  - the headline security claim: feedback-driven strategies reach
 *    first compromise in strictly fewer probes than the outcome-blind
 *    one-shot baseline at an equal probe budget;
 *  - supervisor hardening shaken out by the campaigns: the infirmary
 *    backoff saturates (no shift overflow) past 64 consecutive
 *    crashes, and a full-ISA blackout on one shard mid-campaign
 *    loses nothing and leaves degraded mode exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attack/campaign.hh"
#include "fault/plan.hh"
#include "fleet/fleet.hh"
#include "replay/record_replay.hh"
#include "support/parallel.hh"
#include "test_util.hh"
#include "workloads/workloads.hh"

using namespace hipstr;
using namespace hipstr::test;

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

/** A lone protected server under one campaign. */
struct CampaignRun
{
    ServerReport server;
    attack::CampaignReport camp;
};

CampaignRun
runServerCampaign(attack::CampaignStrategy s, uint64_t attackerSeed,
                  uint64_t probeBudget, double divProb = 1.0,
                  uint32_t randSpaceBytes = 32768)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 1500;
    cfg.hipstr.diversificationProbability = divProb;
    cfg.hipstr.psr.randSpaceBytes = randSpaceBytes;

    attack::CampaignConfig ccfg = attack::campaignConfigFor(
        s, attackerSeed, cfg.seed, cfg.hipstr.psr.randSpaceBytes,
        divProb, 1);
    ccfg.probeBudget = probeBudget;
    attack::CampaignEngine eng(ccfg);
    cfg.campaign = &eng;

    ProtectedServer srv(httpdBin(), cfg);
    CampaignRun out;
    out.server = srv.run();
    out.camp = eng.report();
    return out;
}

/** Hostile fleet configuration shared by the invariance tests. */
FleetConfig
hostileFleetConfig()
{
    FleetConfig cfg;
    cfg.shards = 3;
    cfg.requestCount = 600;
    cfg.sessions = 48;
    cfg.batchSize = 16;
    cfg.keepOutcomes = true;
    cfg.server.workers = 4;
    cfg.server.watchdogQuanta = 3;
    cfg.server.sched.respawnLimit = 0;
    cfg.server.sched.supervisor.backoffBaseRounds = 2;
    cfg.server.sched.supervisor.backoffCapRounds = 8;
    cfg.server.sched.supervisor.quarantineAfter = 4;
    cfg.server.sched.supervisor.quarantineRounds = 20;
    return cfg;
}

attack::CampaignConfig
fleetCampaignConfig(const FleetConfig &cfg,
                    attack::CampaignStrategy s)
{
    attack::CampaignConfig ccfg = attack::campaignConfigFor(
        s, 0xbadc0de, cfg.seed,
        cfg.server.hipstr.psr.randSpaceBytes,
        cfg.server.hipstr.diversificationProbability, cfg.shards);
    ccfg.probeFrac = 0.5; // hostile tenant among benign traffic
    return ccfg;
}

struct FleetCampaignRun
{
    FleetReport fleet;
    attack::CampaignReport camp;
};

FleetCampaignRun
runFleetCampaign(FleetConfig cfg, const attack::CampaignConfig &ccfg,
                 unsigned jobs)
{
    ThreadPool::setGlobalThreads(jobs > 0 ? jobs - 1 : 0);
    attack::CampaignEngine eng(ccfg);
    cfg.campaign = &eng;
    ProtectedFleet fleet(httpdBin(), cfg);
    FleetCampaignRun out;
    out.fleet = fleet.run();
    out.camp = eng.report();
    ThreadPool::setGlobalThreads(0);
    return out;
}

/** Disposal-ledger invariants (mirrors the fleet_test checker). */
void
checkLedger(const FleetConfig &cfg, const FleetReport &r)
{
    EXPECT_EQ(r.requestsOffered,
              r.requestsServed + r.requestsShed +
                  r.requestsAbandoned);
    ASSERT_EQ(r.outcomes.size(), r.requestsOffered);
    std::set<uint64_t> ids;
    for (const FleetOutcomeRec &o : r.outcomes) {
        EXPECT_TRUE(ids.insert(o.id).second)
            << "request " << o.id << " disposed twice";
        EXPECT_LT(o.id, cfg.requestCount);
    }
}

uint64_t
medianTtc(const std::vector<uint64_t> &v)
{
    std::vector<uint64_t> s = v;
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
}

} // namespace

TEST(Belief, SweepsWithoutReplacementAndResetsOnCrash)
{
    attack::BeliefState b(8, 1.0);

    // The sweep emits every value exactly once when each failure is
    // learned, then restarts once the space is exhausted.
    std::set<uint32_t> seen;
    for (unsigned i = 0; i < 8; ++i) {
        uint32_t g = b.nextGuess(0, 0);
        EXPECT_TRUE(seen.insert(g).second) << "repeated guess " << g;
        b.noteProbeResult(0, 0, g, IsaKind::Risc, /*sentRound=*/i,
                          /*leaked=*/true,
                          /*servedIsa=*/IsaKind::Cisc);
    }
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(b.stats().exclusionsLearned, 8u);
    EXPECT_EQ(b.stats().sweepRestarts, 0u);

    // With migrationProb = 1.0 a completion on Cisc means the probe
    // was staged on Risc, and the worker now *sits* on Cisc — so the
    // next staging prediction follows the completion ISA directly.
    EXPECT_EQ(b.inferStagingIsa(IsaKind::Cisc), IsaKind::Risc);
    EXPECT_EQ(b.predictedStagingIsa(0, 0), IsaKind::Cisc);

    // With the whole space "disproven", the next draw concedes an
    // attribution error somewhere and re-sweeps from scratch.
    (void)b.nextGuess(0, 0);
    EXPECT_EQ(b.stats().sweepRestarts, 1u);

    // Rebuild a partial exclusion set, then crash: a crash
    // re-randomizes, so exclusions drop, the epoch advances, and the
    // recovery window opens until the next serviced probe.
    b.noteProbeResult(0, 0, 5, IsaKind::Risc, /*sentRound=*/50,
                      /*leaked=*/true, IsaKind::Cisc);
    ASSERT_FALSE(b.find(0, 0)->excluded.empty());
    b.noteCrash(0, 0, 100);
    EXPECT_EQ(b.stats().epochResets, 1u);
    ASSERT_NE(b.find(0, 0), nullptr);
    EXPECT_TRUE(b.find(0, 0)->excluded.empty());
    EXPECT_TRUE(b.find(0, 0)->awaitingRecovery);
    b.noteServiced(0, 0, 106);
    EXPECT_EQ(b.find(0, 0)->respawnGapRounds, 6u);
    EXPECT_EQ(b.stats().gapsLearned, 1u);

    // Results sent before the crash are stale and teach nothing.
    b.noteProbeResult(0, 0, 3, IsaKind::Risc, /*sentRound=*/99,
                      /*leaked=*/true, IsaKind::Cisc);
    EXPECT_TRUE(b.find(0, 0)->excluded.empty());
}

TEST(Campaign, StrategyNamesRoundTrip)
{
    for (size_t i = 0; i < attack::kNumCampaignStrategies; ++i) {
        auto s = static_cast<attack::CampaignStrategy>(i);
        attack::CampaignStrategy parsed;
        ASSERT_TRUE(attack::campaignStrategyFromName(
            attack::campaignStrategyName(s), parsed));
        EXPECT_EQ(static_cast<int>(parsed), static_cast<int>(s));
    }
    attack::CampaignStrategy out;
    EXPECT_FALSE(attack::campaignStrategyFromName("nope", out));
}

TEST(Campaign, ReportIsDeterministicAcrossIdenticalRuns)
{
    CampaignRun a = runServerCampaign(
        attack::CampaignStrategy::OutcomeBrute, 0xaa, 800);
    CampaignRun b = runServerCampaign(
        attack::CampaignStrategy::OutcomeBrute, 0xaa, 800);
    EXPECT_EQ(a.camp.signature, b.camp.signature);
    EXPECT_EQ(a.camp.probesSent, b.camp.probesSent);
    EXPECT_EQ(a.camp.compromises, b.camp.compromises);
    EXPECT_EQ(a.camp.firstCompromiseProbe, b.camp.firstCompromiseProbe);
    EXPECT_EQ(a.server.signature, b.server.signature);

    EXPECT_LE(a.camp.probesSent, 800u);
    EXPECT_GT(a.camp.responses, 0u);
    // The server sees the rewritten stream: attack probes really ran.
    EXPECT_GT(a.server.servedByKind[static_cast<size_t>(
                  RequestKind::Attack)],
              0u);
}

TEST(Campaign, FleetSignatureInvariantAcrossThreadsAndInterleaving)
{
    FleetConfig cfg = hostileFleetConfig();
    attack::CampaignConfig ccfg = fleetCampaignConfig(
        cfg, attack::CampaignStrategy::CrossGuest);

    FleetCampaignRun serial = runFleetCampaign(cfg, ccfg, 1);
    FleetCampaignRun wide = runFleetCampaign(cfg, ccfg, 4);
    FleetConfig permuted = cfg;
    permuted.permuteShardStep = true;
    FleetCampaignRun shuffled = runFleetCampaign(permuted, ccfg, 4);

    EXPECT_GT(serial.camp.probesSent, 0u);
    EXPECT_EQ(serial.fleet.signature, wide.fleet.signature);
    EXPECT_EQ(serial.camp.signature, wide.camp.signature);
    EXPECT_EQ(serial.fleet.signature, shuffled.fleet.signature);
    EXPECT_EQ(serial.camp.signature, shuffled.camp.signature);
    EXPECT_EQ(serial.camp.probesSent, wide.camp.probesSent);
    EXPECT_EQ(serial.camp.compromises, shuffled.camp.compromises);
    checkLedger(cfg, serial.fleet);
}

// The headline claim: at an equal probe budget, every adaptive
// strategy's median time-to-compromise (probes until the first
// landed payload) across attacker seeds is strictly below the
// outcome-blind one-shot baseline's.
TEST(Campaign, AdaptiveBeatsOneShotAtEqualProbeBudget)
{
    const uint64_t kBudget = 1200;
    const std::vector<uint64_t> seeds{ 0xa1, 0xb2, 0xc3 };

    auto ttcs = [&](attack::CampaignStrategy s) {
        std::vector<uint64_t> out;
        for (uint64_t seed : seeds) {
            CampaignRun r = runServerCampaign(s, seed, kBudget);
            // 0 = censored at the budget: score it as the budget.
            out.push_back(r.camp.firstCompromiseProbe == 0
                              ? kBudget
                              : r.camp.firstCompromiseProbe);
        }
        return out;
    };

    uint64_t oneShot =
        medianTtc(ttcs(attack::CampaignStrategy::OneShot));
    uint64_t brute =
        medianTtc(ttcs(attack::CampaignStrategy::OutcomeBrute));
    uint64_t isomeron =
        medianTtc(ttcs(attack::CampaignStrategy::Isomeron));

    EXPECT_LT(brute, oneShot)
        << "outcome-conditioned sweep no faster than blind guessing";
    EXPECT_LT(isomeron, oneShot)
        << "two-path probing no faster than blind guessing";
}

// A journaled hostile run replays bit-exactly with no engine
// attached: the journal carries the rewritten probes, so replay
// needs neither the campaign nor its belief state.
TEST(Campaign, RecordedHostileRunReplaysBitExact)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 120;
    cfg.hipstr.diversificationProbability = 1.0;

    attack::CampaignConfig ccfg = attack::campaignConfigFor(
        attack::CampaignStrategy::RespawnTiming, 0x5150, cfg.seed,
        cfg.hipstr.psr.randSpaceBytes, 1.0, 1);
    attack::CampaignEngine eng(ccfg);
    cfg.campaign = &eng;

    std::string path = ::testing::TempDir() + "campaign_rec.hjl";
    replay::RecordResult rec = replay::recordRun(httpdBin(), cfg, path);
    EXPECT_GT(eng.probesSent(), 0u);
    EXPECT_GT(eng.report().crashesObserved, 0u)
        << "respawn-timing campaign never crashed a worker";

    // Replay without the engine (replayRun also nulls it itself).
    cfg.campaign = nullptr;
    replay::ReplayResult rep =
        replay::replayRun(httpdBin(), cfg, path);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.rounds, rec.report.rounds);
    EXPECT_EQ(rep.report.crashes, rec.report.crashes);
    EXPECT_EQ(rep.syncChecks, rec.rounds);
}

// The fleet twin of the test above: a recorded hostile fleet run —
// the campaign rewriting the balancer's draws across three shards —
// replays bit-exactly from the journal with no engine attached.
TEST(Campaign, RecordedHostileFleetRunReplaysBitExact)
{
    FleetConfig cfg = hostileFleetConfig();
    attack::CampaignEngine eng(fleetCampaignConfig(
        cfg, attack::CampaignStrategy::RespawnTiming));
    cfg.campaign = &eng;

    std::string path = ::testing::TempDir() + "campaign_fleet_rec.hjl";
    replay::FleetRecordResult rec =
        replay::recordFleetRun(httpdBin(), cfg, path);
    EXPECT_GT(eng.probesSent(), 0u);
    EXPECT_GT(eng.report().crashesObserved, 0u)
        << "respawn-timing campaign never crashed a worker";

    cfg.campaign = nullptr;
    replay::FleetReplayResult rep =
        replay::replayFleetRun(httpdBin(), cfg, path);
    EXPECT_EQ(rep.report.signature, rec.report.signature);
    EXPECT_EQ(rep.report.outcomeSetSignature,
              rec.report.outcomeSetSignature);
    EXPECT_EQ(rep.report.rounds, rec.report.rounds);
    EXPECT_EQ(rep.report.crashes, rec.report.crashes);
    EXPECT_EQ(rep.syncChecks, rec.rounds);
    checkLedger(cfg, rep.report);
}

// Satellite 1 regression: the infirmary's exponential backoff must
// saturate at the cap, not shift-overflow, once a worker's
// consecutive-crash streak passes 64 (reachable whenever quarantine
// is disabled). Every recovery gap is exact: 2, 4, then the cap.
TEST(CmpScheduler, BackoffSaturatesPastSixtyFourConsecutiveCrashes)
{
    CmpConfig mc;
    mc.riscCores = 1;
    mc.ciscCores = 1;
    CmpModel cmp(mc);

    SchedulerConfig scfg;
    scfg.supervisor.backoffBaseRounds = 2;
    scfg.supervisor.backoffCapRounds = 8;
    scfg.supervisor.quarantineAfter = 0; // streaks grow unbounded
    CmpScheduler sched(cmp, scfg);

    GuestProcessConfig fcfg;
    fcfg.pid = 0;
    fcfg.alternateStartIsa = false; // both pinned to the Cisc core
    GuestProcess filler(httpdBin(), fcfg);
    filler.beginService(uint64_t(1) << 40);
    sched.notifyReady(&filler);

    GuestProcessConfig vcfg;
    vcfg.pid = 1;
    vcfg.alternateStartIsa = false;
    GuestProcess victim(httpdBin(), vcfg);
    victim.beginService(uint64_t(1) << 40);
    sched.notifyReady(&victim);

    // Re-corrupt the victim the moment each convalescence ends, so
    // every crash extends one unbroken streak (never a clean quantum
    // in between).
    const unsigned kCrashes = 70;
    unsigned staged = 0;
    for (unsigned r = 0; r < 2000 && staged < kCrashes; ++r) {
        sched.round();
        if (staged < kCrashes &&
            victim.state() == ProcState::Ready &&
            !sched.isRetired(&victim)) {
            ASSERT_TRUE(victim.injectCorruption(1000 + staged));
            ++staged;
        }
    }
    // The last staged corruption has not crashed yet: run the crash
    // quantum and drain the final convalescence.
    for (unsigned r = 0;
         r < 40 && sched.stats().recoveries < kCrashes; ++r) {
        sched.round();
    }

    const SchedulerStats &st = sched.stats();
    EXPECT_EQ(staged, kCrashes);
    EXPECT_EQ(st.quarantines, 0u);
    EXPECT_EQ(st.recoveries, kCrashes);
    // Gaps: 2, 4, then 68 saturated parks of exactly the 8-round cap
    // — a wrapped shift would shorten (or zero) the late parks.
    EXPECT_EQ(st.recoveryRoundsSum, 2u + 4u + 8u * (kCrashes - 2));
    EXPECT_EQ(victim.respawnCount(), kCrashes);
    EXPECT_EQ(victim.state(), ProcState::Ready);
}

// Satellite 3: a scripted full-ISA blackout on one shard while a
// crash-probing campaign runs. Work stealing drains the dark shard,
// nothing is lost or double-served, the blackout shard enters and
// leaves degraded mode exactly once, and the whole episode is
// byte-identical serial vs 4 threads.
TEST(Campaign, ShardBlackoutUnderCampaignLosesNothing)
{
    FleetConfig cfg = hostileFleetConfig();
    attack::CampaignConfig ccfg = fleetCampaignConfig(
        cfg, attack::CampaignStrategy::RespawnTiming);

    // Blackout plan for shard 0 only: zero random rates, one scripted
    // Risc outage mid-run. The other shards run fault-free.
    FaultPlanConfig fcfg;
    fcfg.enabled = true;
    fcfg.scriptedOutageIsa = IsaKind::Risc;
    fcfg.scriptedOutageRound = 12;
    fcfg.scriptedOutageRounds = 14;
    FaultPlan blackout(fcfg);
    cfg.shardPlanOverrides.assign(cfg.shards, nullptr);
    cfg.shardPlanOverrides[0] = &blackout;

    FleetCampaignRun serial = runFleetCampaign(cfg, ccfg, 1);
    FleetCampaignRun wide = runFleetCampaign(cfg, ccfg, 4);

    checkLedger(cfg, serial.fleet);
    EXPECT_EQ(serial.fleet.requestsOffered, cfg.requestCount);
    EXPECT_EQ(serial.fleet.requestsAbandoned, 0u)
        << "blackout shard abandoned requests";

    // Degraded entry/exit is exactly one cycle, on shard 0 alone.
    const ServerReport &dark = serial.fleet.shardReports[0];
    EXPECT_EQ(dark.degradedEntries, 1u);
    EXPECT_EQ(dark.degradedExits, 1u);
    EXPECT_EQ(dark.degradedRounds, 14u);
    for (unsigned k = 1; k < cfg.shards; ++k) {
        EXPECT_EQ(serial.fleet.shardReports[k].degradedEntries, 0u)
            << "shard " << k;
    }

    // Byte-identity across thread counts, campaign included.
    EXPECT_EQ(serial.fleet.signature, wide.fleet.signature);
    EXPECT_EQ(serial.camp.signature, wide.camp.signature);
    EXPECT_EQ(serial.camp.crashesObserved, wide.camp.crashesObserved);
    EXPECT_GT(serial.camp.probesSent, 0u);
}
