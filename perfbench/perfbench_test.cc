/**
 * @file
 * Unit tests of the benchmark's own machinery: the tail-percentile
 * rule, span self time, and fleet seeding. Build and run with
 * `python3 perfbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "perfbench.hh"

using namespace hipstr;
using namespace hipstr::perfbench;

namespace
{

std::vector<double>
shuffledRange(size_t n)
{
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i)
        v.push_back(double(i));
    std::shuffle(v.begin(), v.end(), std::mt19937(7));
    return v;
}

TEST(TailPercentile, HighestWithTenSamplesBeyond)
{
    // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9
    // (rank 999) has only one.
    auto p = tailPercentile(shuffledRange(1000));
    ASSERT_TRUE(p);
    EXPECT_DOUBLE_EQ(p->pct, 99.0);
    EXPECT_DOUBLE_EQ(p->value, 990.0);

    p = tailPercentile(shuffledRange(999));
    ASSERT_TRUE(p);
    EXPECT_DOUBLE_EQ(p->pct, 90.0); // p99 = rank 990, 9 beyond

    p = tailPercentile(shuffledRange(100));
    ASSERT_TRUE(p);
    EXPECT_DOUBLE_EQ(p->pct, 90.0);
    EXPECT_DOUBLE_EQ(p->value, 90.0);

    p = tailPercentile(shuffledRange(10'000));
    ASSERT_TRUE(p);
    EXPECT_DOUBLE_EQ(p->pct, 99.9);
    EXPECT_DOUBLE_EQ(p->value, 9990.0);
}

TEST(TailPercentile, TooFewSamples)
{
    auto p = tailPercentile(shuffledRange(20));
    ASSERT_TRUE(p);
    EXPECT_DOUBLE_EQ(p->pct, 50.0);
    EXPECT_DOUBLE_EQ(p->value, 10.0);
    EXPECT_FALSE(tailPercentile(shuffledRange(19)));
    EXPECT_FALSE(tailPercentile({}));
}

TEST(Statistics, MedianAndGeomean)
{
    EXPECT_DOUBLE_EQ(median({ 3, 1, 2 }), 2.0);
    EXPECT_DOUBLE_EQ(median({ 4, 1, 3, 2 }), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_NEAR(geomean({ 1, 100 }), 10.0, 1e-9);
}

TEST(SelfTime, ChildrenCoverageIsAUnionClippedToTheParent)
{
    std::vector<Span> spans = {
        { "root", -1, 0, 0, 10 },  // 0
        { "child", 0, 0, 1, 3 },   // 1
        { "child", 0, 0, 2, 5 },   // 2: overlaps 1, union [1,5]
        { "child", 0, 0, 8, 12 },  // 3: clipped to [8,10]
        { "leaf", 2, 0, 3, 4 },    // 4: inside 2
        { "other", -1, 0, 20, 21 } // 5: a second root
    };
    auto self = selfTimeByName(spans);
    EXPECT_DOUBLE_EQ(self["root"], 10.0 - 4.0 - 2.0);
    // Children: 2 + (3 - 1) + 4; the leaf is their only child.
    EXPECT_DOUBLE_EQ(self["child"], 2.0 + 2.0 + 4.0);
    EXPECT_DOUBLE_EQ(self["leaf"], 1.0);
    EXPECT_DOUBLE_EQ(self["other"], 1.0);
}

TEST(SelfTime, ChildrenCoveringTheParentLeaveNoSelfTime)
{
    std::vector<Span> spans = {
        { "run", -1, 0, 0, 4 },
        { "round", 0, 0, 0, 2 },
        { "round", 0, 0, 2, 4 },
    };
    auto self = selfTimeByName(spans);
    EXPECT_DOUBLE_EQ(self["run"], 0.0);
    EXPECT_DOUBLE_EQ(self["round"], 4.0);
}

TEST(SpanLog, DisabledLogRecordsNothing)
{
    SpanLog off(false);
    EXPECT_EQ(off.open("x"), -1);
    EXPECT_EQ(off.add("y", -1, 0, 1), -1);
    off.close(-1);
    EXPECT_TRUE(off.spans().empty());

    SpanLog on(true);
    on.setRun(3);
    const int32_t parent = on.open("parent");
    const int32_t child = on.add("child", parent, 0, 0);
    on.close(parent);
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[size_t(child)].parent, parent);
    EXPECT_EQ(on.spans()[size_t(child)].run, 3u);
    EXPECT_GE(on.spans()[0].end, on.spans()[0].start);
}

FleetReport
runFleet(bool hostile, uint64_t seed)
{
    static const FatBinary bin = compileHttpd();
    ProtectedFleet fleet(bin, fleetConfig(hostile, seed, 300));
    return fleet.run();
}

TEST(FleetSeed, SameSeedReproducesTheSignature)
{
    for (bool hostile : { false, true }) {
        const FleetReport a = runFleet(hostile, 5);
        const FleetReport b = runFleet(hostile, 5);
        EXPECT_EQ(a.requestsServed, 300u);
        EXPECT_EQ(a.signature, b.signature);
        EXPECT_EQ(a.outcomeSetSignature, b.outcomeSetSignature);
    }
}

TEST(FleetSeed, DifferentSeedChangesTheSignature)
{
    for (bool hostile : { false, true }) {
        const FleetReport a = runFleet(hostile, 5);
        const FleetReport b = runFleet(hostile, 6);
        EXPECT_NE(a.signature, b.signature);
        EXPECT_NE(a.outcomeSetSignature, b.outcomeSetSignature);
    }
}

TEST(Workloads, NamesRoundTrip)
{
    for (Workload w : { Workload::FleetHostile, Workload::FleetClean,
                        Workload::VmMatrix })
        EXPECT_EQ(parseWorkload(workloadName(w)), w);
    EXPECT_FALSE(parseWorkload("fleet"));
}

} // namespace
