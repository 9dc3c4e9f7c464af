/**
 * @file
 * Unit tests for src/common: types helpers, stats containers, RNG, the
 * JSON parser.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mpc
{
namespace
{

TEST(Types, AlignDownUp)
{
    EXPECT_EQ(alignDown(0x1234, 64), 0x1200u);
    EXPECT_EQ(alignDown(0x1200, 64), 0x1200u);
    EXPECT_EQ(alignUp(0x1201, 64), 0x1240u);
    EXPECT_EQ(alignUp(0x1200, 64), 0x1200u);
}

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0);
    EXPECT_EQ(ceilDiv(1, 4), 1);
    EXPECT_EQ(ceilDiv(4, 4), 1);
    EXPECT_EQ(ceilDiv(5, 4), 2);
}

TEST(Types, PowerOf2AndLog2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(65));
    EXPECT_EQ(log2Floor(1), 0);
    EXPECT_EQ(log2Floor(64), 6);
}

TEST(StatSummary, Basics)
{
    StatSummary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.sample(2.0);
    s.sample(4.0);
    s.sample(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(StatSummary, Merge)
{
    StatSummary a, b;
    a.sample(1.0);
    b.sample(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(OccupancyHistogram, FracAtLeast)
{
    OccupancyHistogram h(10);
    h.record(0, 50);
    h.record(2, 30);
    h.record(5, 20);
    EXPECT_EQ(h.totalTicks(), 100u);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(0), 1.0);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(1), 0.5);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(2), 0.5);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(3), 0.2);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(6), 0.0);
}

TEST(OccupancyHistogram, ClampsAboveMax)
{
    OccupancyHistogram h(4);
    h.record(9, 10);  // clamps to level 4
    EXPECT_EQ(h.ticksAt(4), 10u);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(4), 1.0);
}

TEST(OccupancyHistogram, MeanLevel)
{
    OccupancyHistogram h(10);
    h.record(2, 50);
    h.record(4, 50);
    EXPECT_DOUBLE_EQ(h.meanLevel(), 3.0);
}

TEST(OccupancyHistogram, Merge)
{
    OccupancyHistogram a(10), b(10);
    a.record(1, 10);
    b.record(3, 10);
    a.merge(b);
    EXPECT_EQ(a.totalTicks(), 20u);
    EXPECT_DOUBLE_EQ(a.fracAtLeast(2), 0.5);
}

TEST(OccupancyHistogram, MeanLevelAtLeast)
{
    OccupancyHistogram h(10);
    h.record(0, 100);
    h.record(1, 20);
    h.record(2, 90);
    // Conditioned on >= 1: (20*1 + 90*2) / 110.
    EXPECT_DOUBLE_EQ(h.meanLevelAtLeast(1), 200.0 / 110.0);
    // Conditioned on >= 2: all remaining time is at level 2.
    EXPECT_DOUBLE_EQ(h.meanLevelAtLeast(2), 2.0);
    // Nothing at or above 3.
    EXPECT_DOUBLE_EQ(h.meanLevelAtLeast(3), 0.0);
    // Floor 0 is the plain time-weighted mean.
    EXPECT_DOUBLE_EQ(h.meanLevelAtLeast(0), h.meanLevel());
}

TEST(OccupancyHistogram, MeanLevelAtLeastEmpty)
{
    OccupancyHistogram h(4);
    EXPECT_DOUBLE_EQ(h.meanLevelAtLeast(1), 0.0);
}

TEST(CountHistogram, RecordAndQuery)
{
    CountHistogram h;
    h.record(1);
    h.record(2);
    h.record(2);
    h.record(5);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.maxRecorded(), 5);
    EXPECT_EQ(h.countAt(1), 1u);
    EXPECT_EQ(h.countAt(2), 2u);
    EXPECT_EQ(h.countAt(3), 0u);
    EXPECT_EQ(h.countAt(5), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0 / 4.0);
    EXPECT_EQ(h.countAt(-1), 0u);
    EXPECT_EQ(h.countAt(99), 0u);
}

TEST(CountHistogram, ClampsToMaxValueAndNegatives)
{
    CountHistogram h(3);
    h.record(-5);   // clamps to 0
    h.record(7);    // clamps to 3
    EXPECT_EQ(h.countAt(0), 1u);
    EXPECT_EQ(h.countAt(3), 1u);
    EXPECT_EQ(h.maxRecorded(), 3);
}

TEST(CountHistogram, Merge)
{
    CountHistogram a, b;
    a.record(1);
    b.record(1);
    b.record(4);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.countAt(1), 2u);
    EXPECT_EQ(a.countAt(4), 1u);

    // Merging into a clamped histogram clamps the source values too.
    CountHistogram c(2);
    c.merge(b);
    EXPECT_EQ(c.total(), 2u);
    EXPECT_EQ(c.countAt(1), 1u);
    EXPECT_EQ(c.countAt(2), 1u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t;
    t.setHeader({"app", "base", "clust"});
    t.addRow({"LU", "100.0", "78.3"});
    t.addRow({"Erlebacher", "100.0", "69.8"});
    const std::string out = t.render();
    EXPECT_NE(out.find("app"), std::string::npos);
    EXPECT_NE(out.find("Erlebacher"), std::string::npos);
    // Header separator row present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(0.1234, 1), "12.3%");
}

TEST(Json, ParsesNullAtTopLevelInObjectsAndInArrays)
{
    // The report writers emit "manifest": null when given no manifest.
    json::Value v;
    ASSERT_TRUE(json::parse(" null ", v));
    EXPECT_EQ(v.t, json::Value::T::Null);

    ASSERT_TRUE(json::parse(R"({"manifest": null, "runs": 2})", v));
    ASSERT_EQ(v.t, json::Value::T::Obj);
    ASSERT_NE(v.field("manifest"), nullptr);
    EXPECT_EQ(v.field("manifest")->t, json::Value::T::Null);
    EXPECT_EQ(json::numField(v, "runs"), 2.0);

    ASSERT_TRUE(json::parse("[true, null, false]", v));
    ASSERT_EQ(v.arr.size(), 3u);
    EXPECT_TRUE(v.arr[0].b);
    EXPECT_EQ(v.arr[1].t, json::Value::T::Null);
    EXPECT_EQ(v.arr[2].t, json::Value::T::Bool);
    EXPECT_FALSE(v.arr[2].b);

    for (const char *bad : {"nul", "[nil]", "{\"m\": nulL}"})
        EXPECT_FALSE(json::parse(bad, v)) << bad;
}

TEST(Json, AcceptsOnlyWhitespaceAfterTheValue)
{
    json::Value v;
    ASSERT_TRUE(json::parse("{\"runs\": []} \n\t\r\n", v));
    EXPECT_EQ(v.t, json::Value::T::Obj);
    ASSERT_TRUE(json::parse("2.5\n", v));
    EXPECT_EQ(v.num, 2.5);

    for (const char *bad :
         {R"({"bench": "fig3b_uni", "runs": []} trailing junk)",
          R"({"bench": "fig3b_uni", "runs": []} {"x": 1)",
          R"({"runs": []}})", "[1] [2]", "1 2", "null,", "true x"})
        EXPECT_FALSE(json::parse(bad, v)) << bad;
}

} // namespace
} // namespace mpc
