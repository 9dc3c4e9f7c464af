/**
 * @file
 * Integration tests for the pipeline autotuner (harness/autotune.hh):
 * candidate-grid shape, the winner's measurement, and determinism of
 * repeated tunes.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/autotune.hh"
#include "harness/manifest.hh"
#include "transform/pipeline.hh"
#include "workloads/workload.hh"

namespace mpc::harness
{
namespace
{

workloads::SizeParams
tinySize()
{
    workloads::SizeParams size;
    size.scale = 1;
    return size;
}

TuneOptions
uniOptions()
{
    TuneOptions opts;
    opts.procs = 1;
    opts.simBudget = 3;
    opts.threads = 2;
    return opts;
}

TEST(Fnv1a, MatchesReferenceVectorsAndSeparatesInputs)
{
    // Canonical FNV-1a test vectors.
    EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
    EXPECT_NE(fnv1a("abc"), fnv1a("acb"));
}

TEST(CandidateSpecs, HandSpecFirstAndGridIsDeduplicated)
{
    const transform::DriverParams params;
    const auto specs = candidateSpecs(params);
    ASSERT_FALSE(specs.empty());
    EXPECT_EQ(specs[0], transform::pipelineSpecFromParams(params));
    for (size_t i = 0; i < specs.size(); ++i) {
        // Every candidate must parse under the knob grammar...
        transform::Pipeline parsed;
        std::string error;
        EXPECT_TRUE(
            transform::Pipeline::parse(specs[i], parsed, error))
            << specs[i] << ": " << error;
        // ...end in the schedule pass, after any prefetch...
        EXPECT_EQ(parsed.passNames().back(), "schedule") << specs[i];
        // ...and appear exactly once.
        for (size_t j = i + 1; j < specs.size(); ++j)
            EXPECT_NE(specs[i], specs[j]);
    }
    EXPECT_GE(specs.size(), 8u);
}

TEST(Tune, WinnerMeasuredAndNoWorseThanHandSpec)
{
    const workloads::Workload w = workloads::makeEm3d(tinySize());
    const TuneReport report = tune(w, uniOptions());
    ASSERT_NE(report.best(), nullptr);
    EXPECT_GT(report.baseCycles, 0u);
    EXPECT_GT(report.handCycles, 0u);
    EXPECT_TRUE(report.best()->measured);
    EXPECT_FALSE(report.best()->failed);
    EXPECT_LE(report.best()->cycles, report.handCycles);
    // The hand spec itself is always measured, never pruned.
    bool hand_measured = false;
    for (const auto &c : report.candidates)
        if (c.spec == report.handSpec)
            hand_measured = c.measured && !c.pruned;
    EXPECT_TRUE(hand_measured);
}

TEST(Tune, RepeatedTunesAreDeterministic)
{
    const workloads::Workload w = workloads::makeEm3d(tinySize());
    const TuneOptions opts = uniOptions();
    const TuneReport a = tune(w, opts);
    const TuneReport b = tune(w, opts);
    EXPECT_EQ(a.toString(), b.toString());
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.bestIndex, b.bestIndex);
}

} // namespace
} // namespace mpc::harness
