/**
 * @file
 * Integration tests for the pipeline autotuner (harness/autotune.hh):
 * candidate-grid shape, cache-key stability, determinism of repeated
 * tunes, and the zero-resimulation guarantee of a warm cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness/autotune.hh"
#include "harness/job.hh"
#include "harness/store.hh"
#include "transform/driver.hh"
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
    opts.scale = 1;
    return opts;
}

/** Store entry files under @p dir, excluding the quarantine/ area. */
std::vector<std::filesystem::path>
storeEntries(const std::string &dir)
{
    std::vector<std::filesystem::path> files;
    const std::filesystem::path quarantine =
        std::filesystem::path(dir) / "quarantine";
    for (auto it =
             std::filesystem::recursive_directory_iterator(dir);
         it != std::filesystem::recursive_directory_iterator(); ++it) {
        if (it->path() == quarantine) {
            it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() &&
            it->path().extension() == ".json")
            files.push_back(it->path());
    }
    return files;
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
        // ...and appear exactly once.
        for (size_t j = i + 1; j < specs.size(); ++j)
            EXPECT_NE(specs[i], specs[j]);
    }
    EXPECT_GE(specs.size(), 8u);
}

TEST(CacheKey, TuneMeasurementsKeyLikeAnyOtherJob)
{
    // The tuner's cache lives in the shared ResultStore, keyed by the
    // same jobKeyFor() composition every store-backed run uses — so a
    // tune and a bench of the same (workload, config, spec) share
    // results.
    const workloads::Workload w = workloads::makeEm3d(tinySize());
    RunSpec spec;
    spec.pipeline = "fuse,cluster(maxDegree=8)";

    const std::string key = jobKeyFor(w, spec, 1);
    EXPECT_EQ(key, jobKeyFor(w, spec, 1));
    EXPECT_TRUE(ResultStore::validKey(key));

    // Any ingredient change must move the key.
    RunSpec other = spec;
    other.procs = 2;
    EXPECT_NE(key, jobKeyFor(w, other, 1));
    other = spec;
    other.pipeline = "fuse,cluster(maxDegree=4)";
    EXPECT_NE(key, jobKeyFor(w, other, 1));
    other = spec;
    other.maxCycles = Tick(1) << 20;
    EXPECT_NE(key, jobKeyFor(w, other, 1));
    EXPECT_NE(key, jobKeyFor(workloads::makeFft(tinySize()), spec, 1));
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

TEST(Tune, WarmCacheServesEveryMeasurementWithIdenticalReport)
{
    const workloads::Workload w = workloads::makeEm3d(tinySize());
    TuneOptions opts = uniOptions();
    opts.cacheDir = testing::TempDir() + "mpctune_cache";
    std::filesystem::remove_all(opts.cacheDir);

    const TuneReport cold = tune(w, opts);
    EXPECT_EQ(cold.cacheHits, 0);
    EXPECT_GT(cold.cacheMisses, 0);

    const TuneReport warm = tune(w, opts);
    EXPECT_EQ(warm.cacheMisses, 0);
    EXPECT_EQ(warm.cacheHits, cold.cacheMisses);
    // Cache state must be invisible in the report output.
    EXPECT_EQ(warm.toString(), cold.toString());
    EXPECT_EQ(warm.toJson(), cold.toJson());

    std::filesystem::remove_all(opts.cacheDir);
}

TEST(Tune, StoreEntriesCarryByteStableManifestProvenance)
{
    const workloads::Workload w = workloads::makeEm3d(tinySize());
    TuneOptions opts = uniOptions();
    opts.cacheDir = testing::TempDir() + "mpctune_manifest_cache";
    std::filesystem::remove_all(opts.cacheDir);
    tune(w, opts);

    // The producing run's manifest hashes the config the simulator
    // actually ran: opts.config scaled to the workload's input.
    const std::string expect_hash =
        json::hex64(configHash(scaleConfig(opts.config, w), 1));
    int entries = 0;
    for (const auto &path : storeEntries(opts.cacheDir)) {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        json::Value root;
        ASSERT_TRUE(json::parse(ss.str(), root)) << path;
        EXPECT_EQ(json::strField(root, "schema"), "mpc-jobresult-v1");
        const json::Value *man = root.field("manifest");
        ASSERT_NE(man, nullptr) << path;
        EXPECT_EQ(json::strField(*man, "schema"), "mpc-manifest-v1");
        EXPECT_EQ(json::strField(*man, "workload"), w.name);
        // Host must be blanked: store entries are byte-stable across
        // machines.
        EXPECT_EQ(json::strField(*man, "host"), "");
        EXPECT_EQ(json::strField(*man, "configHash"), expect_hash);
        EXPECT_FALSE(json::strField(*man, "kernelHash").empty());
        ++entries;
    }
    EXPECT_GT(entries, 0);
    std::filesystem::remove_all(opts.cacheDir);
}

TEST(Tune, CorruptedStoreEntryIsQuarantinedAndRepairedNotFatal)
{
    // Satellite regression: a truncated or hand-edited cache entry
    // used to reach the JSON parser unguarded. Under ResultStore it
    // must read as a miss, get quarantined, and be re-simulated —
    // with the report still byte-identical.
    const workloads::Workload w = workloads::makeEm3d(tinySize());
    TuneOptions opts = uniOptions();
    opts.cacheDir = testing::TempDir() + "mpctune_corrupt_cache";
    std::filesystem::remove_all(opts.cacheDir);

    const TuneReport cold = tune(w, opts);
    const auto entries = storeEntries(opts.cacheDir);
    ASSERT_FALSE(entries.empty());
    {
        // Truncate one entry mid-token; hand-edit another into valid
        // JSON of the wrong shape.
        std::ofstream truncated(entries.front(), std::ios::trunc);
        truncated << "{\"schema\": \"mpc-jobresult-v1\", \"ok\": tru";
    }
    if (entries.size() > 1) {
        std::ofstream edited(entries.back(), std::ios::trunc);
        edited << "{\"schema\": \"something-else\"}\n";
    }

    const TuneReport repaired = tune(w, opts);
    EXPECT_EQ(repaired.toString(), cold.toString());
    EXPECT_EQ(repaired.toJson(), cold.toJson());
    // The damaged entries were misses (re-simulated), the rest hits.
    const int damaged = entries.size() > 1 ? 2 : 1;
    EXPECT_EQ(repaired.cacheMisses, damaged);
    EXPECT_EQ(repaired.cacheHits,
              static_cast<int>(entries.size()) - damaged);
    // Evidence preserved, slots repaired.
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(opts.cacheDir) / "quarantine"));
    const TuneReport warm = tune(w, opts);
    EXPECT_EQ(warm.cacheMisses, 0);

    std::filesystem::remove_all(opts.cacheDir);
}

} // namespace
} // namespace mpc::harness
