/**
 * @file
 * Unit tests for the result store and its content keys
 * (harness/job.hh, harness/store.hh): JobResult JSON round-trips,
 * content-key stability and per-field sensitivity, ResultStore
 * durability semantics (atomic writes, corrupt-entry quarantine,
 * concurrent same-key writers), store eligibility, and warm store-backed
 * runs serving the counters the benches print.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "harness/job.hh"
#include "harness/manifest.hh"
#include "harness/parallel.hh"
#include "harness/store.hh"
#include "workloads/workload.hh"

namespace mpc::harness
{
namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

workloads::Workload
tinyLatbench()
{
    workloads::SizeParams size;
    size.scale = 1;
    return workloads::makeLatbench(size);
}

// ---------------------------------------------------------------------
// ResultStore semantics.

TEST(ResultStore, PutGetRoundTripWithShardedLayoutAndStats)
{
    ResultStore store(freshDir("store_roundtrip"));
    const std::string key = "a1b2c3d4e5f60718a1b2c3d4e5f60718";
    const std::string value = "{\"cycles\": 42}";

    std::string got;
    EXPECT_FALSE(store.get(key, got));  // cold: miss
    EXPECT_TRUE(store.put(key, value));
    EXPECT_TRUE(store.get(key, got));
    EXPECT_EQ(got, value);

    // Two-level sharding by key prefix.
    EXPECT_EQ(store.pathFor(key),
              store.dir() + "/a1/b2/" + key + ".json");
    EXPECT_TRUE(std::filesystem::exists(store.pathFor(key)));

    const auto s = store.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.bad, 0);
    EXPECT_EQ(s.writes, 1);
}

TEST(ResultStore, RejectsImplausibleKeys)
{
    EXPECT_TRUE(ResultStore::validKey("0123456789abcdef"));
    EXPECT_FALSE(ResultStore::validKey(""));
    EXPECT_FALSE(ResultStore::validKey("abc"));          // too short
    EXPECT_FALSE(ResultStore::validKey("0123456789ABCDEF")); // upper
    EXPECT_FALSE(ResultStore::validKey("0123456/89abcdef")); // not hex
}

TEST(ResultStore, CorruptEntryIsQuarantinedAndReportedAsMiss)
{
    ResultStore store(freshDir("store_corrupt"));
    const std::string key = "deadbeefdeadbeefdeadbeefdeadbeef";
    ASSERT_TRUE(store.put(key, "{\"ok\": true}"));

    // Truncate the entry in place — a torn write or hand edit.
    {
        std::ofstream out(store.pathFor(key), std::ios::trunc);
        out << "{\"ok\": tru";
    }
    std::string got;
    EXPECT_FALSE(store.get(key, got));
    EXPECT_EQ(store.stats().bad, 1);
    // The damaged file moved aside (evidence, never deleted) and the
    // slot is empty, so a rerun repairs it with a fresh put.
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_TRUE(std::filesystem::exists(store.dir() + "/quarantine/" +
                                        key + ".json"));
    EXPECT_TRUE(store.put(key, "{\"ok\": true}"));
    EXPECT_TRUE(store.get(key, got));
}

TEST(ResultStore, ConcurrentSameKeyWritersNeverTearAnEntry)
{
    ResultStore store(freshDir("store_race"));
    const std::string key = "0011223344556677001122334455667788";
    // Two large distinct-but-valid values: if rename were not atomic,
    // a reader would catch a mix and fail to parse.
    std::string a = "{\"who\": \"a\", \"pad\": \"";
    std::string b = "{\"who\": \"b\", \"pad\": \"";
    a += std::string(64 * 1024, 'a') + "\"}";
    b += std::string(64 * 1024, 'b') + "\"}";

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::thread wa([&] {
        for (int i = 0; i < 50; ++i)
            store.put(key, a);
    });
    std::thread wb([&] {
        for (int i = 0; i < 50; ++i)
            store.put(key, b);
    });
    std::thread reader([&] {
        ResultStore other(store.dir());  // fresh instance, own stats
        while (!stop.load()) {
            std::string got;
            if (!other.get(key, got))
                continue;   // not yet written
            json::Value v;
            if (!json::parse(got, v) || (got != a && got != b))
                ++torn;
        }
    });
    wa.join();
    wb.join();
    stop.store(true);
    reader.join();
    EXPECT_EQ(torn.load(), 0);
    std::string got;
    EXPECT_TRUE(store.get(key, got));
    EXPECT_TRUE(got == a || got == b);
}

// ---------------------------------------------------------------------
// Content keys.

TEST(JobKey, GoldenFnvVectorsAnchorTheHash)
{
    // The key halves are FNV-1a digests; these are the canonical
    // vectors, so a drive-by "optimization" of the hash cannot
    // silently orphan every existing store.
    EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(JobKey, ComposedFromKernelAndKeyTextHalves)
{
    const workloads::Workload w = tinyLatbench();
    RunSpec spec;
    const std::string key = jobKeyFor(w, spec, 1);
    ASSERT_EQ(key.size(), 32u);
    EXPECT_TRUE(ResultStore::validKey(key));
    EXPECT_EQ(key, json::hex64(fnv1a(w.kernel.toString())) +
                       json::hex64(fnv1a(jobKeyText(w, spec, 1))));
    // Stable across calls.
    EXPECT_EQ(key, jobKeyFor(w, spec, 1));
}

TEST(JobKey, EverySpecFieldFlipsTheKey)
{
    const workloads::Workload w = tinyLatbench();
    const RunSpec base;
    const std::string key = jobKeyFor(w, base, 1);

    const auto mutated = [&](auto edit) {
        RunSpec spec = base;
        edit(spec);
        return jobKeyFor(w, spec, 1);
    };
    EXPECT_NE(key, mutated([](RunSpec &s) { s.procs = 2; }));
    EXPECT_NE(key, mutated([](RunSpec &s) { s.clustered = true; }));
    EXPECT_NE(key, mutated([](RunSpec &s) { s.maxUnroll = 4; }));
    EXPECT_NE(key, mutated([](RunSpec &s) { s.maxCycles = 1000; }));
    EXPECT_NE(key,
              mutated([](RunSpec &s) { s.pipeline = "fuse,cluster"; }));
    // Cycle-stepping is bit-identical to skip-ahead (test_fastpath),
    // so, like the obs and validate toggles, it must not move the key.
    EXPECT_EQ(key,
              mutated([](RunSpec &s) { s.config.skipAhead = false; }));
    EXPECT_NE(key, mutated([](RunSpec &s) {
        s.config.hier.l2.numMshrs = 3;
    }));
    EXPECT_NE(key, mutated([](RunSpec &s) {
        s.config.membus.interleave = mem::Interleave::Skewed;
    }));
    EXPECT_NE(key, mutated([](RunSpec &s) { s.config.core.numAlus = 9; }));
    // Scale and workload land in the key too.
    EXPECT_NE(key, jobKeyFor(w, base, 2));
    workloads::SizeParams size;
    size.scale = 1;
    EXPECT_NE(key, jobKeyFor(workloads::makeFft(size), base, 1));
}

// ---------------------------------------------------------------------
// JobResult serialization.

TEST(JobResultJson, RoundTripPreservesCountersAndHistograms)
{
    JobResult r;
    r.ok = true;
    r.result.cycles = 123456789;
    r.result.nsPerCycle = 1.25;
    r.result.instructions = 42424242;
    r.result.busyCycles = 1111;
    r.result.dataReadCycles = 2222;
    r.result.dataWriteCycles = 3333;
    r.result.syncCycles = 444;
    r.result.cpuCycles = 5555;
    r.result.instrCycles = 666;
    r.result.busUtilization = 0.375;
    r.result.bankUtilization = 0.1234567890123;
    OccupancyHistogram read_hist(4);
    read_hist.record(0, 10);
    read_hist.record(2, 30);
    read_hist.record(4, 5);
    r.result.l2ReadMshr = read_hist;
    OccupancyHistogram total_hist(2);
    total_hist.record(1, 7);
    r.result.l2TotalMshr = total_hist;
    r.manifestJson =
        makeRunManifest("latbench", "kernel-text", sys::baseConfig(), 1,
                        "")
            .toJson();

    JobResult back;
    ASSERT_TRUE(JobResult::fromJson(r.toJson(), back));
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.result.cycles, r.result.cycles);
    EXPECT_EQ(back.result.instructions, r.result.instructions);
    EXPECT_EQ(back.result.busyCycles, r.result.busyCycles);
    EXPECT_EQ(back.result.dataReadCycles, r.result.dataReadCycles);
    EXPECT_EQ(back.result.dataWriteCycles, r.result.dataWriteCycles);
    EXPECT_EQ(back.result.syncCycles, r.result.syncCycles);
    EXPECT_EQ(back.result.cpuCycles, r.result.cpuCycles);
    EXPECT_EQ(back.result.instrCycles, r.result.instrCycles);
    // Doubles render via %.17g, so they round-trip exactly — the
    // warm/cold stdout byte-identity guarantee rests on this.
    EXPECT_EQ(back.result.nsPerCycle, r.result.nsPerCycle);
    EXPECT_EQ(back.result.busUtilization, r.result.busUtilization);
    EXPECT_EQ(back.result.bankUtilization, r.result.bankUtilization);
    EXPECT_EQ(back.result.l2ReadMshr.maxLevel(), 4);
    EXPECT_EQ(back.result.l2ReadMshr.ticksAt(0), Tick(10));
    EXPECT_EQ(back.result.l2ReadMshr.ticksAt(2), Tick(30));
    EXPECT_EQ(back.result.l2ReadMshr.ticksAt(4), Tick(5));
    EXPECT_EQ(back.result.l2ReadMshr.totalTicks(), Tick(45));
    EXPECT_EQ(back.result.l2TotalMshr.maxLevel(), 2);
    EXPECT_EQ(back.result.l2TotalMshr.ticksAt(1), Tick(7));

    // Serialize-parse-serialize is a fixed point.
    EXPECT_EQ(back.toJson(), r.toJson());
    EXPECT_FALSE(JobResult::fromJson("{\"schema\": \"nope\"}", back));
}

TEST(JobResultJson, ManifestWithRetiredFieldStillParses)
{
    // Entries written before a manifest field was retired (the
    // host-thread "shards" count, the exec tier and the step mode)
    // must still parse.
    JobResult r;
    r.ok = true;
    r.result.cycles = 4242;
    r.manifestJson =
        makeRunManifest("latbench", "kernel-text", sys::baseConfig(), 1,
                        "")
            .toJson();
    JobResult old = r;
    old.manifestJson.insert(old.manifestJson.find('{') + 1,
                            "\"shards\": 4, \"execTier\": \"interp\", "
                            "\"stepMode\": \"reference\", ");

    JobResult back;
    ASSERT_TRUE(JobResult::fromJson(old.toJson(), back));
    EXPECT_EQ(back.result.cycles, r.result.cycles);
    EXPECT_EQ(back.manifestJson, r.manifestJson);
}

TEST(JobResultJson, FailedResultCarriesTheError)
{
    JobResult r;
    r.ok = false;
    r.error = "worker exploded";
    JobResult back;
    ASSERT_TRUE(JobResult::fromJson(r.toJson(), back));
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "worker exploded");
}

TEST(BlankManifestHost, BlanksHostAndIsIdentityOnGarbage)
{
    const std::string manifest =
        makeRunManifest("fft", "k", sys::baseConfig(), 1, "").toJson();
    const std::string blanked = blankManifestHost(manifest);
    json::Value v;
    ASSERT_TRUE(json::parse(blanked, v));
    EXPECT_EQ(json::strField(v, "host"), "");
    EXPECT_EQ(json::strField(v, "workload"), "fft");
    EXPECT_EQ(blankManifestHost("not json"), "not json");
}

// ---------------------------------------------------------------------
// Store eligibility.

TEST(StoreEligible, DumpIrAndInstrumentationEnvsBypassTheStore)
{
    RunSpec spec;
    EXPECT_TRUE(storeEligible(spec));
    spec.dumpIr = "after-cluster";
    EXPECT_FALSE(storeEligible(spec));
    spec.dumpIr.clear();

    for (const char *env : {"MPC_VALIDATE", "MPC_OBS", "MPC_TRACE",
                            "MPC_SAMPLE", "MPC_VERIFY_PASSES"}) {
        ASSERT_EQ(std::getenv(env), nullptr)
            << env << " leaked into the test environment";
        ::setenv(env, "1", 1);
        EXPECT_FALSE(storeEligible(spec)) << env;
        ::unsetenv(env);
    }
    EXPECT_TRUE(storeEligible(spec));
}

// ---------------------------------------------------------------------
// Store-backed runs.

TEST(RunStoredWorkload, WarmRunServesIdenticalCounters)
{
    ResultStore store(freshDir("job_warm"));
    const workloads::SizeParams size{.scale = 1};
    const workloads::Workload w = workloads::makeLatbench(size);
    RunSpec spec;

    bool from_store = true;
    const WorkloadRun cold =
        runStoredWorkload(w, spec, 1, &store, &from_store);
    EXPECT_FALSE(from_store);
    EXPECT_GT(cold.result.cycles, 0u);

    const WorkloadRun warm =
        runStoredWorkload(w, spec, 1, &store, &from_store);
    EXPECT_TRUE(from_store);
    // Everything a figure bench prints must match bit-for-bit.
    EXPECT_EQ(warm.result.cycles, cold.result.cycles);
    EXPECT_EQ(warm.result.instructions, cold.result.instructions);
    EXPECT_EQ(warm.result.busyCycles, cold.result.busyCycles);
    EXPECT_EQ(warm.result.dataReadCycles, cold.result.dataReadCycles);
    EXPECT_EQ(warm.result.busUtilization, cold.result.busUtilization);
    EXPECT_EQ(warm.result.bankUtilization, cold.result.bankUtilization);
    EXPECT_EQ(warm.result.l2ReadMshr.meanLevel(),
              cold.result.l2ReadMshr.meanLevel());
    EXPECT_EQ(warm.result.l2ReadMshr.fracAtLeast(1),
              cold.result.l2ReadMshr.fracAtLeast(1));
    EXPECT_EQ(warm.result.l2TotalMshr.totalTicks(),
              cold.result.l2TotalMshr.totalTicks());
    // The report summary the benches fold in round-trips too.
    EXPECT_EQ(warm.report.toJson(), cold.report.toJson());
    // Manifests match except host, which is blanked in the store.
    EXPECT_EQ(warm.manifestJson, blankManifestHost(cold.manifestJson));
}

TEST(ParallelRunner, StoreBackedPairsAreIdenticalWarmAndCold)
{
    const std::string dir = freshDir("pairs_store");
    ::setenv("MPC_STORE", dir.c_str(), 1);

    const workloads::SizeParams size{.scale = 1};
    const auto make_jobs = [&size] {
        std::vector<PairJob> jobs(1);
        jobs[0].workload = workloads::makeLatbench(size);
        jobs[0].label = "latbench";
        jobs[0].config = sys::baseConfig();
        jobs[0].procs = 1;
        jobs[0].scale = size.scale;
        return jobs;
    };
    auto cold_jobs = make_jobs();
    const auto cold = runPairsParallel(cold_jobs);
    auto warm_jobs = make_jobs();
    const auto warm = runPairsParallel(warm_jobs);
    ::unsetenv("MPC_STORE");

    ASSERT_EQ(cold.size(), 1u);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(warm[0].pair.base.result.cycles,
              cold[0].pair.base.result.cycles);
    EXPECT_EQ(warm[0].pair.clust.result.cycles,
              cold[0].pair.clust.result.cycles);
    EXPECT_EQ(warm[0].pair.reductionPct(), cold[0].pair.reductionPct());
    EXPECT_EQ(warm[0].pair.base.result.l2ReadMshr.meanLevel(),
              cold[0].pair.base.result.l2ReadMshr.meanLevel());
}

} // namespace
} // namespace mpc::harness
