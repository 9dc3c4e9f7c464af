/**
 * @file
 * Ablation A2 (Section 3.3): separating the contributions of the
 * transformation stages on Mp3d (the window-constraint workload) and
 * LU (the recurrence workload): none / scheduling only / transform
 * only / both. In the paper's framework the stages compose: unrolling
 * exposes independent misses; clustering-aware scheduling packs them
 * within a window span.
 */

#include "bench_common.hh"

#include "codegen/codegen.hh"
#include "common/logging.hh"
#include "harness/profiler.hh"
#include "transform/driver.hh"

namespace
{

using namespace mpc;

Tick
runVariant(const workloads::Workload &w, bool transform, bool schedule)
{
    ir::Kernel kernel = w.kernel.clone();
    std::set<std::uint32_t> leading;
    if (transform) {
        kisa::MemoryImage scratch;
        w.init(scratch);
        const auto base_prog = codegen::lower(kernel);
        mem::CacheConfig geometry;
        geometry.sizeBytes = w.l2Bytes;
        geometry.assoc = 4;
        const auto profile = harness::CacheProfile::measure(
            base_prog, scratch, geometry);
        transform::DriverParams params;
        params.lp = 10;
        params.bodySize = codegen::loweredBodySize;
        params.missRate = [&profile](int id) {
            return profile.missRate(id);
        };
        // Through the pass factory, like the harness and mpclust.
        transform::Pipeline pipeline;
        std::string error;
        if (!transform::Pipeline::parse(
                transform::pipelineSpecFromParams(params), pipeline,
                error))
            fatal("bad pipeline spec: %s", error.c_str());
        const auto report = pipeline.run(kernel, params);
        for (int id : report.leadingRefIds)
            leading.insert(static_cast<std::uint32_t>(id));
    }
    auto programs =
        codegen::lowerForCores(kernel, 1, schedule, leading);
    kisa::MemoryImage image;
    w.init(image);
    const auto config = harness::scaleConfig(sys::baseConfig(), w);
    sys::System system(config, std::move(programs), image);
    return system.run().cycles;
}

} // namespace

int
main()
{
    const auto size = bench::scaleFromEnv();
    std::printf("=== A2: transformation vs scheduling ablation "
                "(uniprocessor) ===\n\n");

    static constexpr const char *apps[] = {"mp3d", "lu", "erlebacher"};
    // Variant grid (transform, schedule) per app; all 12 sims are
    // independent, so the whole grid goes through the pool at once.
    static constexpr std::pair<bool, bool> variants[] = {
        {false, false}, {false, true}, {true, false}, {true, true}};
    constexpr std::size_t nvar = std::size(variants);

    std::vector<workloads::Workload> loads;
    for (const char *name : apps)
        loads.push_back(workloads::makeByName(name, size));
    std::vector<Tick> cycles(std::size(apps) * nvar, 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t a = 0; a < std::size(apps); ++a)
        for (std::size_t v = 0; v < nvar; ++v)
            tasks.push_back([&loads, &cycles, a, v] {
                cycles[a * nvar + v] = runVariant(
                    loads[a], variants[v].first, variants[v].second);
            });
    std::fprintf(stderr, "running %zu variants in parallel...\n",
                 tasks.size());
    harness::ParallelRunner().run(tasks);

    for (std::size_t a = 0; a < std::size(apps); ++a) {
        const Tick none = cycles[a * nvar + 0];
        const Tick sched = cycles[a * nvar + 1];
        const Tick xform = cycles[a * nvar + 2];
        const Tick both = cycles[a * nvar + 3];
        auto pct = [none](Tick t) {
            return (1.0 - double(t) / double(none)) * 100.0;
        };
        std::printf("%s:\n", apps[a]);
        std::printf("  none            %9llu cycles\n",
                    (unsigned long long)none);
        std::printf("  schedule only   %9llu cycles  (%5.1f%%)\n",
                    (unsigned long long)sched, pct(sched));
        std::printf("  transform only  %9llu cycles  (%5.1f%%)\n",
                    (unsigned long long)xform, pct(xform));
        std::printf("  both            %9llu cycles  (%5.1f%%)\n\n",
                    (unsigned long long)both, pct(both));
    }
    return 0;
}
