/**
 * @file
 * Ablation A1: unroll-and-jam degree sweep. Forces degrees 1..16 on
 * the dominant nests of LU and Erlebacher and compares against the
 * driver's model-chosen degree, validating that the f <= alpha*lp
 * stopping rule (Section 3.2.2) lands near the knee: too little
 * unrolling leaves misses serialized; too much adds code, register
 * pressure, and cache conflicts without memory-parallelism headroom.
 */

#include "bench_common.hh"

#include "codegen/codegen.hh"
#include "transform/pipeline.hh"

namespace
{

using namespace mpc;

/** RunSpec for a forced maximum unroll degree. */
harness::RunSpec
forcedSpec(int max_unroll)
{
    harness::RunSpec spec;
    spec.clustered = max_unroll > 1;
    spec.maxUnroll = max_unroll;
    return spec;
}

} // namespace

int
main()
{
    const auto size = bench::scaleFromEnv();
    std::printf("=== A1: unroll-and-jam degree sweep (uniprocessor) "
                "===\n");
    std::printf("degree cap U; the driver picks min(model degree, U), "
                "so the curve flattens at the model's choice\n\n");

    static constexpr const char *apps[] = {"lu", "erlebacher"};
    static constexpr int caps[] = {1, 2, 4, 8, 12, 16};
    constexpr std::size_t ncaps = std::size(caps);

    // One workload per app, one run per (app, cap); every run is an
    // independent sim, so the whole grid goes through the pool at once.
    std::vector<workloads::Workload> loads;
    for (const char *name : apps)
        loads.push_back(workloads::makeByName(name, size));
    std::vector<Tick> cycles(std::size(apps) * ncaps, 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t a = 0; a < std::size(apps); ++a) {
        for (std::size_t c = 0; c < ncaps; ++c) {
            tasks.push_back([&loads, &cycles, a, c] {
                cycles[a * ncaps + c] =
                    harness::runWorkload(loads[a], forcedSpec(caps[c]))
                        .result.cycles;
            });
        }
    }
    std::fprintf(stderr, "running %zu sweep points in parallel...\n",
                 tasks.size());
    harness::ParallelRunner().run(tasks);

    for (std::size_t a = 0; a < std::size(apps); ++a) {
        // U=1 disables clustering, so it doubles as the base run.
        const Tick base = cycles[a * ncaps];
        std::printf("%s (base %llu cycles):\n", apps[a],
                    (unsigned long long)base);
        for (std::size_t c = 0; c < ncaps; ++c) {
            const Tick t = cycles[a * ncaps + c];
            std::printf("  U=%-2d  %9llu cycles  (%5.1f%% reduction)\n",
                        caps[c], (unsigned long long)t,
                        (1.0 - double(t) / double(base)) * 100.0);
        }
        std::printf("\n");
    }
    return 0;
}
