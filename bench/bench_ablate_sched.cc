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

#include "transform/pipeline.hh"

int
main()
{
    using namespace mpc;
    const auto size = bench::scaleFromEnv();
    std::printf("=== A2: transformation vs scheduling ablation "
                "(uniprocessor) ===\n\n");

    static constexpr const char *apps[] = {"mp3d", "lu", "erlebacher"};
    // The variants as runs: the base, the `schedule` pass alone, the
    // default spec's loop passes, and both (the clustered run, whose
    // spec ends in `schedule`). All 12 sims are independent, so the
    // whole grid goes through the pool at once.
    constexpr std::size_t nvar = 4;
    std::vector<harness::RunSpec> variants(nvar);
    variants[1].pipeline = "schedule";
    variants[2].pipeline = transform::defaultPipelineSpec();
    variants[3].clustered = true;

    std::vector<workloads::Workload> loads;
    for (const char *name : apps)
        loads.push_back(workloads::makeByName(name, size));
    std::vector<Tick> cycles(std::size(apps) * nvar, 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t a = 0; a < std::size(apps); ++a)
        for (std::size_t v = 0; v < nvar; ++v)
            tasks.push_back([&loads, &cycles, &variants, a, v] {
                cycles[a * nvar + v] =
                    harness::runWorkload(loads[a], variants[v])
                        .result.cycles;
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
