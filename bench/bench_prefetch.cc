/**
 * @file
 * Ablation A5 (Sections 1 and 6): software prefetching vs read-miss
 * clustering vs their combination. The paper argues prefetching is
 * less effective on ILP processors (late prefetches, contention) and
 * its follow-up shows clustering improves prefetching by cutting the
 * number of prefetch instructions and spreading bursts; this bench
 * measures all four variants on the regular applications.
 */

#include "bench_common.hh"

#include "transform/pipeline.hh"

int
main()
{
    using namespace mpc;
    const auto size = bench::scaleFromEnv();
    const int distance = 4;   // lines ahead
    std::printf("=== A5: prefetching vs clustering (uniprocessor, "
                "prefetch distance %d lines) ===\n\n",
                distance);
    const std::string prefetch = strprintf("prefetch(dist=%d)", distance);
    // The combination prefetches after the clustered run's schedule
    // pass, so the schedule's leading refs are the clustered kernel's.
    const std::string both_spec =
        transform::pipelineSpecFromParams(transform::DriverParams{}) +
        "," + prefetch;
    for (const char *name : {"erlebacher", "lu", "ocean", "em3d"}) {
        const auto w = workloads::makeByName(name, size);
        std::fprintf(stderr, "running %s variants...\n", name);
        auto run = [&w](bool clustered, const std::string &pipeline) {
            harness::RunSpec spec;
            spec.clustered = clustered;
            spec.pipeline = pipeline;
            return harness::runWorkload(w, spec).result.cycles;
        };
        const Tick none = run(false, "");
        const Tick pf = run(false, prefetch);
        const Tick cl = run(true, "");
        const Tick both = run(false, both_spec);
        auto pct = [none](Tick t) {
            return (1.0 - double(t) / double(none)) * 100.0;
        };
        std::printf("%s:\n", name);
        std::printf("  base              %9llu cycles\n",
                    (unsigned long long)none);
        std::printf("  prefetch only     %9llu cycles  (%5.1f%%)\n",
                    (unsigned long long)pf, pct(pf));
        std::printf("  clustering only   %9llu cycles  (%5.1f%%)\n",
                    (unsigned long long)cl, pct(cl));
        std::printf("  both              %9llu cycles  (%5.1f%%)\n\n",
                    (unsigned long long)both, pct(both));
    }
    return 0;
}
