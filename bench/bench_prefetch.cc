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

#include "codegen/codegen.hh"
#include "common/logging.hh"
#include "transform/pipeline.hh"

namespace
{

using namespace mpc;

transform::Pipeline
parsePipeline(const std::string &spec)
{
    transform::Pipeline pipeline;
    std::string error;
    if (!transform::Pipeline::parse(spec, pipeline, error))
        fatal("bad pipeline spec: %s", error.c_str());
    return pipeline;
}

Tick
runVariant(const workloads::Workload &w, bool cluster, bool prefetch,
           int distance)
{
    ir::Kernel kernel = w.kernel.clone();
    codegen::CodegenOptions options;
    options.clusteredSchedule = cluster;
    const auto config = harness::scaleConfig(sys::baseConfig(), w);
    if (cluster) {
        const transform::DriverParams params =
            harness::makeDriverParams(w, kernel, config, 1, 16);
        const auto report =
            parsePipeline(transform::pipelineSpecFromParams(params))
                .run(kernel, params);
        for (int id : report.leadingRefIds)
            options.leadingRefs.insert(static_cast<std::uint32_t>(id));
    }
    if (prefetch) {
        // A second one-pass pipeline composed after the first: the
        // clustered report (and its leading refs) stays authoritative.
        transform::DriverParams prefetch_params;
        prefetch_params.prefetchDistanceLines = distance;
        (void)parsePipeline("prefetch").run(kernel, prefetch_params);
    }

    kisa::MemoryImage image;
    w.init(image);
    sys::System system(config, {codegen::lower(kernel, options)}, image);
    return system.run().cycles;
}

} // namespace

int
main()
{
    const auto size = bench::scaleFromEnv();
    const int distance = 4;   // lines ahead
    std::printf("=== A5: prefetching vs clustering (uniprocessor, "
                "prefetch distance %d lines) ===\n\n",
                distance);
    for (const char *name : {"erlebacher", "lu", "ocean", "em3d"}) {
        const auto w = workloads::makeByName(name, size);
        std::fprintf(stderr, "running %s variants...\n", name);
        const Tick none = runVariant(w, false, false, distance);
        const Tick pf = runVariant(w, false, true, distance);
        const Tick cl = runVariant(w, true, false, distance);
        const Tick both = runVariant(w, true, true, distance);
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
