/**
 * @file
 * Ablation A3: sensitivity to lp (the number of MSHRs, the hardware
 * resource the transformations aim to fill). The clustered speedup
 * should grow with the MSHR count until another resource (banks, bus)
 * saturates — the bottleneck the paper identifies for Latbench.
 */

#include "bench_common.hh"

int
main()
{
    using namespace mpc;
    const auto size = bench::scaleFromEnv();
    std::printf("=== A3: MSHR-count (lp) sweep, Latbench and LU "
                "(uniprocessor) ===\n\n");
    const int mshr_counts[] = {1, 2, 4, 8, 10, 16};
    std::vector<harness::PairJob> jobs;
    for (const char *name : {"latbench", "lu"}) {
        for (int mshrs : mshr_counts) {
            harness::PairJob job;
            job.label = std::string(name) + "/lp" + std::to_string(mshrs);
            job.workload = workloads::makeByName(name, size);
            job.config = sys::baseConfig();
            job.config.hier.l1.numMshrs = mshrs;
            job.config.hier.l2.numMshrs = mshrs;
            job.procs = 1;
            job.scale = size.scale;
            jobs.push_back(std::move(job));
        }
    }
    std::fprintf(stderr, "running %zu sweep points in parallel...\n",
                 jobs.size());
    const auto results = harness::runPairsParallel(jobs);
    std::size_t i = 0;
    for (const char *name : {"latbench", "lu"}) {
        std::printf("%s:\n", name);
        for (int mshrs : mshr_counts) {
            const auto &pair = results[i++].pair;
            std::printf("  lp=%-2d  base %9llu  clust %9llu  "
                        "(%5.1f%% reduction)\n",
                        mshrs,
                        (unsigned long long)pair.base.result.cycles,
                        (unsigned long long)pair.clust.result.cycles,
                        pair.reductionPct());
        }
        std::printf("\n");
    }
    return 0;
}
