/**
 * @file
 * Experiment E5 (Figure 4): L2 MSHR utilization for the multiprocessor
 * runs of Ocean and LU, the paper's two extremes. (a) plots the
 * fraction of time at least N MSHRs are occupied by read misses;
 * (b) the same for total (read + write) occupancy. The paper's shape:
 * the transformations barely move Ocean (its base already clusters
 * some) but convert LU from almost-never >1 outstanding read miss to
 * 2+ outstanding 20% of the time and up to 9 at times.
 */

#include "bench_common.hh"

int
main()
{
    using namespace mpc;
    const auto size = bench::scaleFromEnv();

    std::vector<harness::PairJob> jobs(2);
    jobs[0].workload = workloads::makeOcean(size);
    jobs[1].workload = workloads::makeLu(size);
    for (auto &job : jobs) {
        job.label = job.workload.name;
        job.config = sys::baseConfig();
        job.procs = job.workload.defaultProcs;
        job.scale = size.scale;
    }
    std::fprintf(stderr, "running ocean and lu pairs in parallel...\n");
    const auto results = harness::runPairsParallel(jobs);
    const auto &ocean_pair = results[0].pair;
    const auto &lu_pair = results[1].pair;

    std::vector<std::string> labels{"Ocean", "Ocean(clust)", "LU",
                                    "LU(clust)"};
    std::vector<const sys::RunResult *> runs{
        &ocean_pair.base.result, &ocean_pair.clust.result,
        &lu_pair.base.result, &lu_pair.clust.result};
    std::printf("%s",
                harness::formatFig4(
                    labels, runs,
                    "E5 / Figure 4: L2 MSHR utilization (multiprocessor "
                    "Ocean and LU)")
                    .c_str());
    // Structured twin of the table above, from the same Fig4Series,
    // stamped with the invocation's provenance (procs 0: the two apps
    // run at their own default processor counts).
    const std::string manifest =
        harness::makeInvocationManifest("fig4_mshr", sys::baseConfig(), 0)
            .toJson();
    if (!harness::writeFig4Json("FIG4_mshr.json", labels, runs,
                                manifest))
        std::fprintf(stderr, "warning: cannot write FIG4_mshr.json\n");
    return 0;
}
