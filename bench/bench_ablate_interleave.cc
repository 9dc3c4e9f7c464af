/**
 * @file
 * Ablation A4 (Section 5.3): memory-bank interleaving policy. The
 * paper attributes the LU discrepancy between the simulated system and
 * the Exemplar to their different interleaving schemes (permutation-
 * based vs skewed). This sweep runs LU and FFT under sequential,
 * permutation, and skewed interleaving, base vs clustered.
 */

#include "bench_common.hh"

int
main()
{
    using namespace mpc;
    const auto size = bench::scaleFromEnv();
    std::printf("=== A4: bank-interleaving policy (uniprocessor) "
                "===\n\n");
    const std::pair<mem::Interleave, const char *> policies[] = {
        {mem::Interleave::Sequential, "sequential"},
        {mem::Interleave::Permutation, "permutation (base config)"},
        {mem::Interleave::Skewed, "skewed (Exemplar)"},
    };
    std::vector<harness::PairJob> jobs;
    for (const char *name : {"lu", "fft"}) {
        for (const auto &[policy, label] : policies) {
            harness::PairJob job;
            job.label = std::string(name) + "/" + label;
            job.workload = workloads::makeByName(name, size);
            job.config = sys::baseConfig();
            job.config.membus.interleave = policy;
            job.procs = 1;
            jobs.push_back(std::move(job));
        }
    }
    std::fprintf(stderr, "running %zu sweep points in parallel...\n",
                 jobs.size());
    const auto results = harness::runPairsParallel(jobs);
    std::size_t i = 0;
    for (const char *name : {"lu", "fft"}) {
        std::printf("%s:\n", name);
        for (const auto &[policy, label] : policies) {
            (void)policy;
            const auto &pair = results[i++].pair;
            std::printf("  %-26s base %9llu  clust %9llu  "
                        "(%5.1f%% reduction)\n",
                        label,
                        (unsigned long long)pair.base.result.cycles,
                        (unsigned long long)pair.clust.result.cycles,
                        pair.reductionPct());
        }
        std::printf("\n");
    }
    return 0;
}
