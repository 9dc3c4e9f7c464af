/**
 * @file
 * Experiment E7 (Tables 1 and 2): print the simulated configurations
 * and workload inputs for provenance — the analogue of the paper's
 * configuration tables for this reproduction.
 */

#include "bench_common.hh"

namespace
{

void
printConfig(const mpc::sys::SystemConfig &cfg)
{
    using mpc::mem::Interleave;
    std::printf("== %s ==\n", cfg.name.c_str());
    std::printf("  clock            %.0f MHz (%.2f ns/cycle)\n",
                1000.0 / cfg.nsPerCycle, cfg.nsPerCycle);
    std::printf("  fetch/issue/ret  %d / %d / %d per cycle\n",
                cfg.core.fetchWidth, cfg.core.issueWidth,
                cfg.core.retireWidth);
    std::printf("  window / memq    %d instructions / %d entries\n",
                cfg.core.windowSize, cfg.core.memQueueSize);
    std::printf("  branches         %d outstanding\n",
                cfg.core.maxBranches);
    std::printf("  FUs              %d ALU, %d FPU, %d address\n",
                cfg.core.numAlus, cfg.core.numFpus,
                cfg.core.numAddrUnits);
    std::printf("  FU latencies     alu %llu, imul %llu, fp %llu, "
                "fdiv %llu, fsqrt %llu\n",
                (unsigned long long)cfg.core.latIntAlu,
                (unsigned long long)cfg.core.latIntMul,
                (unsigned long long)cfg.core.latFpArith,
                (unsigned long long)cfg.core.latFpDiv,
                (unsigned long long)cfg.core.latFpSqrt);
    if (cfg.hier.singleLevel) {
        std::printf("  cache (single)   %llu KB, %d-way, %dB lines, "
                    "%d MSHRs\n",
                    (unsigned long long)(cfg.hier.l1.sizeBytes / 1024),
                    cfg.hier.l1.assoc, cfg.hier.l1.lineBytes,
                    cfg.hier.l1.numMshrs);
    } else {
        std::printf("  L1D              %llu KB, %d-way, %dB lines, "
                    "%d MSHRs, %d ports\n",
                    (unsigned long long)(cfg.hier.l1.sizeBytes / 1024),
                    cfg.hier.l1.assoc, cfg.hier.l1.lineBytes,
                    cfg.hier.l1.numMshrs, cfg.hier.l1.numPorts);
        std::printf("  L2               scaled per app (Table 2), "
                    "%d-way, %dB lines, %d MSHRs\n",
                    cfg.hier.l2.assoc, cfg.hier.l2.lineBytes,
                    cfg.hier.l2.numMshrs);
    }
    std::printf("  memory           %d banks, %s interleave, "
                "%llu-cycle bank access\n",
                cfg.membus.numBanks,
                cfg.membus.interleave == Interleave::Permutation
                    ? "permutation"
                    : cfg.membus.interleave == Interleave::Skewed
                          ? "skewed"
                          : "sequential",
                (unsigned long long)cfg.membus.bankAccessLatency);
    std::printf("  bus              %d bytes wide, 1:%d clock ratio\n",
                cfg.membus.busWidthBytes,
                cfg.membus.cpuCyclesPerBusCycle);
    if (cfg.smpBus)
        std::printf("  interconnect     shared SMP bus\n");
    else
        std::printf("  interconnect     2D mesh, 1:%d clock, "
                    "%d net-cycles/hop\n",
                    cfg.mesh.cpuCyclesPerNetCycle,
                    cfg.mesh.hopDelayNetCycles);
    std::printf("\n");
}

} // namespace

int
main()
{
    using namespace mpc;
    // Read MPC_SCALE first: a bad value fails before anything prints.
    const auto size = bench::scaleFromEnv();
    std::printf("=== E7: system configurations (paper Table 1) ===\n\n");
    printConfig(sys::baseConfig());
    printConfig(sys::oneGHzConfig());
    printConfig(sys::exemplarConfig());

    std::printf("=== E7: workload inputs (paper Table 2, scaled; "
                "MPC_SCALE=%d) ===\n\n",
                size.scale);
    auto print_workload = [](const workloads::Workload &w) {
        std::uint64_t bytes = 0;
        for (const auto &array : w.kernel.arrays)
            bytes += array.sizeBytes();
        std::printf("  %-11s arrays %7llu KB  L2 %5llu KB  procs %2d  "
                    "(%s)\n",
                    w.name.c_str(),
                    (unsigned long long)(bytes / 1024),
                    (unsigned long long)(w.l2Bytes / 1024),
                    w.defaultProcs ? w.defaultProcs : 1,
                    w.pattern.c_str());
    };
    print_workload(workloads::makeLatbench(size));
    for (const auto &w : workloads::makeAllApps(size))
        print_workload(w);
    return 0;
}
