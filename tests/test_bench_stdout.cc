/**
 * @file
 * The figure-bench stdouts are the contract: every bench run at
 * MPC_SCALE=1 must print, byte for byte, the file committed under
 * bench/expected/scale1/. A change that moves a simulated number
 * updates that file (and its scale2/ twin, which CI checks) in the
 * same commit, so the diff shows each number that moved. The same
 * holds for `mpclust <app> --scale 1 --procs P --show-kernel` at
 * P = 1 and 8 and bench/expected/kernels/, which pins the transformed
 * kernels.
 *
 * Runs the real binaries (BENCH_BIN_DIR and MPCLUST_BIN, baked in by
 * CMake; the committed files' directories as EXPECTED_DIR and
 * KERNELS_DIR).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace
{

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Run @p command in a fresh directory named after @p name (the benches
 * write JSON artifacts to the working directory, and ctest may run
 * several at once) and expect its stdout to equal @p expected_path,
 * naming @p label and the first line that differs.
 */
void
expectCommittedStdout(const std::string &name, const std::string &label,
                      const std::string &command,
                      const std::string &expected_path)
{
    ASSERT_TRUE(std::filesystem::exists(expected_path)) << expected_path;
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / ("stdout_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string cmd = "cd '" + dir.string() + "' && " + command +
                            " > stdout.txt 2> stderr.txt";
    const int raw = std::system(cmd.c_str());
    const std::vector<std::string> actual =
        readLines((dir / "stdout.txt").string());
    std::ifstream err_in(dir / "stderr.txt");
    std::ostringstream err;
    err << err_in.rdbuf();
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(raw != -1 && WIFEXITED(raw) && WEXITSTATUS(raw) == 0)
        << label << " failed:\n" << err.str();

    const std::vector<std::string> expected = readLines(expected_path);
    for (std::size_t i = 0; i < std::max(expected.size(), actual.size());
         ++i) {
        const std::string want =
            i < expected.size() ? expected[i] : "(end of file)";
        const std::string got =
            i < actual.size() ? actual[i] : "(end of output)";
        if (want != got)
            FAIL() << label << ": stdout differs from " << expected_path
                   << " first at line " << i + 1 << "\n  expected: "
                   << want << "\n  actual:   " << got;
    }
}

class BenchStdout : public ::testing::TestWithParam<const char *>
{};

TEST_P(BenchStdout, MatchesCommittedScale1Output)
{
    const std::string bench = GetParam();
    expectCommittedStdout(bench, bench,
                          "MPC_SCALE=1 '" + std::string(BENCH_BIN_DIR) +
                              "/" + bench + "'",
                          std::string(EXPECTED_DIR) + "/" + bench + ".txt");
}

INSTANTIATE_TEST_SUITE_P(
    Benches, BenchStdout,
    ::testing::Values("bench_1ghz", "bench_ablate_degree",
                      "bench_ablate_interleave", "bench_ablate_mshr",
                      "bench_ablate_sched", "bench_configs",
                      "bench_fig2_motivation", "bench_fig3a_multi",
                      "bench_fig3b_uni", "bench_fig4_mshr",
                      "bench_latbench", "bench_prefetch",
                      "bench_scale64", "bench_table3_exemplar"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

/** (workload, processor count) */
class KernelStdout
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{};

TEST_P(KernelStdout, MatchesCommittedScale1Output)
{
    const std::string workload = std::get<0>(GetParam());
    const std::string procs = std::to_string(std::get<1>(GetParam()));
    expectCommittedStdout(workload + "-" + procs + "p",
                          "mpclust " + workload + " at P = " + procs,
                          "'" + std::string(MPCLUST_BIN) + "' " +
                              workload + " --scale 1 --procs " + procs +
                              " --show-kernel",
                          std::string(KERNELS_DIR) + "/" + workload + "-" +
                              procs + "p.txt");
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, KernelStdout,
    ::testing::Combine(::testing::Values("latbench", "em3d", "erlebacher",
                                         "fft", "lu", "mp3d", "mst",
                                         "ocean"),
                       ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<std::tuple<const char *, int>>
           &info) {
        return std::string(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "p";
    });

} // namespace
