/**
 * @file
 * The figure-bench stdouts are the contract: every bench run at
 * MPC_SCALE=1 must print, byte for byte, the file committed under
 * bench/expected/scale1/. A change that moves a simulated number
 * updates that file (and its scale2/ twin, which CI checks) in the
 * same commit, so the diff shows each number that moved.
 *
 * Runs the real bench binaries (directory baked in by CMake as
 * BENCH_BIN_DIR; the committed files' directory as EXPECTED_DIR).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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

class BenchStdout : public ::testing::TestWithParam<const char *>
{};

TEST_P(BenchStdout, MatchesCommittedScale1Output)
{
    const std::string bench = GetParam();
    const std::string expected_path =
        std::string(EXPECTED_DIR) + "/" + bench + ".txt";
    ASSERT_TRUE(std::filesystem::exists(expected_path)) << expected_path;

    // Benches write their JSON artifacts to the working directory, and
    // ctest may run several at once: give each its own.
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        ("bench_stdout_" + bench);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string cmd = "cd '" + dir.string() + "' && MPC_SCALE=1 '" +
                            BENCH_BIN_DIR + "/" + bench +
                            "' > stdout.txt 2> stderr.txt";
    const int raw = std::system(cmd.c_str());
    const std::vector<std::string> actual =
        readLines((dir / "stdout.txt").string());
    std::ifstream err_in(dir / "stderr.txt");
    std::ostringstream err;
    err << err_in.rdbuf();
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(raw != -1 && WIFEXITED(raw) && WEXITSTATUS(raw) == 0)
        << bench << " failed:\n" << err.str();

    const std::vector<std::string> expected = readLines(expected_path);
    for (std::size_t i = 0; i < std::max(expected.size(), actual.size());
         ++i) {
        const std::string want =
            i < expected.size() ? expected[i] : "(end of file)";
        const std::string got =
            i < actual.size() ? actual[i] : "(end of output)";
        if (want != got)
            FAIL() << bench << ": stdout differs from " << expected_path
                   << " first at line " << i + 1 << "\n  expected: "
                   << want << "\n  actual:   " << got;
    }
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

} // namespace
