/**
 * @file
 * Command-line contract of the mpclust and mpctune drivers: --help
 * succeeds with the usage on stdout, and unknown options, workloads or
 * malformed values fail with exit status 2 and a message naming them,
 * before any simulation runs.
 *
 * Runs the real binaries (paths baked in by CMake as MPCLUST_BIN and
 * MPCTUNE_BIN).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

struct CliRun
{
    int status = -1;  ///< exit status (-1: did not exit normally)
    std::string out;
    std::string err;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Run `<bin> <args>`, capturing stdout and stderr separately. */
CliRun
runTool(const char *bin, const std::string &args)
{
    // ctest runs each case in its own process, possibly concurrently:
    // name the capture files after the running test.
    const testing::TestInfo *test =
        testing::UnitTest::GetInstance()->current_test_info();
    const std::string stem = testing::TempDir() + "cli_" +
                             test->test_suite_name() + "_" + test->name();
    const std::string out_path = stem + ".out";
    const std::string err_path = stem + ".err";
    const std::string cmd = std::string("'") + bin + "' " + args + " >'" +
                            out_path + "' 2>'" + err_path + "'";
    const int raw = std::system(cmd.c_str());
    CliRun run;
    if (raw != -1 && WIFEXITED(raw))
        run.status = WEXITSTATUS(raw);
    run.out = slurp(out_path);
    run.err = slurp(err_path);
    return run;
}

CliRun
runMpclust(const std::string &args)
{
    return runTool(MPCLUST_BIN, args);
}

CliRun
runMpctune(const std::string &args)
{
    return runTool(MPCTUNE_BIN, args);
}

TEST(MpclustCli, HelpPrintsUsageToStdoutAndSucceeds)
{
    for (const char *flag : {"--help", "-h", "ocean --help"}) {
        const CliRun run = runMpclust(flag);
        EXPECT_EQ(run.status, 0) << flag;
        EXPECT_EQ(run.out.rfind("usage:", 0), 0u) << flag << ": " << run.out;
        EXPECT_NE(run.out.find("--show-refs"), std::string::npos);
        EXPECT_EQ(run.err, "") << flag;
    }
}

TEST(MpclustCli, UnknownOptionIsNamed)
{
    const CliRun run = runMpclust("ocean --shards 4");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("unknown option '--shards'"), std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find("usage:"), std::string::npos);
    EXPECT_EQ(run.out, "");
}

TEST(MpclustCli, MalformedNumbersAreRejected)
{
    for (const char *args :
         {"latbench --scale abc", "latbench --scale 4", "latbench --scale 2x",
          "latbench --procs x", "latbench --procs 0",
          "latbench --prefetch -1", "latbench --max-unroll 0"}) {
        const CliRun run = runMpclust(args);
        EXPECT_EQ(run.status, 2) << args;
        EXPECT_NE(run.err.find("mpclust: bad --"), std::string::npos)
            << args << ": " << run.err;
        EXPECT_EQ(run.out, "") << args;
    }
}

TEST(MpclustCli, BadConfigAndMissingValueAreNamed)
{
    CliRun run = runMpclust("latbench --config fast");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("bad --config 'fast'"), std::string::npos)
        << run.err;

    run = runMpclust("latbench --scale");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("'--scale' needs a value"), std::string::npos)
        << run.err;

    run = runMpclust("nosuchapp");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("unknown workload 'nosuchapp'"),
              std::string::npos)
        << run.err;
}

TEST(MpctuneCli, HelpPrintsUsageToStdoutAndSucceeds)
{
    for (const char *flag : {"--help", "-h", "latbench --help"}) {
        const CliRun run = runMpctune(flag);
        EXPECT_EQ(run.status, 0) << flag;
        EXPECT_EQ(run.out.rfind("usage:", 0), 0u) << flag << ": " << run.out;
        EXPECT_NE(run.out.find("--budget"), std::string::npos);
        EXPECT_EQ(run.err, "") << flag;
    }
}

TEST(MpctuneCli, MalformedOrOutOfRangeNumbersAreRejected)
{
    for (const char *args :
         {"latbench --scale abc", "latbench --scale 0", "latbench --scale 4",
          "latbench --procs 0", "latbench --budget 0", "latbench --budget 2x",
          "latbench --jobs -1"}) {
        const CliRun run = runMpctune(args);
        EXPECT_EQ(run.status, 2) << args;
        EXPECT_NE(run.err.find("mpctune: bad --"), std::string::npos)
            << args << ": " << run.err;
        EXPECT_NE(run.err.find("usage:"), std::string::npos) << args;
        EXPECT_EQ(run.out, "") << args;
    }
}

TEST(MpctuneCli, BadConfigUnknownOptionAndMissingValueAreNamed)
{
    CliRun run = runMpctune("latbench --config nope");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("mpctune: bad --config 'nope'"),
              std::string::npos)
        << run.err;

    run = runMpctune("latbench --shards 4");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("unknown option '--shards'"), std::string::npos)
        << run.err;

    run = runMpctune("latbench --budget");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("'--budget' needs a value"), std::string::npos)
        << run.err;
}

TEST(MpctuneCli, UnknownWorkloadIsRejectedBeforeAnyTuning)
{
    // The bad name comes after a good one: nothing may be tuned first.
    const CliRun run = runMpctune("latbench nosuch");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("mpctune: unknown workload 'nosuch'"),
              std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find("usage:"), std::string::npos);
    EXPECT_EQ(run.out, "");
}

} // namespace
