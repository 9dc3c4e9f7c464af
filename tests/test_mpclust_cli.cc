/**
 * @file
 * Command-line contract of the mpclust, mpctune and mpcreport tools:
 * --help succeeds with the usage on stdout, and unknown options,
 * workloads or malformed values fail with exit status 2 and a message
 * naming them, before any simulation runs; so does an mpcreport input
 * of no known artifact shape. The benches' MPC_SCALE gets the same
 * treatment: a bad value is fatal before anything is printed.
 *
 * Runs the real binaries (paths baked in by CMake as MPCLUST_BIN,
 * MPCTUNE_BIN, MPCREPORT_BIN and BENCH_CONFIGS_BIN).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

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

/** Run `<env> <bin> <args>`, capturing stdout and stderr separately;
 *  @p env holds shell variable assignments. */
CliRun
runTool(const char *bin, const std::string &args,
        const std::string &env = "")
{
    // ctest runs each case in its own process, possibly concurrently:
    // name the capture files after the running test.
    const testing::TestInfo *test =
        testing::UnitTest::GetInstance()->current_test_info();
    const std::string stem = testing::TempDir() + "cli_" +
                             test->test_suite_name() + "_" + test->name();
    const std::string out_path = stem + ".out";
    const std::string err_path = stem + ".err";
    const std::string cmd = env + " '" + bin + "' " + args + " >'" +
                            out_path + "' 2>'" + err_path + "'";
    const int raw = std::system(cmd.c_str());
    CliRun run;
    if (raw != -1 && WIFEXITED(raw))
        run.status = WEXITSTATUS(raw);
    run.out = slurp(out_path);
    run.err = slurp(err_path);
    return run;
}

/** Options both drivers once accepted, with a value each: they are
 *  unknown now. */
const std::pair<std::string, std::string> kRetiredOptions[] = {
    {"--shards", "4"}, {"--exec-tier", "interp"}};

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

CliRun
runMpcreport(const std::string &args)
{
    return runTool(MPCREPORT_BIN, args);
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
    for (const auto &[option, value] : kRetiredOptions) {
        const CliRun run = runMpclust("ocean " + option + " " + value);
        EXPECT_EQ(run.status, 2) << option;
        EXPECT_NE(run.err.find("unknown option '" + option + "'"),
                  std::string::npos)
            << run.err;
        EXPECT_NE(run.err.find("usage:"), std::string::npos) << option;
        EXPECT_EQ(run.out, "") << option;
    }
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

TEST(MpclustCli, BadDumpIrModeIsNamedBeforeAnyRun)
{
    const CliRun run = runMpclust("em3d --scale 1 --dump-ir foo");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("mpclust: unknown IR dump mode 'foo'"),
              std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find("usage:"), std::string::npos) << run.err;
    EXPECT_EQ(run.out, "") << "a run started before the check";
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

    for (const auto &[option, value] : kRetiredOptions) {
        run = runMpctune("latbench " + option + " " + value);
        EXPECT_EQ(run.status, 2) << option;
        EXPECT_NE(run.err.find("unknown option '" + option + "'"),
                  std::string::npos)
            << run.err;
    }

    // mpctune alone once took --cache DIR.
    run = runMpctune("latbench --cache x");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("unknown option '--cache'"), std::string::npos)
        << run.err;
    EXPECT_EQ(run.out, "");

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

TEST(MpcreportCli, HelpPrintsUsageToStdoutAndSucceeds)
{
    const CliRun run = runMpcreport("--help");
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(run.out.rfind("usage:", 0), 0u) << run.out;
    EXPECT_NE(run.out.find("--markdown"), std::string::npos);
    EXPECT_EQ(run.err, "");
}

TEST(MpcreportCli, UnknownOptionIsNamed)
{
    // --store DIR was once an option: it must not be read as a file.
    for (const auto &[option, value] :
         {std::pair<std::string, std::string>{"--store", "x"},
          {"--bogus", ""}}) {
        const CliRun run = runMpcreport(option + " " + value);
        EXPECT_EQ(run.status, 2) << option;
        EXPECT_NE(run.err.find("mpcreport: unknown option '" + option +
                               "'"),
                  std::string::npos)
            << run.err;
        EXPECT_NE(run.err.find("usage:"), std::string::npos) << option;
        EXPECT_EQ(run.out, "") << option;
    }
}

TEST(MpcreportCli, RendersAModelFileWithANullManifest)
{
    // writeModelVsMeasuredJson writes "manifest": null when it has no
    // manifest; such a file is well-formed and renders.
    const std::string path =
        testing::TempDir() + "mpcreport_MODEL_VS_MEASURED_null.json";
    std::ofstream(path)
        << "{\n  \"manifest\": null,\n  \"apps\": [\n"
           "    {\"app\": \"fft\", \"mlpBase\": 1.250000, "
           "\"mlpClust\": 2.500000,\n     \"nests\": []}\n  ]\n}\n";
    const CliRun run = runMpcreport("'" + path + "'");
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_NE(run.out.find("model vs measured"), std::string::npos)
        << run.out;
    EXPECT_NE(run.out.find("2.50"), std::string::npos) << run.out;
    EXPECT_NE(run.out.find("carry no manifest"), std::string::npos)
        << run.out;
    std::remove(path.c_str());
}

TEST(MpcreportCli, RendersAManifestWithRetiredKeys)
{
    // Files written before the manifest lost its kernelHash and
    // pipeline keys still carry them; the extra keys are ignored.
    const std::string path =
        testing::TempDir() + "mpcreport_BENCH_retired_keys.json";
    std::ofstream(path)
        << "{\"bench\": \"fig3b_uni\", \"runs\": [], \"manifest\": "
           "{\"schema\": \"mpc-manifest-v1\", \"workload\": "
           "\"fig3b_uni\", \"kernelHash\": \"0000000000000000\", "
           "\"config\": \"base-500MHz\", \"configHash\": "
           "\"00000000deadbeef\", \"procs\": 1, \"pipeline\": \"\", "
           "\"obs\": false, \"validate\": false, \"host\": \"\"}}\n";
    const CliRun run = runMpcreport("'" + path + "'");
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_NE(run.out.find("artifact provenance"), std::string::npos)
        << run.out;
    EXPECT_NE(run.out.find("00000000deadbeef"), std::string::npos)
        << run.out;
    EXPECT_EQ(run.out.find("pipeline"), std::string::npos) << run.out;
    std::remove(path.c_str());
}

TEST(MpcreportCli, TrailingInputIsMalformedJson)
{
    // A bench object followed by junk, or by the start of a second
    // value, is not one JSON document: mpcreport must not render the
    // first value and succeed.
    const std::string path =
        testing::TempDir() + "mpcreport_trailing.json";
    for (const char *tail : {" trailing junk", " {\"x\": 1"}) {
        std::ofstream(path)
            << "{\"bench\": \"fig3b_uni\", \"runs\": []}" << tail << "\n";
        const CliRun run = runMpcreport("'" + path + "'");
        EXPECT_EQ(run.status, 2) << tail;
        EXPECT_NE(run.err.find("mpcreport: " + path + ": malformed JSON"),
                  std::string::npos)
            << run.err;
        EXPECT_EQ(run.out, "") << tail;
    }
    std::remove(path.c_str());
}

TEST(MpcreportCli, UnrecognizedArtifactFailsNamingItsSchema)
{
    const std::string stem = testing::TempDir() + "mpcreport_shapes_";
    const std::string bench = stem + "BENCH.json";
    const std::string samples = stem + "SAMPLES.json";
    const std::string shapeless = stem + "other.json";
    std::ofstream(bench) << "{\"bench\": \"fig3b_uni\", \"runs\": [], "
                            "\"manifest\": {\"workload\": \"fig3b_uni\"}}\n";
    std::ofstream(samples) << "{\"schema\": \"mpc-samples-v1\", "
                              "\"period\": 500, \"epochs\": []}\n";
    std::ofstream(shapeless) << "{\"answer\": 42}\n";

    // The bench file alone renders.
    CliRun run = runMpcreport("'" + bench + "'");
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_NE(run.out.find("artifact provenance"), std::string::npos)
        << run.out;

    // Beside it, a file of no known shape fails the whole run before
    // any report is printed, and the message names the file and its
    // schema, if it has one.
    run = runMpcreport("'" + bench + "' '" + samples + "'");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("mpcreport: " + samples +
                           ": unrecognized artifact with schema "
                           "'mpc-samples-v1'"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(run.out, "");

    run = runMpcreport("'" + bench + "' '" + shapeless + "'");
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("mpcreport: " + shapeless +
                           ": unrecognized artifact\n"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(run.out, "");

    for (const std::string &path : {bench, samples, shapeless})
        std::remove(path.c_str());
}

TEST(BenchScale, BadMpcScaleIsFatalBeforeAnyOutput)
{
    for (const char *value : {"4", "abc", "0", "-1", "2x"}) {
        const CliRun run = runTool(BENCH_CONFIGS_BIN, "",
                                   std::string("MPC_SCALE='") + value +
                                       "'");
        EXPECT_EQ(run.status, 1) << value;
        EXPECT_NE(run.err.find("MPC_SCALE"), std::string::npos)
            << value << ": " << run.err;
        EXPECT_NE(run.err.find(std::string("'") + value + "'"),
                  std::string::npos)
            << value << ": " << run.err;
        EXPECT_EQ(run.out, "") << value;
    }
}

TEST(BenchScale, ValidOrUnsetMpcScaleRuns)
{
    // bench_configs prints the scale it runs at; empty means unset.
    for (const auto &[env, scale] :
         {std::pair<std::string, int>{"MPC_SCALE=1", 1},
          {"MPC_SCALE=3", 3}, {"MPC_SCALE=", 2},
          {"env -u MPC_SCALE", 2}}) {
        const CliRun run = runTool(BENCH_CONFIGS_BIN, "", env);
        EXPECT_EQ(run.status, 0) << env << ": " << run.err;
        EXPECT_NE(run.out.find("MPC_SCALE=" + std::to_string(scale) + ")"),
                  std::string::npos)
            << env;
    }
}

} // namespace
