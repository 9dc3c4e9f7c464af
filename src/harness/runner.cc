#include "harness/runner.hh"

#include "codegen/codegen.hh"
#include "transform/transforms.hh"
#include "common/logging.hh"
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "harness/manifest.hh"
#include "harness/profiler.hh"

namespace mpc::harness
{

sys::SystemConfig
scaleConfig(sys::SystemConfig config, const workloads::Workload &workload)
{
    // Scale the lowest cache level with the input, as the paper does
    // (Woo et al. methodology). Line size and MSHR count stay fixed.
    if (config.hier.singleLevel)
        config.hier.l1.sizeBytes = workload.l2Bytes;
    else
        config.hier.l2.sizeBytes = workload.l2Bytes;

    // Opt-in validation layer (CI runs the integration suite with
    // MPC_VALIDATE=1); MPC_VALIDATE_TRACE names the Chrome-trace JSON
    // dumped on a failure.
    if (const char *env = std::getenv("MPC_VALIDATE");
        env != nullptr && env[0] == '1') {
        config.validate = true;
        if (const char *trace = std::getenv("MPC_VALIDATE_TRACE"))
            config.validateTracePath = trace;
    }

    // Opt-in observability layer (src/obs): MPC_OBS=1 collects the
    // MLP/cluster/stall metrics; MPC_TRACE=<path> dumps the ring-buffer
    // Chrome trace at end of run (runWorkload uniquifies the path per
    // run so parallel benches do not clobber each other).
    if (const char *env = std::getenv("MPC_OBS");
        env != nullptr && env[0] == '1')
        config.obsMetrics = true;
    if (const char *trace = std::getenv("MPC_TRACE");
        trace != nullptr && trace[0] != '\0')
        config.obsTracePath = trace;

    // Opt-in epoch sampler: MPC_SAMPLE=<cycles> sets the sampling
    // period; MPC_SAMPLE_PATH overrides the time-series JSON path
    // (default SAMPLES.json; runWorkload uniquifies it per run, like
    // the trace path).
    if (const char *env = std::getenv("MPC_SAMPLE");
        env != nullptr && env[0] != '\0') {
        const long long period = std::atoll(env);
        if (period > 0) {
            config.samplePeriod = static_cast<Tick>(period);
            config.samplePath = "SAMPLES.json";
            if (const char *path = std::getenv("MPC_SAMPLE_PATH");
                path != nullptr && path[0] != '\0')
                config.samplePath = path;
        }
    }
    return config;
}

namespace
{

/** trace.json -> trace.<workload>.<base|clust>.<N>p.json */
std::string
uniquifyTracePath(const std::string &path, const std::string &workload,
                  bool clustered, int procs)
{
    const std::string tag =
        strprintf(".%s.%s.%dp", workload.c_str(),
                  clustered ? "clust" : "base", std::max(procs, 1));
    const auto dot = path.rfind('.');
    const auto slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + tag;
    return path.substr(0, dot) + tag + path.substr(dot);
}

/** Trace track id for the compiler-pass spans (cores use 0..N-1). */
constexpr int kCompilerTrack = -2;

/** Parse @p spec through the registry, fataling on a bad spec. */
transform::Pipeline
makePipeline(const std::string &spec, const workloads::Workload &workload,
             const RunSpec &run_spec)
{
    transform::Pipeline pipeline;
    std::string error;
    if (!transform::Pipeline::parse(spec, pipeline, error))
        fatal("invalid pipeline spec: %s", error.c_str());
    // Give the verifier the workload's real memory initializer so the
    // per-pass equivalence check (MPC_VERIFY_PASSES=1) interprets every
    // kernel over real data instead of falling back to the synthetic
    // fill (or, for pointer-chase kernels, structural checks only).
    pipeline.initMemory = [&workload](kisa::MemoryImage &image) {
        workload.init(image);
    };
    if (run_spec.dumpIr == "after-each-pass")
        pipeline.afterPass = [](const std::string &pass,
                                const ir::Kernel &kernel) {
            std::printf("==== IR after pass '%s' ====\n%s",
                        pass.c_str(), kernel.toString().c_str());
        };
    else if (!run_spec.dumpIr.empty())
        fatal("unknown IR dump mode '%s' (expected 'after-each-pass')",
              run_spec.dumpIr.c_str());
    return pipeline;
}

} // namespace

transform::DriverParams
makeDriverParams(const workloads::Workload &workload,
                 const ir::Kernel &kernel,
                 const sys::SystemConfig &config, int procs,
                 int max_unroll)
{
    // Profile P_m on the base uniprocessor binary with the target
    // cache geometry (Section 3.2.2: "measured through cache
    // simulation or profiling").
    kisa::MemoryImage scratch;
    workload.init(scratch);
    const kisa::Program base_prog = codegen::lower(kernel);
    const auto &geometry =
        config.hier.singleLevel ? config.hier.l1 : config.hier.l2;
    const CacheProfile profile =
        CacheProfile::measure(base_prog, scratch, geometry);

    transform::DriverParams params;
    params.lp = geometry.numMshrs;
    params.windowSize = config.core.windowSize;
    params.lineBytes = geometry.lineBytes;
    params.maxUnroll = max_unroll;
    params.bodySize = codegen::loweredBodySize;
    params.missRate = [profile](int ref_id) {
        return profile.missRate(ref_id);
    };
    if (procs > 1) {
        // Run-matched profile: the partitioned per-core programs
        // through per-core caches with write-invalidation, so the
        // driver can see when partitioning shrank a stream's
        // footprint below the cache and its static miss estimate
        // stopped being realizable (communication misses only).
        kisa::MemoryImage multi_scratch;
        workload.init(multi_scratch);
        const auto per_core =
            codegen::lowerForCores(kernel, procs, false, {});
        const CacheProfile realized = CacheProfile::measureMulti(
            per_core, multi_scratch, geometry);
        params.realizedMissRate = [realized](int ref_id) {
            return realized.missRate(ref_id);
        };
        params.realizedAccesses = [realized](int ref_id) {
            return realized.accesses(ref_id);
        };
    }
    return params;
}

WorkloadRun
runWorkload(const workloads::Workload &workload, const RunSpec &spec)
{
    WorkloadRun out;
    sys::SystemConfig config = scaleConfig(spec.config, workload);
    if (!config.obsTracePath.empty())
        config.obsTracePath =
            uniquifyTracePath(config.obsTracePath, workload.name,
                              spec.clustered, spec.procs);
    if (!config.samplePath.empty())
        config.samplePath =
            uniquifyTracePath(config.samplePath, workload.name,
                              spec.clustered, spec.procs);

    ir::Kernel kernel = workload.kernel.clone();
    const bool transforming = spec.clustered || !spec.pipeline.empty();

    // Partition parallel loops per processor at the IR level before any
    // transformation, so unroll-and-jam operates on each processor's
    // own range (balanced chunks, per-processor postludes). Partitioning
    // is itself a registered pass run as a one-pass pipeline, so it gets
    // the same per-pass verification as the main transformation.
    std::vector<transform::PassReport> partition_passes;
    if (spec.procs > 1) {
        transform::Pipeline partition =
            makePipeline("partition", workload, spec);
        transform::DriverParams partition_params;
        partition_passes =
            std::move(partition.run(kernel, partition_params).passes);
    }

    std::string spec_string;  // "" = base (untransformed)
    if (transforming) {
        const transform::DriverParams params = makeDriverParams(
            workload, kernel, config, spec.procs, spec.maxUnroll);
        spec_string = spec.pipeline.empty()
                          ? transform::pipelineSpecFromParams(params)
                          : spec.pipeline;
        transform::Pipeline pipeline =
            makePipeline(spec_string, workload, spec);
        out.report = pipeline.run(kernel, params);
    }
    if (!partition_passes.empty())
        out.report.passes.insert(out.report.passes.begin(),
                                 std::make_move_iterator(
                                     partition_passes.begin()),
                                 std::make_move_iterator(
                                     partition_passes.end()));

    out.kernelText = kernel.toString();

    const int procs = std::max(spec.procs, 1);

    // Provenance for every artifact this run emits: built from the
    // final (transformed) kernel text and the scaled, env-applied
    // configuration, and handed to the System before construction so
    // the sampler's time-series JSON can embed it.
    out.manifestJson =
        makeRunManifest(workload.name, out.kernelText, config, procs,
                        spec_string)
            .toJson();
    config.manifestJson = out.manifestJson;

    std::set<std::uint32_t> leading;
    for (int ref_id : out.report.leadingRefIds)
        leading.insert(static_cast<std::uint32_t>(ref_id));
    auto programs = codegen::lowerForCores(kernel, procs,
                                           transforming, leading);

    kisa::MemoryImage image;
    workload.init(image);

    coherence::PlacementPolicy placement(procs,
                                         config.fabric.lineBytes);
    if (workload.place)
        workload.place(placement);

    sys::System system(config, std::move(programs), image, &placement);

    // Replay the per-pass wall times as spans on a dedicated compiler
    // track (microsecond pseudo-ticks starting at 0), so an MPC_TRACE
    // timeline shows what the transformation pipeline did before the
    // simulated execution. Names come from the registry so the tracer
    // only ever sees process-lifetime strings.
    if (obs::Observer *observer = system.observer()) {
        if (obs::Tracer *tracer = observer->tracer();
            tracer != nullptr && !out.report.passes.empty()) {
            tracer->setTrackName(kCompilerTrack, "compiler passes");
            // String literals: the tracer keeps event-name pointers.
            const std::string &vt = out.report.verifyTier;
            const char *verify_name =
                vt == "threaded"    ? "verify/threaded"
                : vt == "evaluator" ? "verify/evaluator"
                                    : nullptr;
            Tick now = 0;
            if (verify_name != nullptr &&
                out.report.refChecksumMs > 0.0) {
                const Tick dur = std::max<Tick>(
                    1, static_cast<Tick>(out.report.refChecksumMs *
                                         1000.0));
                tracer->span(now, now + dur, kCompilerTrack,
                             verify_name);
                now += dur;
            }
            for (const auto &pass : out.report.passes) {
                const Tick dur = std::max<Tick>(
                    1, static_cast<Tick>(pass.wallMs * 1000.0));
                tracer->span(now, now + dur, kCompilerTrack,
                             transform::PassRegistry::instance()
                                 .stableName(pass.pass),
                             static_cast<std::uint64_t>(pass.actions),
                             pass.skipped ? 1 : 0);
                now += dur;
                if (verify_name != nullptr && pass.verifyMs > 0.0) {
                    const Tick vdur = std::max<Tick>(
                        1,
                        static_cast<Tick>(pass.verifyMs * 1000.0));
                    tracer->span(now, now + vdur, kCompilerTrack,
                                 verify_name);
                    now += vdur;
                }
            }
        }
    }

    out.result = system.run(spec.maxCycles);
    return out;
}

PairResult
runPair(const workloads::Workload &workload,
        const sys::SystemConfig &config, int procs)
{
    PairResult pair;
    RunSpec spec;
    spec.config = config;
    spec.procs = procs;
    spec.clustered = false;
    pair.base = runWorkload(workload, spec);
    spec.clustered = true;
    pair.clust = runWorkload(workload, spec);
    return pair;
}

} // namespace mpc::harness
