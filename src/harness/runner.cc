#include "harness/runner.hh"

#include "codegen/codegen.hh"
#include "transform/transforms.hh"
#include "common/logging.hh"
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

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

/**
 * The two miss-rate profiles of one run, each executed the first time
 * a pass reads it: a spec whose passes read no miss rate runs neither.
 * Every copy of the DriverParams shares one instance, so each runs at
 * most once. It owns all it needs (the partitioned clone, a copy of
 * the workload's initializer, the cache geometry), so the caller's
 * kernel and workload may go away after makeDriverParams returns.
 */
class LazyProfiles
{
  public:
    LazyProfiles(ir::Kernel kernel,
                 std::function<void(kisa::MemoryImage &)> init,
                 const mem::CacheConfig &geometry, int procs)
        : kernel_(std::move(kernel)), init_(std::move(init)),
          geometry_(geometry), procs_(procs)
    {}

    /** P_m (Section 3.2.2): the base program on one core. */
    const CacheProfile &
    oneCore()
    {
        std::call_once(oneCoreOnce_, [this] { oneCore_ = measure(1); });
        return oneCore_;
    }

    /** The run-matched profile: the base program on every core. */
    const CacheProfile &
    runMatched()
    {
        std::call_once(runMatchedOnce_,
                       [this] { runMatched_ = measure(procs_); });
        return runMatched_;
    }

  private:
    CacheProfile
    measure(int cores)
    {
        std::call_once(programOnce_,
                       [this] { program_ = codegen::lower(kernel_); });
        kisa::MemoryImage scratch;
        init_(scratch);
        return CacheProfile::measure(program_, scratch, geometry_, cores);
    }

    const ir::Kernel kernel_;
    const std::function<void(kisa::MemoryImage &)> init_;
    const mem::CacheConfig geometry_;
    const int procs_;
    std::once_flag programOnce_, oneCoreOnce_, runMatchedOnce_;
    kisa::Program program_;
    CacheProfile oneCore_, runMatched_;
};

/** Does @p spec name the partition pass? False for "" and for a bad
 *  spec, which makePipeline then reports. */
bool
namesPartition(const std::string &spec)
{
    transform::Pipeline parsed;
    std::string error;
    if (!transform::Pipeline::parse(spec, parsed, error))
        return false;
    const std::vector<std::string> names = parsed.passNames();
    return std::count(names.begin(), names.end(), "partition") > 0;
}

} // namespace

transform::DriverParams
makeDriverParams(const workloads::Workload &workload,
                 const ir::Kernel &kernel,
                 const sys::SystemConfig &config, int procs,
                 int max_unroll)
{
    // P_m is profiled on the base binary with the target cache
    // geometry (Section 3.2.2: "measured through cache simulation or
    // profiling"). At P > 1 that is the partitioned kernel, which the
    // run's pipeline starts with. Each profile runs when a pass first
    // reads it (LazyProfiles).
    ir::Kernel base = kernel.clone();
    if (procs > 1)
        transform::partitionParallelLoops(base);
    const auto &geometry =
        config.hier.singleLevel ? config.hier.l1 : config.hier.l2;
    const auto profiles = std::make_shared<LazyProfiles>(
        std::move(base), workload.init, geometry, procs);

    transform::DriverParams params;
    params.lp = geometry.numMshrs;
    params.windowSize = config.core.windowSize;
    params.lineBytes = geometry.lineBytes;
    params.maxUnroll = max_unroll;
    params.bodySize = codegen::loweredBodySize;
    params.missRate = [profiles](int ref_id) {
        return profiles->oneCore().missRate(ref_id);
    };
    if (procs > 1) {
        // Run-matched profile: the same binary on every core, through
        // per-core caches with write-invalidation, so the driver can
        // see when partitioning shrank a stream's footprint below the
        // cache and its static miss estimate stopped being realizable
        // (communication misses only).
        params.realizedMissRate = [profiles](int ref_id) {
            return profiles->runMatched().missRate(ref_id);
        };
        params.realizedAccesses = [profiles](int ref_id) {
            return profiles->runMatched().accesses(ref_id);
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

    ir::Kernel kernel = workload.kernel.clone();
    // makeDriverParams profiles a clone, so the refIds its miss rates
    // are keyed by must be the ones the pipeline keeps.
    ir::assignRefIds(kernel);

    // One pipeline per run, so that each program it checks executes
    // once. At P > 1 the partition pass leads, unless the spec places
    // it, so that unroll-and-jam operates on each processor's own
    // range (balanced chunks, per-processor postludes).
    transform::DriverParams params;
    std::string pipeline_spec = spec.pipeline;
    if (spec.clustered || !spec.pipeline.empty()) {
        params = makeDriverParams(workload, kernel, config, spec.procs,
                                  spec.maxUnroll);
        if (pipeline_spec.empty())
            pipeline_spec = transform::pipelineSpecFromParams(params);
    }
    if (spec.procs > 1 && !namesPartition(pipeline_spec))
        pipeline_spec = pipeline_spec.empty()
                            ? "partition"
                            : "partition," + pipeline_spec;
    if (!pipeline_spec.empty())
        out.report =
            makePipeline(pipeline_spec, workload, spec).run(kernel, params);

    out.kernelText = kernel.toString();

    const int procs = std::max(spec.procs, 1);
    std::vector<kisa::Program> programs(static_cast<size_t>(procs),
                                        codegen::lower(kernel));

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
    // simulated execution, each check where it ran. Names come from the
    // registry so the tracer only ever sees process-lifetime strings.
    if (obs::Observer *observer = system.observer()) {
        if (obs::Tracer *tracer = observer->tracer();
            tracer != nullptr && !out.report.passes.empty()) {
            tracer->setTrackName(kCompilerTrack, "compiler passes");
            Tick now = 0;
            auto span = [&](double ms, const char *name,
                            std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
                const Tick dur =
                    std::max<Tick>(1, static_cast<Tick>(ms * 1000.0));
                tracer->keepSpan(now, now + dur, kCompilerTrack, name,
                                 a0, a1);
                now += dur;
            };
            // Check times are 0 when verification was off. The name is
            // a string literal: the tracer keeps event-name pointers.
            const char *const verify_name = "verify/threaded";
            if (out.report.refChecksumMs > 0.0)
                span(out.report.refChecksumMs, verify_name);
            for (const auto &pass : out.report.passes) {
                span(pass.wallMs,
                     transform::PassRegistry::instance().stableName(
                         pass.pass),
                     static_cast<std::uint64_t>(pass.actions),
                     pass.skipped ? 1 : 0);
                if (pass.verifyMs > 0.0)
                    span(pass.verifyMs, verify_name);
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
