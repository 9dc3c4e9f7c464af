/**
 * @file
 * The transformation pass interface and the shared state passes
 * communicate through.
 *
 * A Pass is one clustering transformation step (fusion, the
 * unroll-and-jam search, scalar replacement, ...) applied as a sweep
 * over a kernel. A Pipeline (pipeline.hh) executes a named sequence of
 * passes and accumulates a PipelineReport. The per-nest driver
 * algorithm of Sections 3.2.2 and 3.3 is recovered by running the
 * passes in the default order: analysis is subtree-local, so a
 * per-pass sweep over all nests produces the identical kernel to the
 * old per-nest episode loop.
 *
 * Cross-pass state lives in PassContext:
 *  - the cursor/row protocol: the k-th *live* nest (innermost loop
 *    with mark == 0, in preorder) owns row k. Passes iterate k,
 *    re-discovering the live nests each step since transformations
 *    invalidate loop handles; rowAt() lazily computes the pre-transform
 *    analysis (alpha, f, the parallelism target) the first time any
 *    pass visits a nest. Derived loops (postludes, remainders, loops
 *    swallowed by a jam) are marked so they never become live rows.
 *  - postlude records: the cluster pass registers each postlude it
 *    creates so the postlude-interchange pass can process them without
 *    re-discovering which loops are postludes.
 */

#ifndef MPC_TRANSFORM_PASS_HH
#define MPC_TRANSFORM_PASS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "ir/kernel.hh"

namespace mpc::transform
{

struct DriverParams
{
    int lp = 10;                ///< simultaneous outstanding misses
    int windowSize = 64;        ///< W
    int lineBytes = 64;
    int maxUnroll = 16;         ///< U: code-expansion bound

    /** Lowered-instruction-count estimator (wire the codegen one). */
    std::function<int(const ir::Kernel &, const ir::Stmt &)> bodySize;
    /** Profiled miss rate per refId for irregular references. */
    std::function<double(int)> missRate;
    /**
     * Run-matched (multiprocessor) profile: per-refId miss rate and
     * access count measured with the partitioned program on every core,
     * per-core caches and write-invalidation. Null on uniprocessor
     * runs. Partitioning shrinks each processor's footprint, so a
     * regular reference's static miss-every-L_m-iterations estimate
     * can stop holding: the remaining misses are sparse communication
     * misses that unroll-and-jam cannot cluster. The driver uses these
     * to refuse a jam whose modeled f rise would not be realized
     * (DESIGN.md section 5) and which enables no register reuse.
     */
    std::function<double(int)> realizedMissRate;
    std::function<std::uint64_t(int)> realizedAccesses;

    /** Cap on the inner-unroll pass's window-constraint factor. */
    int maxInnerUnroll = 8;

    /** Prefetch distance (cache lines ahead) for the prefetch pass. */
    int prefetchDistanceLines = 4;
};

/** What the pipeline did to one loop nest. */
struct NestReport
{
    std::string loopVar;
    double alpha = 0.0;
    bool addressRecurrence = false;
    double fBefore = 0.0;
    double fAfter = 0.0;
    int unrollDegree = 1;       ///< chosen unroll-and-jam factor
    int innerUnrollDegree = 1;
    int fusedLoops = 0;         ///< sibling loops fused (Section 6)
    int scalarsReplaced = 0;
    bool postludeInterchanged = false;
    std::string note;

    std::string toString() const;
};

/** What one pass did over the whole kernel. */
struct PassReport
{
    std::string pass;
    double wallMs = 0.0;
    int actions = 0;            ///< transformations applied
    bool skipped = false;       ///< applicability precheck said no
    std::string detail;

    /** Wall time of the post-pass verification (structural check,
     *  lowering, and the run on the threaded tier when the pass changed
     *  the lowered program); 0 when verification was off or the pass
     *  was skipped. Excluded from toString() — host timing stays off
     *  stdout — but replayed onto the obs trace. */
    double verifyMs = 0.0;

    std::string toString() const;
};

/** One post-pass verification failure (VerifyMode::Record). */
struct VerifyFailure
{
    std::string pass;
    std::string what;
};

/**
 * Structured result of a pipeline run: what every pass did, one
 * NestReport per live nest, and the leadingRefIds that feed the codegen
 * scheduler's miss-first packing.
 */
struct PipelineReport
{
    std::vector<NestReport> nests;

    /** refIds of leading references in the final transformed kernel
     *  (for the codegen scheduler's miss-first packing). */
    std::vector<int> leadingRefIds;

    std::vector<PassReport> passes;
    std::vector<VerifyFailure> verifyFailures;

    /** Wall time of the pre-pipeline reference checksum run. */
    double refChecksumMs = 0.0;

    /** One line per nest (NestReport::toString). */
    std::string toString() const;
};

/** Per-live-nest state shared between passes (see file comment). */
struct RowState
{
    NestReport report;
    /** Analysis of the nest the first time a pass saw it. Loop and
     *  expression pointers inside may dangle after transformations;
     *  only scalar fields and RefInfo flags may be read later. */
    analysis::LoopAnalysis before;
    double target = 0.0;        ///< alpha*lp (or lp with no recurrence)
    bool anyLeadingRead = false;
};

/** A postlude loop the cluster pass created, for postlude-interchange. */
struct PostludeRec
{
    ir::Stmt *loop = nullptr;
    int row = -1;
};

struct PassContext
{
    PassContext(const DriverParams &p, analysis::AnalysisParams a)
        : params(p), ap(std::move(a)) {}

    const DriverParams &params;
    analysis::AnalysisParams ap;
    std::vector<RowState> rows;
    std::vector<PostludeRec> postludes;

    /** Names of all passes in the running pipeline, in order. Lets a
     *  pass know whether a later pass will pick up deferred work. */
    std::vector<std::string> scheduledPasses;

    bool
    hasScheduledPass(const std::string &name) const
    {
        for (const std::string &scheduled : scheduledPasses)
            if (scheduled == name)
                return true;
        return false;
    }

    /** Row for live nest @p k, lazily created from @p nest. */
    RowState &rowAt(std::size_t k, ir::Kernel &kernel,
                    const analysis::NestPath &nest);
};

/**
 * One registered transformation pass. Passes are stateless singletons
 * owned by the PassRegistry; per-run state lives in PassContext.
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Registry key; stable storage for tracer span names. */
    virtual const char *name() const = 0;

    /** Cheap precheck: false marks the pass skipped for this kernel. */
    virtual bool applicable(ir::Kernel &kernel, PassContext &ctx) const
    {
        (void)kernel;
        (void)ctx;
        return true;
    }

    virtual void run(ir::Kernel &kernel, PassContext &ctx,
                     PassReport &pr) const = 0;
};

/** DriverParams -> AnalysisParams (the analysis-facing subset). */
analysis::AnalysisParams toAnalysisParams(const DriverParams &params);

/**
 * The live nests of @p kernel: innermost loops with mark == 0, in
 * preorder. Position k in this list is the cursor/row index shared by
 * all passes of a pipeline run.
 */
std::vector<analysis::NestPath> liveNests(ir::Kernel &kernel);

} // namespace mpc::transform

#endif // MPC_TRANSFORM_PASS_HH
