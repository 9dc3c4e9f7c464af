/**
 * @file
 * The built-in clustering passes: the clustering algorithm of
 * Sections 3.2.2 and 3.3 as registry-keyed Pass implementations. The
 * default pipeline order reproduces the per-nest episode loop exactly —
 * the analysis is subtree-local, so sweeping each transformation over
 * all nests commutes with interleaving them per nest.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "common/logging.hh"
#include "transform/legality.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"

namespace mpc::transform
{

namespace
{

using analysis::AnalysisParams;
using analysis::LoopAnalysis;
using analysis::NestPath;
using ir::Kernel;
using ir::Stmt;

bool
isLoopKind(Stmt::Kind kind)
{
    return kind == Stmt::Kind::Loop || kind == Stmt::Kind::PtrLoop ||
           kind == Stmt::Kind::While;
}

/** Mark every loop in the subtree as processed. */
void
markLoops(Stmt &root)
{
    ir::walkStmts(root, [](Stmt &s) {
        if (isLoopKind(s.kind))
            s.mark = 1;
    });
}

/** First loop-kind statement directly in @p loop's body. */
Stmt *
firstLoopChild(Stmt &loop)
{
    for (auto &child : loop.body)
        if (isLoopKind(child->kind))
            return child.get();
    return nullptr;
}

/**
 * Preorder-first innermost loop under (and including) @p loop: loops
 * only occur directly in loop bodies, so the leftmost loop-child
 * descent chain ends at the first innermost nest findLoopNests would
 * report inside @p loop.
 */
Stmt *
representativeInner(Stmt &loop)
{
    Stmt *cur = &loop;
    for (Stmt *child = firstLoopChild(*cur); child != nullptr;
         child = firstLoopChild(*cur))
        cur = child;
    return cur;
}

/** All innermost loops under (and including) @p loop, preorder. */
void
collectInnermost(Stmt &loop, std::vector<Stmt *> &out)
{
    bool has_child_loop = false;
    for (auto &child : loop.body) {
        if (isLoopKind(child->kind)) {
            has_child_loop = true;
            collectInnermost(*child, out);
        }
    }
    if (!has_child_loop)
        out.push_back(&loop);
}

/**
 * Refuse unroll-and-jam (unless it enables scalar replacement) when the
 * profiled misses of the nest's leading regular references fall below
 * this fraction of the static estimate.
 */
constexpr double kMinRealizedMissRatio = 0.75;

/**
 * True when the run-matched profile shows EVERY leading regular
 * reference of the nest realizing markedly fewer misses than the
 * static one-per-L_m estimate the f model charges it — the situation
 * after partitioning where each processor's footprint fits its cache
 * and only sparse communication misses remain, which unroll-and-jam
 * cannot cluster. One stream still missing at its modeled rate is
 * enough to keep the jam: its copies do add real overlapped misses.
 * References the profile never saw count as fully realized.
 */
bool
missesUnderRealized(const LoopAnalysis &la, const DriverParams &params)
{
    if (!params.realizedMissRate || !params.realizedAccesses)
        return false;
    bool any_regular = false;
    for (const auto &ref : la.refs) {
        if (!ref.leading || !ref.regular || ref.refId < 0)
            continue;
        any_regular = true;
        if (params.realizedAccesses(ref.refId) == 0)
            return false;
        const double static_rate =
            1.0 / static_cast<double>(std::max<std::int64_t>(ref.lm, 1));
        if (params.realizedMissRate(ref.refId) >=
            kMinRealizedMissRatio * static_rate)
            return false;
    }
    return any_regular;
}

/**
 * Candidate evaluator for the unroll-and-jam binary search. The old
 * driver cloned the whole kernel and re-discovered every nest per
 * candidate degree (O(nests^2) over a run); this keeps ONE scratch
 * clone per nest, jams the candidate subtree in place, analyzes only
 * that subtree, and restores it from a pristine copy — same f and
 * scalar-replacement values, no whole-kernel rework per candidate.
 */
class TrialEvaluator
{
  public:
    TrialEvaluator(const Kernel &kernel, size_t live_index,
                   const AnalysisParams &ap)
        : scratch_(kernel.clone()), liveIndex_(live_index), ap_(ap)
    {
    }

    /** Target live[liveIndex].outer(levels_up) in the scratch clone
     *  (marks are preserved by clone, so live indices line up). */
    bool
    setLevels(int levels_up)
    {
        fCache_.clear();
        valid_ = false;
        auto live = liveNests(scratch_);
        if (liveIndex_ >= live.size())
            return false;
        Stmt *outer = live[liveIndex_].outer(levels_up);
        if (outer == nullptr)
            return false;
        auto [owner, pos] = findOwner(scratch_, outer);
        owner_ = owner;
        pos_ = pos;
        sizeBefore_ = owner->size();
        pristine_ = (*owner)[pos]->clone();
        scalarsSnapshot_ = scratch_.scalars;
        valid_ = true;
        return true;
    }

    /** f of the jammed innermost loop at degree @p u; negative when
     *  the transformation is not applicable. */
    double
    f(int u)
    {
        if (!valid_)
            return -1.0;
        if (const auto it = fCache_.find(u); it != fCache_.end())
            return it->second;
        double result = -1.0;
        if (Stmt *outer = jam(u)) {
            NestPath path;
            path.loops.push_back(representativeInner(*outer));
            result = analysis::analyzeInnerLoop(scratch_, path, ap_).f;
        }
        restore();
        fCache_[u] = result;
        return result;
    }

    /** Scalars replacement would eliminate after jamming by @p u
     *  (cross-copy register reuse); 0 when not applicable. */
    int
    scalars(int u)
    {
        if (!valid_)
            return 0;
        int result = 0;
        if (Stmt *outer = jam(u)) {
            std::vector<Stmt *> inners;
            collectInnermost(*outer, inners);
            for (Stmt *inner : inners) {
                if (inner->kind == Stmt::Kind::Loop) {
                    result = scalarReplace(scratch_, *inner);
                    break;
                }
            }
        }
        restore();
        return result;
    }

  private:
    Stmt *
    jam(int u)
    {
        Stmt *outer = (*owner_)[pos_].get();
        return unrollAndJam(scratch_, *outer, u, false) ? outer
                                                        : nullptr;
    }

    void
    restore()
    {
        while (owner_->size() > sizeBefore_)
            owner_->erase(owner_->begin() +
                          static_cast<std::ptrdiff_t>(pos_) + 1);
        (*owner_)[pos_] = pristine_->clone();
        scratch_.scalars = scalarsSnapshot_;
    }

    Kernel scratch_;
    size_t liveIndex_;
    const AnalysisParams &ap_;

    std::vector<ir::StmtPtr> *owner_ = nullptr;
    size_t pos_ = 0;
    size_t sizeBefore_ = 0;
    ir::StmtPtr pristine_;
    std::map<std::string, ir::ScalType> scalarsSnapshot_;
    std::map<int, double> fCache_;
    bool valid_ = false;
};

// --------------------------------------------------------------------
// partition
// --------------------------------------------------------------------

class PartitionPass : public Pass
{
  public:
    const char *name() const override { return "partition"; }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        (void)ctx;
        pr.actions = partitionParallelLoops(kernel);
    }
};

// --------------------------------------------------------------------
// fuse (Section 6 extension)
// --------------------------------------------------------------------

class FusePass : public Pass
{
  public:
    const char *name() const override { return "fuse"; }

    bool
    applicable(Kernel &kernel, PassContext &ctx) const override
    {
        (void)ctx;
        return !liveNests(kernel).empty();
    }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        for (size_t k = 0;; ++k) {
            auto live = liveNests(kernel);
            if (k >= live.size())
                break;
            NestPath &nest = live[k];
            RowState &row = ctx.rowAt(k, kernel, nest);
            NestReport &nr = row.report;

            // A singly-nested loop with unmet parallelism has no outer
            // loop to unroll-and-jam, but fusing adjacent sibling
            // loops adds independent leading references per iteration.
            // Fuse while legal and below the target.
            if (nest.outer() != nullptr ||
                !(row.before.f + 0.5 <= row.target))
                continue;
            Stmt *inner = nest.inner();
            double f_now = row.before.f;
            while (f_now + 0.5 <= row.target) {
                auto [owner, pos] = findOwner(kernel, inner);
                if (pos + 1 >= owner->size())
                    break;
                Stmt *next = (*owner)[pos + 1].get();
                bool next_has_nest = false;
                ir::walkStmts(*next, [&](Stmt &s) {
                    next_has_nest |= &s != next && isLoopKind(s.kind);
                });
                if (next->kind != Stmt::Kind::Loop || next_has_nest)
                    break;
                if (!fuseLoops(kernel, *inner, *next))
                    break;
                ++nr.fusedLoops;
                ++pr.actions;
                NestPath fused_path;
                fused_path.loops.push_back(inner);
                f_now =
                    analysis::analyzeInnerLoop(kernel, fused_path,
                                               ctx.ap)
                        .f;
            }
            if (nr.fusedLoops > 0)
                nr.note = "fused " + std::to_string(nr.fusedLoops) +
                          " sibling loop(s)";
        }
    }
};

// --------------------------------------------------------------------
// cluster (unroll-and-jam with the f-model binary search)
// --------------------------------------------------------------------

class ClusterPass : public Pass
{
  public:
    const char *name() const override { return "cluster"; }

    bool
    applicable(Kernel &kernel, PassContext &ctx) const override
    {
        (void)ctx;
        return !liveNests(kernel).empty();
    }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        for (size_t k = 0;; ++k) {
            auto live = liveNests(kernel);
            if (k >= live.size())
                break;
            NestPath &nest = live[k];
            RowState &row = ctx.rowAt(k, kernel, nest);
            NestReport &nr = row.report;
            Stmt *outer = nest.outer();

            // Unroll-and-jam (Section 3.2.2): binary-search the
            // largest degree u with f(u) <= target. Skipped when the
            // loop already meets the target, when only write misses
            // would be added, or when no legal outer loop exists.
            int chosen = 1;
            if (row.anyLeadingRead &&
                row.before.f + 0.5 <= row.target) {
                TrialEvaluator trial(kernel, k, ctx.ap);
                // Try the immediate parent first, then its parent:
                // deeper nests may only gain parallelism from a higher
                // loop (the generalized multi-loop search of Carr &
                // Kennedy that Section 3.2.2 defers to).
                for (int levels_up = 1; levels_up <= 2 && chosen == 1;
                     ++levels_up) {
                    Stmt *candidate = nest.outer(levels_up);
                    if (candidate == nullptr ||
                        candidate->kind != Stmt::Kind::Loop ||
                        !canUnrollAndJam(*candidate))
                        continue;
                    if (!trial.setLevels(levels_up))
                        continue;
                    int lo = 1, hi = ctx.params.maxUnroll;
                    while (lo < hi) {
                        const int mid = (lo + hi + 1) / 2;
                        const double f_mid = trial.f(mid);
                        if (f_mid >= 0.0 &&
                            f_mid <= row.target + 1e-9)
                            lo = mid;
                        else
                            hi = mid - 1;
                    }
                    // Unrolling a loop whose index does not appear in
                    // the subscripts (e.g. a time loop) leaves f
                    // unchanged: the copies coalesce into the same
                    // spatial groups. Only transform when memory
                    // parallelism grows.
                    if (lo > 1 && trial.f(lo) > row.before.f + 0.5)
                        chosen = lo;
                    // The modeled rise must also be realizable: when
                    // the run-matched profile shows the leading
                    // streams mostly hitting (per-processor footprint
                    // fits after partitioning), the extra copies add
                    // misses only on paper, and unless they at least
                    // enable cross-copy register reuse the jam is pure
                    // code expansion — refuse it (DESIGN.md section 5).
                    if (chosen > 1 &&
                        missesUnderRealized(row.before, ctx.params) &&
                        trial.scalars(chosen) == 0) {
                        chosen = 1;
                        nr.note =
                            "refused: profiled misses below modeled";
                    }
                    if (chosen > 1) {
                        applyJam(kernel, ctx, nest, live, k, row,
                                 *candidate, chosen, levels_up);
                        outer = candidate;
                        ++pr.actions;
                    }
                }
            } else if (outer == nullptr && nr.fusedLoops == 0) {
                nr.note = "no outer loop, no fusable sibling";
            }
        }
    }

  private:
    static void
    applyJam(Kernel &kernel, PassContext &ctx, NestPath &nest,
             std::vector<NestPath> &live, size_t k, RowState &row,
             Stmt &candidate, int chosen, int levels_up)
    {
        (void)nest;
        NestReport &nr = row.report;

        // Region bookkeeping BEFORE the jam rebuilds statements:
        // later live rows and previously recorded postludes inside
        // the jammed subtree are consumed by it.
        std::set<const Stmt *> region;
        ir::walkStmts(candidate,
                      [&](Stmt &s) { region.insert(&s); });
        std::vector<size_t> swallowed;
        for (size_t j = k + 1; j < live.size(); ++j)
            if (region.count(live[j].inner()) != 0)
                swallowed.push_back(j);
        for (size_t pi = ctx.postludes.size(); pi-- > 0;) {
            if (region.count(ctx.postludes[pi].loop) != 0) {
                // The old driver interchanged postludes at creation
                // time; give this one its interchange before the jam
                // duplicates it, then drop the record.
                if (ctx.hasScheduledPass("postlude-interchange"))
                    interchange(kernel, *ctx.postludes[pi].loop);
                ctx.postludes.erase(
                    ctx.postludes.begin() +
                    static_cast<std::ptrdiff_t>(pi));
            }
        }

        auto [owner, pos] = findOwner(kernel, &candidate);
        const size_t size_before = owner->size();
        const bool ok = unrollAndJam(kernel, candidate, chosen, false);
        MPC_ASSERT(ok, "unroll-and-jam failed after legality and "
                       "trial both passed");
        nr.unrollDegree = chosen;
        if (levels_up > 1)
            nr.note = "jammed " + std::to_string(levels_up) +
                      " levels up";
        if (owner->size() > size_before) {
            Stmt *postlude = (*owner)[pos + 1].get();
            markLoops(*postlude);
            ctx.postludes.push_back(
                {postlude, static_cast<int>(k)});
        }

        // Mark the jammed region processed, except the representative
        // innermost loop that stays live so later passes (and the
        // finalize step) still find row k at cursor position k.
        Stmt *rep = representativeInner(candidate);
        ir::walkStmts(candidate, [&](Stmt &s) {
            if (isLoopKind(s.kind) && &s != rep)
                s.mark = 1;
        });
        for (auto it = swallowed.rbegin(); it != swallowed.rend();
             ++it)
            if (*it < ctx.rows.size())
                ctx.rows.erase(ctx.rows.begin() +
                               static_cast<std::ptrdiff_t>(*it));
    }
};

// --------------------------------------------------------------------
// postlude-interchange
// --------------------------------------------------------------------

class PostludeInterchangePass : public Pass
{
  public:
    const char *name() const override { return "postlude-interchange"; }

    bool
    applicable(Kernel &kernel, PassContext &ctx) const override
    {
        (void)kernel;
        return !ctx.postludes.empty();
    }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        for (const PostludeRec &rec : ctx.postludes) {
            if (interchange(kernel, *rec.loop)) {
                if (rec.row >= 0 &&
                    rec.row < static_cast<int>(ctx.rows.size()))
                    ctx.rows[static_cast<size_t>(rec.row)]
                        .report.postludeInterchanged = true;
                ++pr.actions;
            }
        }
    }
};

// --------------------------------------------------------------------
// scalar-replace
// --------------------------------------------------------------------

class ScalarReplacePass : public Pass
{
  public:
    const char *name() const override { return "scalar-replace"; }

    bool
    applicable(Kernel &kernel, PassContext &ctx) const override
    {
        (void)ctx;
        return !liveNests(kernel).empty();
    }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        for (size_t k = 0;; ++k) {
            auto live = liveNests(kernel);
            if (k >= live.size())
                break;
            RowState &row = ctx.rowAt(k, kernel, live[k]);
            if (live[k].inner()->kind != Stmt::Kind::Loop)
                continue;
            const int replaced =
                scalarReplace(kernel, *live[k].inner());
            row.report.scalarsReplaced = replaced;
            pr.actions += replaced;
        }
    }
};

// --------------------------------------------------------------------
// inner-unroll (window constraints, Section 3.3)
// --------------------------------------------------------------------

class InnerUnrollPass : public Pass
{
  public:
    const char *name() const override { return "inner-unroll"; }

    bool
    applicable(Kernel &kernel, PassContext &ctx) const override
    {
        (void)ctx;
        return !liveNests(kernel).empty();
    }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        for (size_t k = 0;; ++k) {
            auto live = liveNests(kernel);
            if (k >= live.size())
                break;
            NestPath &current = live[k];
            RowState &row = ctx.rowAt(k, kernel, current);
            const LoopAnalysis after =
                analysis::analyzeInnerLoop(kernel, current, ctx.ap);
            // Expected misses per iteration: a loop that almost never
            // misses gains nothing from miss-exposing unrolling (it
            // would only pay code expansion), so require a meaningful
            // miss density first.
            double miss_density = 0.0;
            for (const auto &ref : after.refs) {
                if (!ref.leading)
                    continue;
                if (ref.regular)
                    miss_density +=
                        1.0 / static_cast<double>(
                                  std::max<std::int64_t>(ref.lm, 1));
                else
                    miss_density +=
                        ctx.params.missRate
                            ? ctx.params.missRate(ref.refId)
                            : 1.0;
            }
            if (after.recurrences.empty() &&
                after.f + 0.5 <= row.target &&
                after.numLeading() > 0 && miss_density >= 0.5 &&
                current.inner()->kind == Stmt::Kind::Loop) {
                const int factor = std::min<int>(
                    ctx.params.maxInnerUnroll,
                    static_cast<int>(std::ceil(
                        row.target / std::max(after.f, 1.0))));
                if (factor > 1) {
                    auto [owner, pos] =
                        findOwner(kernel, current.inner());
                    const size_t size_before = owner->size();
                    if (innerUnroll(kernel, *current.inner(),
                                    factor)) {
                        row.report.innerUnrollDegree = factor;
                        if (owner->size() > size_before)
                            markLoops(
                                *(*owner)[pos + 1]);  // remainder
                        ++pr.actions;
                    }
                }
            }
        }
    }
};

// --------------------------------------------------------------------
// prefetch (Mowry-style, the Section 1 alternative)
// --------------------------------------------------------------------

class PrefetchPass : public Pass
{
  public:
    const char *name() const override { return "prefetch"; }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        pr.actions = insertPrefetches(kernel,
                                      ctx.params.prefetchDistanceLines,
                                      ctx.params.lineBytes);
    }
};

// --------------------------------------------------------------------
// schedule (clustering-aware list schedule, Section 3.3)
// --------------------------------------------------------------------

/** Marks the kernel for codegen's list schedule, with the leading refs
 *  of every row's nest as it stands now: none, so every load leads,
 *  when no loop pass made rows. */
class SchedulePass : public Pass
{
  public:
    const char *name() const override { return "schedule"; }

    void
    run(Kernel &kernel, PassContext &ctx, PassReport &pr) const override
    {
        kernel.schedule = true;
        kernel.leadingRefIds.clear();
        for (const LoopAnalysis &nest : analyzeRows(kernel, ctx))
            for (const auto &ref : nest.refs)
                if (ref.leading && ref.refId >= 0)
                    kernel.leadingRefIds.insert(ref.refId);
        pr.actions = 1;
    }
};

} // namespace

void
registerBuiltinPasses(PassRegistry &registry)
{
    registry.add(std::make_unique<PartitionPass>());
    registry.add(std::make_unique<FusePass>());
    registry.add(std::make_unique<ClusterPass>());
    registry.add(std::make_unique<PostludeInterchangePass>());
    registry.add(std::make_unique<ScalarReplacePass>());
    registry.add(std::make_unique<InnerUnrollPass>());
    registry.add(std::make_unique<PrefetchPass>());
    registry.add(std::make_unique<SchedulePass>());
}

} // namespace mpc::transform
