/**
 * @file
 * The clustering code transformations (Sections 2.2, 3.2, 3.3):
 * unroll-and-jam (counted and pointer-chase forms), loop interchange,
 * strip-mine-and-interchange, inner-loop unrolling, and scalar
 * replacement. All transformations preserve semantics; tests check
 * bit-identical results against the functional interpreter.
 *
 * Transformations operate in place on a Kernel's statement tree. Loop
 * handles (Stmt pointers) are invalidated by a transformation; re-run
 * analysis::findLoopNests afterwards.
 */

#ifndef MPC_TRANSFORM_TRANSFORMS_HH
#define MPC_TRANSFORM_TRANSFORMS_HH

#include "ir/kernel.hh"

namespace mpc::transform
{

/**
 * Locate the statement list and index that own @p target within
 * @p kernel (panics if absent). Used by passes that insert siblings.
 */
std::pair<std::vector<ir::StmtPtr> *, size_t>
findOwner(ir::Kernel &kernel, const ir::Stmt *target);

/**
 * Substitute every use of variable @p var in @p stmt (recursively) by
 * @p replacement (cloned per use). Loop-redefinition shadowing is not
 * supported (kernel variable names are unique by construction).
 */
void substituteVar(ir::Stmt &stmt, const std::string &var,
                   const ir::Expr &replacement);

/** Rename variable @p from to @p to (uses and definitions). */
void renameVar(ir::Stmt &stmt, const std::string &from,
               const std::string &to);

/**
 * Unroll-and-jam: unroll counted loop @p outer by @p factor and fuse
 * the resulting copies of each nested loop. Scalars assigned inside the
 * body are renamed per copy (giving each copy private accumulators /
 * pointers). A postlude loop handles remainder iterations; when
 * @p interchange_postlude is set and legal, the postlude is
 * interchanged to keep its misses clustered (Section 2.2).
 *
 * @return false (kernel untouched) if the shape or legality check
 * fails: @p outer must directly contain either straight-line
 * statements, counted loops with @p outer -independent bounds, or
 * pointer-chase loops (jammed into a While over the minimum length,
 * with per-chain epilogues, as done for MST).
 */
bool unrollAndJam(ir::Kernel &kernel, ir::Stmt &outer, int factor,
                  bool interchange_postlude = true);

/** Interchange @p outer with its single nested counted loop. */
bool interchange(ir::Kernel &kernel, ir::Stmt &outer);

/**
 * Strip-mine @p loop into tiles of @p strip iterations (the
 * Figure 2(c) building block); the loop variable keeps its name in the
 * new inner loop and @p loop becomes the tile loop over `var__tile`.
 */
bool stripMine(ir::Kernel &kernel, ir::Stmt &loop, int strip);

/**
 * Unroll innermost counted loop @p loop by @p factor in place (copies
 * stay in sequence; no jamming), with a remainder loop. Used to
 * resolve window constraints (Section 3.3).
 */
bool innerUnroll(ir::Kernel &kernel, ir::Stmt &loop, int factor);

/**
 * Insert Mowry-style software prefetches for the regular leading
 * references of every innermost counted loop: each such reference gets
 * a nonbinding prefetch of the element it will touch
 * @p distance_lines cache lines ahead. This implements the alternative
 * latency-tolerance technique the paper compares against (Section 1)
 * and whose interaction with clustering its follow-up studies: apply
 * it to a base kernel for prefetching alone, or to a clustered kernel
 * for the combination.
 * @return number of prefetch statements inserted.
 */
int insertPrefetches(ir::Kernel &kernel, int distance_lines = 4,
                     int line_bytes = 64);

/**
 * Fuse two adjacent counted loops with identical headers (same trip
 * count and step) into one. This is the paper's Section 6 extension:
 * fusing otherwise unrelated loops gives a singly-nested loop more
 * independent leading references per iteration, resolving memory-
 * parallelism recurrences no outer loop is available to unroll-and-jam.
 *
 * Legality: for every same-array reference pair across the two bodies
 * with at least one write, the second loop's access at iteration i
 * must not touch an element the first loop only produces at a later
 * iteration (affine subscripts, same shape, constant delta <= 0);
 * anything unanalyzable refuses.
 *
 * @return false (kernel untouched) if shape or legality fails.
 */
bool fuseLoops(ir::Kernel &kernel, ir::Stmt &first, ir::Stmt &second);

/**
 * Rewrite every outermost parallel-marked counted loop to iterate over
 * a per-processor block [mylo, myhi), computed at run time from the
 * reserved variables `__procid` and `__nprocs` (initialized by the
 * code generator). The only place iterations are assigned to
 * processors, and it runs once per kernel: a call on a kernel with
 * Kernel::partitioned set does nothing. Applied BEFORE the clustering
 * driver so that each processor's own range is unroll-and-jammed with
 * its own postlude — the structure of the paper's hand-transformed
 * parallel codes — which keeps the partition balanced regardless of
 * the unroll degree.
 * @return number of loops partitioned.
 */
int partitionParallelLoops(ir::Kernel &kernel);

/**
 * Scalar replacement on innermost loop @p inner: loads of inner-loop-
 * invariant array elements are hoisted into scalars before the loop and
 * (for written elements) stored back after it.
 * @return number of references replaced.
 */
int scalarReplace(ir::Kernel &kernel, ir::Stmt &inner);

} // namespace mpc::transform

#endif // MPC_TRANSFORM_TRANSFORMS_HH
