/**
 * @file
 * Reference evaluator for IR kernels, executing directly against a
 * KISA memory image. This is the semantic golden model at the IR
 * layer: transformation tests compare base-vs-transformed kernel
 * results here, and codegen tests compare this evaluator against the
 * KISA interpreter running the lowered program (a three-way check).
 *
 * Barriers are no-ops here (the evaluator runs a kernel
 * single-threaded, which is the sequential semantics those kernels are
 * data-race-free refinements of).
 */

#ifndef MPC_IR_EVAL_HH
#define MPC_IR_EVAL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "ir/kernel.hh"
#include "kisa/memimage.hh"

namespace mpc::ir
{

/**
 * Executes a kernel's statement tree.
 */
class Evaluator
{
  public:
    /** Arrays must be laid out (layoutArrays) before evaluation. */
    Evaluator(const Kernel &kernel, kisa::MemoryImage &mem);

    /** Run the kernel body to completion. */
    void run();

    /** Scalar values after run() (0 if never assigned). */
    std::int64_t intVar(const std::string &name) const;
    double fpVar(const std::string &name) const;

    /** Dynamic statement count (for loop-trip sanity checks). */
    std::uint64_t stmtCount() const { return stmts_; }

  private:
    struct Value
    {
        bool isFp = false;
        std::int64_t i = 0;
        double f = 0.0;

        double asFp() const { return isFp ? f : static_cast<double>(i); }
        std::int64_t
        asInt() const
        {
            return isFp ? static_cast<std::int64_t>(f) : i;
        }
    };

    Value evalExpr(const Expr &expr);
    Addr evalAddress(const Expr &ref);
    void execStmt(const Stmt &stmt);
    void storeTo(const Expr &lhs, Value value);

    const Kernel &kernel_;
    kisa::MemoryImage &mem_;
    std::map<std::string, Value> vars_;
    std::uint64_t stmts_ = 0;
};

/**
 * Deterministic digest of all array contents of @p kernel in @p mem
 * (FNV-1a over the raw words). Used to compare kernel results.
 */
std::uint64_t checksumArrays(const Kernel &kernel,
                             const kisa::MemoryImage &mem);

/**
 * Deterministic, varied fill of all F64 arrays of @p kernel (arrays
 * must be laid out); I64 arrays stay zero — zero is the safe value for
 * anything used as an index or pointer. This is the fallback fill for
 * equivalence checks on kernels without a real initializer.
 */
void fillArraysSynthetic(const Kernel &kernel, kisa::MemoryImage &mem);

/**
 * Initialize @p mem for executing @p kernel: the workload's real
 * initializer when provided, else fillArraysSynthetic. The single
 * helper shared by the pipeline verifier, the functional benches, and
 * the differential tests, so every execution tier starts from an
 * identical image.
 */
void initKernelMemory(
    const Kernel &kernel, kisa::MemoryImage &mem,
    const std::function<void(kisa::MemoryImage &)> &init = {});

} // namespace mpc::ir

#endif // MPC_IR_EVAL_HH
