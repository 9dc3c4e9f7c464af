#include "ir/eval.hh"

#include <cmath>

#include "common/logging.hh"

namespace mpc::ir
{

Evaluator::Evaluator(const Kernel &kernel, kisa::MemoryImage &mem)
    : kernel_(kernel), mem_(mem)
{
    for (const auto &array : kernel_.arrays)
        MPC_ASSERT(array.base != 0, "evaluate before layoutArrays");
}

Addr
Evaluator::evalAddress(const Expr &ref)
{
    if (ref.kind == Expr::Kind::ArrayRef) {
        std::int64_t index = 0;
        for (size_t d = 0; d < ref.children.size(); ++d) {
            const std::int64_t sub = evalExpr(*ref.children[d]).asInt();
            MPC_ASSERT(sub >= 0 && sub < ref.array->dims[d],
                       ref.array->name.c_str());
            index = index * ref.array->dims[d] + sub;
        }
        return ref.array->base + static_cast<Addr>(index) * 8;
    }
    MPC_ASSERT(ref.kind == Expr::Kind::Deref, "not a memory reference");
    const std::int64_t ptr = evalExpr(*ref.children[0]).asInt();
    return static_cast<Addr>(ptr + ref.ival);
}

Evaluator::Value
Evaluator::evalExpr(const Expr &expr)
{
    Value v;
    switch (expr.kind) {
      case Expr::Kind::IntConst:
        v.i = expr.ival;
        return v;
      case Expr::Kind::FloatConst:
        v.isFp = true;
        v.f = expr.fval;
        return v;
      case Expr::Kind::VarRef: {
        const auto it = vars_.find(expr.var);
        if (it != vars_.end())
            return it->second;
        const auto st = kernel_.scalars.find(expr.var);
        if (st != kernel_.scalars.end() && st->second == ScalType::F64)
            v.isFp = true;
        return v;
      }
      case Expr::Kind::ArrayRef: {
        const Addr addr = evalAddress(expr);
        if (expr.array->elem == ScalType::F64) {
            v.isFp = true;
            v.f = mem_.ldF64(addr);
        } else {
            v.i = static_cast<std::int64_t>(mem_.ld64(addr));
        }
        return v;
      }
      case Expr::Kind::Deref: {
        const Addr addr = evalAddress(expr);
        if (expr.vtype == ScalType::F64) {
            v.isFp = true;
            v.f = mem_.ldF64(addr);
        } else {
            v.i = static_cast<std::int64_t>(mem_.ld64(addr));
        }
        return v;
      }
      case Expr::Kind::Bin: {
        const Value a = evalExpr(*expr.children[0]);
        const Value b = evalExpr(*expr.children[1]);
        if (a.isFp || b.isFp) {
            v.isFp = true;
            const double x = a.asFp(), y = b.asFp();
            switch (expr.bop) {
              case BinOp::Add: v.f = x + y; break;
              case BinOp::Sub: v.f = x - y; break;
              case BinOp::Mul: v.f = x * y; break;
              case BinOp::Div: v.f = x / y; break;
              case BinOp::Mod: v.f = std::fmod(x, y); break;
              case BinOp::Min: v.f = std::min(x, y); break;
              case BinOp::Max: v.f = std::max(x, y); break;
            }
        } else {
            const std::int64_t x = a.i, y = b.i;
            switch (expr.bop) {
              case BinOp::Add: v.i = x + y; break;
              case BinOp::Sub: v.i = x - y; break;
              case BinOp::Mul: v.i = x * y; break;
              case BinOp::Div: v.i = y != 0 ? x / y : 0; break;
              case BinOp::Mod: v.i = y != 0 ? x % y : 0; break;
              case BinOp::Min: v.i = std::min(x, y); break;
              case BinOp::Max: v.i = std::max(x, y); break;
            }
        }
        return v;
      }
      case Expr::Kind::Un: {
        const Value a = evalExpr(*expr.children[0]);
        switch (expr.uop) {
          case UnOp::Neg:
            if (a.isFp) {
                v.isFp = true;
                v.f = -a.f;
            } else {
                v.i = -a.i;
            }
            return v;
          case UnOp::Sqrt:
            v.isFp = true;
            v.f = std::sqrt(a.asFp());
            return v;
          case UnOp::Abs:
            if (a.isFp) {
                v.isFp = true;
                v.f = std::fabs(a.f);
            } else {
                v.i = std::abs(a.i);
            }
            return v;
          case UnOp::Trunc:
            v.i = a.asInt();
            return v;
        }
        return v;
      }
    }
    panic("evalExpr: bad expression kind");
}

void
Evaluator::storeTo(const Expr &lhs, Value value)
{
    if (lhs.kind == Expr::Kind::VarRef) {
        // Keep the declared type of the variable if any.
        const auto st = kernel_.scalars.find(lhs.var);
        if (st != kernel_.scalars.end()) {
            Value coerced;
            if (st->second == ScalType::F64) {
                coerced.isFp = true;
                coerced.f = value.asFp();
            } else {
                coerced.i = value.asInt();
            }
            vars_[lhs.var] = coerced;
        } else {
            vars_[lhs.var] = value;
        }
        return;
    }
    const Addr addr = evalAddress(lhs);
    const ScalType type = lhs.kind == Expr::Kind::ArrayRef
                              ? lhs.array->elem
                              : lhs.vtype;
    if (type == ScalType::F64)
        mem_.stF64(addr, value.asFp());
    else
        mem_.st64(addr, static_cast<std::uint64_t>(value.asInt()));
}

void
Evaluator::execStmt(const Stmt &stmt)
{
    ++stmts_;
    if (stmts_ > (1ull << 32))
        fatal("Evaluator: statement budget exceeded - runaway kernel?");
    switch (stmt.kind) {
      case Stmt::Kind::Assign:
        storeTo(*stmt.lhs, evalExpr(*stmt.rhs));
        break;
      case Stmt::Kind::Loop: {
        const std::int64_t lo = evalExpr(*stmt.lo).asInt();
        Value iv;
        iv.i = lo;
        vars_[stmt.var] = iv;
        for (std::int64_t i = lo;; i += stmt.step) {
            // Re-evaluate the bound each iteration (it may reference
            // variables mutated in the body, e.g. min-jammed loops).
            const std::int64_t hi = evalExpr(*stmt.hi).asInt();
            if (stmt.step > 0 ? i >= hi : i <= hi)
                break;
            vars_[stmt.var].i = i;
            for (const auto &child : stmt.body)
                execStmt(*child);
        }
        break;
      }
      case Stmt::Kind::PtrLoop: {
        Value p;
        p.i = evalExpr(*stmt.lo).asInt();
        vars_[stmt.var] = p;
        while (vars_[stmt.var].i != 0) {
            for (const auto &child : stmt.body)
                execStmt(*child);
            const Addr next = static_cast<Addr>(vars_[stmt.var].i +
                                                stmt.step);
            vars_[stmt.var].i =
                static_cast<std::int64_t>(mem_.ld64(next));
        }
        break;
      }
      case Stmt::Kind::While:
        while (evalExpr(*stmt.lo).asInt() != 0) {
            for (const auto &child : stmt.body)
                execStmt(*child);
        }
        break;
      case Stmt::Kind::Prefetch:
        break;  // nonbinding: no architectural effect
      case Stmt::Kind::Barrier:
        break;  // single-threaded reference semantics
      case Stmt::Kind::FlagSet:
        storeTo(*stmt.lhs, evalExpr(*stmt.rhs));
        break;
    }
}

void
Evaluator::run()
{
    for (const auto &stmt : kernel_.body)
        execStmt(*stmt);
}

std::int64_t
Evaluator::intVar(const std::string &name) const
{
    const auto it = vars_.find(name);
    return it == vars_.end() ? 0 : it->second.asInt();
}

double
Evaluator::fpVar(const std::string &name) const
{
    const auto it = vars_.find(name);
    return it == vars_.end() ? 0.0 : it->second.asFp();
}

std::uint64_t
checksumArrays(const Kernel &kernel, const kisa::MemoryImage &mem)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const auto &array : kernel.arrays) {
        for (std::int64_t e = 0; e < array.numElems(); ++e) {
            const std::uint64_t word =
                mem.ld64(array.base + static_cast<Addr>(e) * 8);
            hash ^= word;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

void
fillArraysSynthetic(const Kernel &kernel, kisa::MemoryImage &mem)
{
    int array_index = 0;
    for (const auto &array : kernel.arrays) {
        if (array.elem == ScalType::F64) {
            const std::int64_t n = array.numElems();
            for (std::int64_t i = 0; i < n; ++i) {
                const double v =
                    0.5 +
                    static_cast<double>((i * 37 + array_index * 101) %
                                        251) /
                        251.0;
                mem.stF64(array.base + static_cast<Addr>(i) * 8, v);
            }
        }
        ++array_index;
    }
}

void
initKernelMemory(const Kernel &kernel, kisa::MemoryImage &mem,
                 const std::function<void(kisa::MemoryImage &)> &init)
{
    if (init)
        init(mem);
    else
        fillArraysSynthetic(kernel, mem);
}

} // namespace mpc::ir
