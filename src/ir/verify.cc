#include "ir/verify.hh"

#include <set>
#include <vector>

#include "common/logging.hh"

namespace mpc::ir
{

namespace
{

/** Walk state threaded through the recursive checks. */
struct Checker
{
    Checker(const Kernel &k, const VerifyOptions &o)
        : kernel(k), opts(o)
    {
    }

    const Kernel &kernel;
    const VerifyOptions &opts;
    std::set<const Stmt *> seen;        ///< ownership: each Stmt once
    std::vector<std::string> loopVars;  ///< enclosing loop index stack
    std::set<int> refIds;
    std::string error;                  ///< first violation

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what;
        return false;
    }

    bool
    ownedArray(const Array *array) const
    {
        for (const auto &a : kernel.arrays)
            if (&a == array)
                return true;
        return false;
    }

    bool
    checkExpr(const Expr &expr)
    {
        for (const auto &child : expr.children)
            if (child == nullptr)
                return fail("null expression child in " +
                            std::string("expr kind ") +
                            std::to_string(static_cast<int>(expr.kind)));
        switch (expr.kind) {
          case Expr::Kind::IntConst:
          case Expr::Kind::FloatConst:
            break;
          case Expr::Kind::VarRef:
            if (expr.var.empty())
                return fail("VarRef with empty variable name");
            break;
          case Expr::Kind::ArrayRef:
            if (expr.array == nullptr)
                return fail("ArrayRef with null array");
            if (!ownedArray(expr.array))
                return fail("ArrayRef to array '" + expr.array->name +
                            "' not owned by the kernel");
            if (expr.children.size() != expr.array->dims.size())
                return fail("ArrayRef to '" + expr.array->name + "' has " +
                            std::to_string(expr.children.size()) +
                            " subscripts for " +
                            std::to_string(expr.array->dims.size()) +
                            " dimensions");
            break;
          case Expr::Kind::Deref:
            if (expr.children.size() != 1)
                return fail("Deref without exactly one pointer operand");
            break;
          case Expr::Kind::Bin:
            if (expr.children.size() != 2)
                return fail("Bin without exactly two operands");
            break;
          case Expr::Kind::Un:
            if (expr.children.size() != 1)
                return fail("Un without exactly one operand");
            break;
        }
        if (expr.isMemRef()) {
            if (opts.requireRefIds && expr.refId < 0)
                return fail("memory reference without an assigned refId "
                            "(run assignRefIds)");
            if (expr.refId >= 0)
                refIds.insert(expr.refId);
        }
        for (const auto &child : expr.children)
            if (!checkExpr(*child))
                return false;
        return true;
    }

    bool
    checkBody(const std::vector<StmtPtr> &body)
    {
        for (const auto &child : body) {
            if (child == nullptr)
                return fail("null statement in a body list");
            if (!checkStmt(*child))
                return false;
        }
        return true;
    }

    bool
    checkStmt(const Stmt &stmt)
    {
        if (!seen.insert(&stmt).second)
            return fail("statement owned twice (aliased subtree)");
        switch (stmt.kind) {
          case Stmt::Kind::Assign:
            if (stmt.lhs == nullptr || stmt.rhs == nullptr)
                return fail("Assign with missing lhs or rhs");
            if (stmt.lhs->kind != Expr::Kind::VarRef &&
                stmt.lhs->kind != Expr::Kind::ArrayRef &&
                stmt.lhs->kind != Expr::Kind::Deref)
                return fail("Assign lhs is not a variable or memory "
                            "reference");
            return checkExpr(*stmt.lhs) && checkExpr(*stmt.rhs);
          case Stmt::Kind::Loop: {
            if (stmt.var.empty())
                return fail("Loop with empty index variable");
            if (stmt.lo == nullptr || stmt.hi == nullptr)
                return fail("Loop '" + stmt.var + "' with missing bound");
            if (stmt.step == 0)
                return fail("Loop '" + stmt.var + "' with zero step");
            for (const auto &enclosing : loopVars)
                if (enclosing == stmt.var)
                    return fail("loop variable '" + stmt.var +
                                "' shadows an enclosing loop");
            if (!checkExpr(*stmt.lo) || !checkExpr(*stmt.hi))
                return false;
            loopVars.push_back(stmt.var);
            const bool ok = checkBody(stmt.body);
            loopVars.pop_back();
            return ok;
          }
          case Stmt::Kind::PtrLoop: {
            if (stmt.var.empty())
                return fail("PtrLoop with empty pointer variable");
            if (stmt.lo == nullptr)
                return fail("PtrLoop '" + stmt.var +
                            "' with missing initial pointer");
            for (const auto &enclosing : loopVars)
                if (enclosing == stmt.var)
                    return fail("loop variable '" + stmt.var +
                                "' shadows an enclosing loop");
            if (!checkExpr(*stmt.lo))
                return false;
            loopVars.push_back(stmt.var);
            const bool ok = checkBody(stmt.body);
            loopVars.pop_back();
            return ok;
          }
          case Stmt::Kind::While:
            if (stmt.lo == nullptr)
                return fail("While with missing condition");
            return checkExpr(*stmt.lo) && checkBody(stmt.body);
          case Stmt::Kind::Prefetch:
            if (stmt.lhs == nullptr || !stmt.lhs->isMemRef())
                return fail("Prefetch without a memory reference");
            return checkExpr(*stmt.lhs);
          case Stmt::Kind::Barrier:
            return true;
          case Stmt::Kind::FlagSet:
            if (stmt.lhs == nullptr || stmt.rhs == nullptr)
                return fail("flag statement with missing operand");
            return checkExpr(*stmt.lhs) && checkExpr(*stmt.rhs);
        }
        return fail("statement with unknown kind");
    }
};

} // namespace

std::string
verify(const Kernel &kernel, const VerifyOptions &options)
{
    Checker checker(kernel, options);
    for (const auto &stmt : kernel.body) {
        if (stmt == nullptr)
            return "null statement in the kernel body";
        if (!checker.checkStmt(*stmt))
            return checker.error;
    }
    if (options.requireDenseRefIds && !checker.refIds.empty()) {
        const int max_id = *checker.refIds.rbegin();
        if (*checker.refIds.begin() < 0 ||
            static_cast<int>(checker.refIds.size()) != max_id + 1)
            return "refIds are not dense (gaps in 0.." +
                   std::to_string(max_id) + ")";
    }
    return "";
}

} // namespace mpc::ir
