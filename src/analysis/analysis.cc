#include "analysis/analysis.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.hh"

namespace mpc::analysis
{

using ir::Expr;
using ir::Stmt;

namespace
{

bool
containsLoop(const Stmt &stmt)
{
    for (const auto &child : stmt.body) {
        if (child->kind == Stmt::Kind::Loop ||
            child->kind == Stmt::Kind::PtrLoop ||
            child->kind == Stmt::Kind::While || containsLoop(*child))
            return true;
    }
    return false;
}

void
findNests(Stmt &stmt, std::vector<ir::Stmt *> &chain,
          std::vector<NestPath> &out)
{
    const bool is_loop = stmt.kind == Stmt::Kind::Loop ||
                         stmt.kind == Stmt::Kind::PtrLoop ||
                         stmt.kind == Stmt::Kind::While;
    if (is_loop) {
        chain.push_back(&stmt);
        if (!containsLoop(stmt)) {
            NestPath path;
            path.loops = chain;
            out.push_back(std::move(path));
        } else {
            for (auto &child : stmt.body)
                findNests(*child, chain, out);
        }
        chain.pop_back();
    } else {
        for (auto &child : stmt.body)
            findNests(*child, chain, out);
    }
}

/** Collect memory refs in an expression tree (preorder). */
void
collectRefsInExpr(const Expr &expr, std::vector<const Expr *> &out)
{
    if (expr.isMemRef())
        out.push_back(&expr);
    for (const auto &child : expr.children)
        collectRefsInExpr(*child, out);
}

} // namespace

std::vector<NestPath>
findLoopNests(ir::Kernel &kernel)
{
    std::vector<NestPath> out;
    std::vector<ir::Stmt *> chain;
    for (auto &stmt : kernel.body)
        findNests(*stmt, chain, out);
    return out;
}

int
estimateBodySize(const ir::Stmt &inner)
{
    int count = 3;  // loop increment + compare + branch
    std::function<void(const Expr &)> count_expr =
        [&](const Expr &e) {
            switch (e.kind) {
              case Expr::Kind::ArrayRef:
                count += 2 + static_cast<int>(e.children.size());
                break;
              case Expr::Kind::Deref:
                count += 1;
                break;
              case Expr::Kind::Bin:
              case Expr::Kind::Un:
                count += 1;
                break;
              default:
                break;
            }
            for (const auto &child : e.children)
                count_expr(*child);
        };
    std::function<void(const Stmt &)> count_stmt = [&](const Stmt &s) {
        if (s.lhs)
            count_expr(*s.lhs);
        if (s.rhs)
            count_expr(*s.rhs);
        count += 1;
        for (const auto &child : s.body)
            count_stmt(*child);
    };
    for (const auto &child : inner.body)
        count_stmt(*child);
    if (inner.kind == Stmt::Kind::PtrLoop && inner.rhs)
        count_expr(*inner.rhs);
    return count;
}

int
LoopAnalysis::numLeading() const
{
    int n = 0;
    for (const auto &ref : refs)
        n += ref.leading;
    return n;
}

std::string
LoopAnalysis::toString() const
{
    std::ostringstream out;
    out << "refs:\n";
    for (size_t i = 0; i < refs.size(); ++i) {
        const RefInfo &r = refs[i];
        out << "  [" << i << "] " << r.expr->toString()
            << (r.isWrite ? " (write)" : "")
            << (r.regular ? " regular" : " irregular")
            << " stride=" << r.strideBytes << " L=" << r.lm
            << (r.leading ? " LEADING" : "")
            << (r.innerInvariant ? " invariant" : "") << "\n";
    }
    out << "edges:\n";
    for (const auto &e : edges) {
        out << "  " << e.from << " -> " << e.to
            << (e.isAddress ? " addr" : " line") << " dist=" << e.distance
            << "\n";
    }
    out << "recurrences: " << recurrences.size()
        << " alpha=" << alpha << (hasAddressRecurrence ? " (address)" : "")
        << "\n";
    out << "i=" << bodyInstrs << " dynUnroll=" << dynUnroll
        << " freg=" << freg << " firreg=" << firreg << " f=" << f << "\n";
    return out.str();
}

namespace
{

/** Tarjan SCC over the ref dependence graph. */
class SccFinder
{
  public:
    SccFinder(int n, const std::vector<DepEdge> &edges)
        : adj_(static_cast<size_t>(n))
    {
        for (size_t i = 0; i < edges.size(); ++i)
            adj_[static_cast<size_t>(edges[i].from)].push_back(
                static_cast<int>(i));
        edges_ = &edges;
        index_.assign(static_cast<size_t>(n), -1);
        low_.assign(static_cast<size_t>(n), 0);
        onStack_.assign(static_cast<size_t>(n), false);
        for (int v = 0; v < n; ++v)
            if (index_[static_cast<size_t>(v)] < 0)
                strongConnect(v);
    }

    const std::vector<std::vector<int>> &sccs() const { return sccs_; }

  private:
    void
    strongConnect(int v)
    {
        index_[v] = low_[v] = next_++;
        stack_.push_back(v);
        onStack_[v] = true;
        for (int ei : adj_[static_cast<size_t>(v)]) {
            const int w = (*edges_)[static_cast<size_t>(ei)].to;
            if (index_[w] < 0) {
                strongConnect(w);
                low_[v] = std::min(low_[v], low_[w]);
            } else if (onStack_[w]) {
                low_[v] = std::min(low_[v], index_[w]);
            }
        }
        if (low_[v] == index_[v]) {
            std::vector<int> scc;
            int w;
            do {
                w = stack_.back();
                stack_.pop_back();
                onStack_[w] = false;
                scc.push_back(w);
            } while (w != v);
            sccs_.push_back(std::move(scc));
        }
    }

    std::vector<std::vector<int>> adj_;
    const std::vector<DepEdge> *edges_;
    std::vector<int> index_, low_;
    std::vector<char> onStack_;
    std::vector<int> stack_;
    std::vector<std::vector<int>> sccs_;
    int next_ = 0;
};

/**
 * Minimum total distance over simple cycles inside one SCC (DFS path
 * enumeration; SCCs in loop kernels are tiny).
 */
std::int64_t
minCycleDistance(const std::vector<int> &scc,
                 const std::vector<DepEdge> &edges)
{
    std::set<int> members(scc.begin(), scc.end());
    std::int64_t best = -1;
    // DFS from each member; only visit members.
    for (int start : scc) {
        std::vector<std::pair<int, std::int64_t>> stack;
        std::set<int> visited;
        std::function<void(int, std::int64_t)> dfs =
            [&](int v, std::int64_t dist) {
                for (const auto &e : edges) {
                    if (e.from != v || !members.count(e.to))
                        continue;
                    if (e.to == start) {
                        const std::int64_t total = dist + e.distance;
                        if (best < 0 || total < best)
                            best = total;
                    } else if (!visited.count(e.to)) {
                        visited.insert(e.to);
                        dfs(e.to, dist + e.distance);
                        visited.erase(e.to);
                    }
                }
            };
        visited.insert(start);
        dfs(start, 0);
    }
    return best < 1 ? 1 : best;
}

} // namespace

LoopAnalysis
analyzeInnerLoop(const ir::Kernel &kernel, const NestPath &nest,
                 const AnalysisParams &params)
{
    LoopAnalysis out;
    const Stmt &inner = *nest.inner();
    const std::string inner_var = inner.var;

    // ------------------------------------------------------------------
    // 1. Collect references, in execution order, tagging writes.
    // ------------------------------------------------------------------
    struct Site
    {
        const Expr *expr;
        int stmtPos;
        bool isWrite;
    };
    std::vector<Site> sites;
    int pos = 0;
    std::function<void(const Stmt &)> collect = [&](const Stmt &s) {
        std::vector<const Expr *> in_stmt;
        if (s.kind == Stmt::Kind::Assign) {
            // RHS refs (reads), then subscript refs of the LHS (reads),
            // then the LHS itself (write).
            collectRefsInExpr(*s.rhs, in_stmt);
            for (const Expr *e : in_stmt)
                sites.push_back({e, pos, false});
            in_stmt.clear();
            for (const auto &child : s.lhs->children)
                collectRefsInExpr(*child, in_stmt);
            for (const Expr *e : in_stmt)
                sites.push_back({e, pos, false});
            if (s.lhs->isMemRef())
                sites.push_back({s.lhs.get(), pos, true});
        } else if (s.kind == Stmt::Kind::FlagSet) {
            // Synchronization accesses are not clustering candidates.
        }
        ++pos;
        for (const auto &child : s.body)
            collect(*child);
    };
    for (const auto &child : inner.body)
        collect(*child);
    // Pointer-chase advance load, conceptually at the end of the body.
    if (inner.kind == Stmt::Kind::PtrLoop && inner.rhs) {
        std::vector<const Expr *> in_stmt;
        collectRefsInExpr(*inner.rhs, in_stmt);
        for (const Expr *e : in_stmt)
            sites.push_back({e, pos, false});
    }

    // ------------------------------------------------------------------
    // 2. Classify each reference. A subscript is only "regular" if it
    // is affine over variables that are not redefined inside the loop
    // body (a subscript through a body-defined scalar — e.g. an index
    // loaded from memory — is indirect addressing, hence irregular).
    // ------------------------------------------------------------------
    std::set<std::string> body_defined;
    {
        std::function<void(const Stmt &)> scan_defs = [&](const Stmt &s) {
            if (s.kind == Stmt::Kind::Assign &&
                s.lhs->kind == Expr::Kind::VarRef)
                body_defined.insert(s.lhs->var);
            for (const auto &child : s.body)
                scan_defs(*child);
        };
        for (const auto &child : inner.body)
            scan_defs(*child);
        if (inner.kind == Stmt::Kind::PtrLoop)
            body_defined.insert(inner.var);
    }
    for (const Site &site : sites) {
        RefInfo info;
        info.expr = site.expr;
        info.refId = site.expr->refId;
        info.isWrite = site.isWrite;
        if (site.expr->kind == Expr::Kind::ArrayRef) {
            auto linear = linearIndexForm(*site.expr);
            if (linear) {
                for (const auto &[v, coef] : linear->coefs) {
                    if (coef != 0 && v != inner_var &&
                        body_defined.count(v)) {
                        linear.reset();
                        break;
                    }
                }
            }
            if (linear) {
                info.regular = true;
                info.index = *linear;
                // Per-iteration address movement includes the loop
                // step (descending loops move backwards).
                const std::int64_t step_mult =
                    inner.kind == Stmt::Kind::Loop ? inner.step : 1;
                info.strideBytes =
                    8 * linear->coef(inner_var) * step_mult;
                info.innerInvariant = info.strideBytes == 0;
            }
        }
        out.refs.push_back(std::move(info));
    }

    const int line = params.lineBytes;
    const int n = static_cast<int>(out.refs.size());

    // ------------------------------------------------------------------
    // 3. Locality: spatial groups, leaders, L_m; cache-line edges.
    // ------------------------------------------------------------------
    std::vector<int> group_of(static_cast<size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
        RefInfo &ri = out.refs[static_cast<size_t>(i)];
        if (!ri.regular)
            continue;
        if (group_of[static_cast<size_t>(i)] >= 0)
            continue;
        // A spatial group: same array, same index shape, and constants
        // within one cache line of the group seed — a miss on the
        // leader actually brings in the members' data. Copies a line
        // or more apart (e.g. A[j][i] vs A[j+1][i] after unroll-and-
        // jam) are separate leading references; that separation is the
        // whole point of the transformation.
        std::vector<int> members{i};
        for (int j = i + 1; j < n; ++j) {
            RefInfo &rj = out.refs[static_cast<size_t>(j)];
            if (!rj.regular || rj.expr->array != ri.expr->array)
                continue;
            if (group_of[static_cast<size_t>(j)] >= 0)
                continue;
            if (rj.index.sameShape(ri.index) &&
                std::abs(rj.index.c - ri.index.c) * 8 < line)
                members.push_back(j);
        }
        // First-touched member leads (smallest constant for positive
        // stride, largest for negative).
        int leader = members[0];
        for (int m : members) {
            const auto &cm = out.refs[static_cast<size_t>(m)].index.c;
            const auto &cl = out.refs[static_cast<size_t>(leader)].index.c;
            const bool positive =
                out.refs[static_cast<size_t>(m)].strideBytes >= 0;
            if (positive ? cm < cl : cm > cl)
                leader = m;
        }
        for (int m : members)
            group_of[static_cast<size_t>(m)] = leader;

        RefInfo &lead = out.refs[static_cast<size_t>(leader)];
        if (!lead.innerInvariant) {
            lead.leading = true;
            const std::int64_t stride = std::abs(lead.strideBytes);
            lead.lm = stride < line ? std::max<std::int64_t>(line / stride,
                                                             1)
                                    : 1;
            // Self-spatial cache-line dependence, distance 1.
            if (lead.lm > 1)
                out.edges.push_back({leader, leader, false, 1});
            // Leader -> member cache-line dependences.
            for (int m : members) {
                if (m == leader)
                    continue;
                const std::int64_t delta =
                    std::abs(out.refs[static_cast<size_t>(m)].index.c -
                             lead.index.c) * 8;
                const std::int64_t dist =
                    stride > 0 ? ceilDiv(delta, stride) : 0;
                out.edges.push_back({leader, m, false, dist});
            }
        }
        for (int m : members) {
            out.refs[static_cast<size_t>(m)].groupLeader = leader;
            out.refs[static_cast<size_t>(m)].lm = lead.lm;
        }
    }
    // Irregular references lead individually (no known sharing).
    for (int i = 0; i < n; ++i) {
        RefInfo &ri = out.refs[static_cast<size_t>(i)];
        if (!ri.regular) {
            ri.leading = true;
            ri.lm = 1;
            ri.groupLeader = i;
        }
    }

    // ------------------------------------------------------------------
    // 4. Address dependences.
    // ------------------------------------------------------------------
    // 4a. Direct: a ref nested in another ref's address expression.
    auto address_children = [](const Expr &e) {
        std::vector<const Expr *> inner_refs;
        if (e.kind == Expr::Kind::ArrayRef) {
            for (const auto &sub : e.children)
                collectRefsInExpr(*sub, inner_refs);
        } else if (e.kind == Expr::Kind::Deref) {
            collectRefsInExpr(*e.children[0], inner_refs);
        }
        return inner_refs;
    };
    auto index_of_expr = [&out](const Expr *e) {
        for (size_t i = 0; i < out.refs.size(); ++i)
            if (out.refs[i].expr == e)
                return static_cast<int>(i);
        return -1;
    };
    for (int b = 0; b < n; ++b) {
        for (const Expr *a_expr :
             address_children(*out.refs[static_cast<size_t>(b)].expr)) {
            const int a = index_of_expr(a_expr);
            if (a >= 0 && a != b)
                out.edges.push_back({a, b, true, 0});
        }
    }
    // 4b. Variable-mediated: scalar defined from a load, used in an
    // address. Definitions are ordered by statement position; a use
    // before its (only) def is loop-carried (distance 1).
    struct VarDef
    {
        int stmtPos;
        std::vector<int> sourceRefs;    ///< refs feeding the value
    };
    std::map<std::string, std::vector<VarDef>> defs;
    {
        int dpos = 0;
        std::function<void(const Stmt &)> scan = [&](const Stmt &s) {
            if (s.kind == Stmt::Kind::Assign &&
                s.lhs->kind == Expr::Kind::VarRef) {
                std::vector<const Expr *> srcs;
                collectRefsInExpr(*s.rhs, srcs);
                VarDef def;
                def.stmtPos = dpos;
                for (const Expr *e : srcs) {
                    const int idx = index_of_expr(e);
                    if (idx >= 0)
                        def.sourceRefs.push_back(idx);
                }
                // Transitive through earlier defs of used variables.
                std::function<void(const Expr &)> through =
                    [&](const Expr &e) {
                        if (e.kind == Expr::Kind::VarRef &&
                            defs.count(e.var)) {
                            for (int r : defs[e.var].back().sourceRefs)
                                def.sourceRefs.push_back(r);
                        }
                        for (const auto &c : e.children)
                            through(*c);
                    };
                through(*s.rhs);
                defs[s.lhs->var].push_back(std::move(def));
            }
            ++dpos;
            for (const auto &child : s.body)
                scan(*child);
        };
        for (const auto &child : inner.body)
            scan(*child);
        // PtrLoop advance defines the loop pointer at the body's end.
        if (inner.kind == Stmt::Kind::PtrLoop && inner.rhs) {
            VarDef def;
            def.stmtPos = dpos;
            const int idx = index_of_expr(inner.rhs.get());
            if (idx >= 0)
                def.sourceRefs.push_back(idx);
            defs[inner.var].push_back(std::move(def));
        }
    }
    for (int b = 0; b < n; ++b) {
        const RefInfo &rb = out.refs[static_cast<size_t>(b)];
        // Variables appearing in b's address expression. A counted
        // loop's index is plain induction arithmetic (no dependence),
        // but a PtrLoop's variable is the chased pointer itself.
        const bool counted = inner.kind == Stmt::Kind::Loop;
        std::set<std::string> vars;
        std::function<void(const Expr &)> collect_vars =
            [&](const Expr &e) {
                if (e.kind == Expr::Kind::VarRef &&
                    (!counted || e.var != inner_var))
                    vars.insert(e.var);
                for (const auto &c : e.children)
                    collect_vars(*c);
            };
        if (rb.expr->kind == Expr::Kind::ArrayRef) {
            for (const auto &sub : rb.expr->children)
                collect_vars(*sub);
        } else {
            collect_vars(*rb.expr->children[0]);
        }
        // Statement position of b.
        int b_pos = -1;
        for (const Site &site : sites) {
            if (site.expr == rb.expr) {
                b_pos = site.stmtPos;
                break;
            }
        }
        for (const auto &v : vars) {
            const auto it = defs.find(v);
            if (it == defs.end())
                continue;  // loop-invariant address part
            // Latest def strictly before b (a use in the same statement
            // as its def reads the previous iteration's value), else
            // loop-carried from the last def.
            const VarDef *chosen = nullptr;
            bool carried = false;
            for (const auto &def : it->second) {
                if (def.stmtPos < b_pos)
                    chosen = &def;
            }
            if (chosen == nullptr) {
                chosen = &it->second.back();
                carried = true;
            }
            for (int a : chosen->sourceRefs) {
                if (a != b || carried)
                    out.edges.push_back({a, b, true, carried ? 1 : 0});
            }
        }
    }

    // ------------------------------------------------------------------
    // 5. Recurrences.
    // ------------------------------------------------------------------
    SccFinder scc_finder(n, out.edges);
    for (const auto &scc : scc_finder.sccs()) {
        bool has_edge = false;
        bool has_addr = false;
        std::set<int> members(scc.begin(), scc.end());
        for (const auto &e : out.edges) {
            if (members.count(e.from) && members.count(e.to) &&
                (scc.size() > 1 || e.from == e.to)) {
                has_edge = true;
                has_addr |= e.isAddress;
            }
        }
        if (!has_edge)
            continue;
        Recurrence rec;
        rec.refs = scc;
        rec.isAddress = has_addr;
        for (int r : scc)
            rec.numLeading += out.refs[static_cast<size_t>(r)].leading;
        rec.iota = minCycleDistance(scc, out.edges);
        if (rec.numLeading == 0)
            continue;  // no miss references: irrelevant (Section 3.2.2)
        out.hasAddressRecurrence |= rec.isAddress;
        out.hasCacheLineRecurrence |= !rec.isAddress;
        out.recurrences.push_back(std::move(rec));
    }
    for (const auto &rec : out.recurrences)
        out.alpha = std::max(out.alpha, rec.alpha());

    // ------------------------------------------------------------------
    // 6. The f model (Equations 1-4).
    // ------------------------------------------------------------------
    out.bodyInstrs = params.bodySize ? params.bodySize(kernel, inner)
                                     : estimateBodySize(inner);
    out.dynUnroll = std::max<int>(
        1, static_cast<int>(ceilDiv(params.windowSize, out.bodyInstrs)));

    for (const auto &ref : out.refs) {
        if (!ref.leading)
            continue;
        double cm;
        if (out.hasAddressRecurrence) {
            cm = 1.0;   // Equation 1, address-recurrence case
        } else {
            cm = static_cast<double>(ceilDiv(
                params.windowSize,
                out.bodyInstrs * std::max<std::int64_t>(ref.lm, 1)));
            cm = std::max(cm, 1.0);
        }
        if (ref.regular) {
            out.freg += cm;                             // Equation 3
        } else {
            const double pm =
                params.missRate ? params.missRate(ref.refId) : 1.0;
            out.firregRaw += pm * cm;                   // Equation 4
        }
    }
    out.firreg = static_cast<int>(std::ceil(out.firregRaw - 1e-9));
    out.f = out.freg + out.firreg;                      // Equation 2
    return out;
}

} // namespace mpc::analysis
