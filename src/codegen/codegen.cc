#include "codegen/codegen.hh"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/affine.hh"
#include "common/logging.hh"

namespace mpc::codegen
{

using ir::Expr;
using ir::Kernel;
using ir::ScalType;
using ir::Stmt;
using kisa::AsmBuilder;
using kisa::Instr;
using kisa::Op;
using kisa::Reg;

namespace
{

/**
 * Decompose @p v into (1 << hi) + (1 << lo) or, with the bool set,
 * (1 << hi) - (1 << lo), so constant multiplies by such values (array
 * pitches with one line of padding, say) lower to two shifts and one
 * add/sub of single-cycle ALU ops instead of a multi-cycle multiply.
 */
std::optional<std::tuple<std::int64_t, std::int64_t, bool>>
shiftPairSplit(std::uint64_t v)
{
    if (v < 3)
        return std::nullopt;
    // Sum of two powers of two: exactly two bits set.
    if ((v & (v - 1)) != 0 &&
        ((v & (v - 1)) & ((v & (v - 1)) - 1)) == 0) {
        const std::int64_t lo = log2Floor(v & ~(v - 1));
        const std::int64_t hi = log2Floor(v);
        return std::make_tuple(hi, lo, false);
    }
    // Difference of two powers of two: v + lowbit(v) a power of two.
    const std::uint64_t low_bit = v & ~(v - 1);
    if (isPowerOf2(v + low_bit)) {
        const std::int64_t hi = log2Floor(v + low_bit);
        const std::int64_t lo = log2Floor(low_bit);
        return std::make_tuple(hi, lo, true);
    }
    return std::nullopt;
}

/**
 * Alias information for a memory instruction, used by the scheduler's
 * memory-dependence test. Two same-array references with the same
 * affine index shape and different constants are provably distinct
 * (e.g. unrolled copies A[i] vs A[i+1]); different shapes on the same
 * array are conservatively assumed to alias.
 */
struct AliasInfo
{
    bool any = true;            ///< pointer deref: may alias anything
    int arrayId = -1;
    std::size_t shapeHash = 0;
    std::int64_t c = 0;
    bool shapeKnown = false;

    static bool
    mayAlias(const AliasInfo &a, const AliasInfo &b)
    {
        if (a.any || b.any)
            return true;
        if (a.arrayId != b.arrayId)
            return false;
        if (!a.shapeKnown || !b.shapeKnown ||
            a.shapeHash != b.shapeHash)
            return true;
        return a.c == b.c;
    }
};

/** Register def/use sets of one instruction. */
struct DefUse
{
    std::vector<Reg> intReads, fpReads;
    Reg intWrite = kisa::noReg;
    Reg fpWrite = kisa::noReg;
};

DefUse
defUse(const Instr &in)
{
    DefUse du;
    const bool is_store = in.op == Op::StI || in.op == Op::StF;
    const bool is_branch = kisa::isBranch(in.op);
    if (in.ra != kisa::noReg) {
        if (kisa::srcAIsFp(in.op))
            du.fpReads.push_back(in.ra);
        else
            du.intReads.push_back(in.ra);
    }
    if (in.rb != kisa::noReg) {
        if (kisa::srcBIsFp(in.op))
            du.fpReads.push_back(in.rb);
        else
            du.intReads.push_back(in.rb);
    }
    if (in.rd != kisa::noReg && !is_store && !is_branch) {
        if (kisa::destIsFp(in.op))
            du.fpWrite = in.rd;
        else
            du.intWrite = in.rd;
    }
    return du;
}

/**
 * The lowering engine. One instance produces one core's program.
 */
class Lowerer
{
  public:
    Lowerer(const Kernel &kernel, bool schedule)
        : kernel_(kernel), schedule_(schedule), builder_(kernel.name)
    {}

    kisa::Program
    lower()
    {
        prologue();
        for (const auto &stmt : kernel_.body)
            lowerStmt(*stmt);
        flushRegion();
        builder_.halt();
        return builder_.finish();
    }

    /** Measure the lowered per-iteration size of @p loop. */
    int
    measure(const Stmt &loop)
    {
        measureTarget_ = &loop;
        prologue();
        lowerStmt(loop);
        flushRegion();
        return measuredBody_ > 0 ? measuredBody_ : 8;
    }

  private:
    // --- registers ----------------------------------------------------
    static constexpr Reg regZero = 0;

    Reg
    allocPersistentInt()
    {
        MPC_ASSERT(nextInt_ < tempBaseInt_,
                   "out of integer registers (persistent)");
        return static_cast<Reg>(nextInt_++);
    }

    Reg
    allocPersistentFp()
    {
        MPC_ASSERT(nextFp_ < tempBaseFp_,
                   "out of FP registers (persistent)");
        return static_cast<Reg>(nextFp_++);
    }

    Reg
    intVarReg(const std::string &name)
    {
        auto it = intVars_.find(name);
        if (it != intVars_.end())
            return it->second;
        const Reg r = allocPersistentInt();
        intVars_[name] = r;
        return r;
    }

    Reg
    fpVarReg(const std::string &name)
    {
        auto it = fpVars_.find(name);
        if (it != fpVars_.end())
            return it->second;
        const Reg r = allocPersistentFp();
        fpVars_[name] = r;
        return r;
    }

    bool
    varIsFp(const std::string &name) const
    {
        const auto it = kernel_.scalars.find(name);
        return it != kernel_.scalars.end() &&
               it->second == ScalType::F64;
    }

    /** A value held in a register; temps are returned to the pool. */
    struct Operand
    {
        Reg reg = kisa::noReg;
        bool isFp = false;
        bool isTemp = false;
    };

    // In a scheduled kernel, temps within a region are allocated
    // fresh-first so register reuse does not impose WAR/WAW false
    // dependences on the list scheduler (a real compiler allocates
    // registers after scheduling); the pool falls back to reuse when
    // exhausted, then resets at region boundaries.
    Reg
    allocTempInt()
    {
        if (schedule_ && intTempNext_ < kisa::numIntRegs)
            return static_cast<Reg>(intTempNext_++);
        if (!intFree_.empty()) {
            const Reg r = intFree_.back();
            intFree_.pop_back();
            return r;
        }
        MPC_ASSERT(intTempNext_ < kisa::numIntRegs,
                   "out of integer registers (temps)");
        return static_cast<Reg>(intTempNext_++);
    }

    Reg
    allocTempFp()
    {
        if (schedule_ && fpTempNext_ < kisa::numFpRegs)
            return static_cast<Reg>(fpTempNext_++);
        if (!fpFree_.empty()) {
            const Reg r = fpFree_.back();
            fpFree_.pop_back();
            return r;
        }
        MPC_ASSERT(fpTempNext_ < kisa::numFpRegs,
                   "out of FP registers (temps)");
        return static_cast<Reg>(fpTempNext_++);
    }

    void
    release(const Operand &operand)
    {
        if (!operand.isTemp)
            return;
        if (operand.isFp)
            fpFree_.push_back(operand.reg);
        else
            intFree_.push_back(operand.reg);
    }

    // --- emission and scheduling ---------------------------------------
    void
    emit(Instr in, AliasInfo alias = {})
    {
        alias.any = alias.arrayId < 0;
        region_.push_back(in);
        aliasClass_.push_back(alias);
    }

    void
    emit(Instr in, std::nullptr_t) = delete;

    /** Emit the region buffer, list-scheduled in a scheduled kernel. */
    void
    flushRegion()
    {
        if (region_.empty())
            return;
        if (!schedule_ || region_.size() < 3) {
            for (const auto &in : region_)
                builder_.emit(in);
        } else {
            scheduleAndEmit();
        }
        region_.clear();
        aliasClass_.clear();
        if (schedule_) {
            // Region boundary: the fresh-temp window restarts.
            intTempNext_ = tempBaseInt_;
            fpTempNext_ = tempBaseFp_;
            intFree_.clear();
            fpFree_.clear();
        }
    }

    void
    scheduleAndEmit()
    {
        const size_t n = region_.size();
        std::vector<std::vector<int>> succs(n);
        std::vector<int> preds(n, 0);
        std::vector<DefUse> dus;
        dus.reserve(n);
        for (const auto &in : region_)
            dus.push_back(defUse(in));
        auto is_load = [this](size_t i) {
            return region_[i].op == Op::LdI || region_[i].op == Op::LdF;
        };
        auto is_store = [this](size_t i) {
            return region_[i].op == Op::StI || region_[i].op == Op::StF;
        };
        auto overlaps = [](const std::vector<Reg> &a, Reg w) {
            if (w == kisa::noReg)
                return false;
            for (Reg r : a)
                if (r == w)
                    return true;
            return false;
        };
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = i + 1; j < n; ++j) {
                bool dep = false;
                // RAW / WAW / WAR on both files.
                dep |= overlaps(dus[j].intReads, dus[i].intWrite);
                dep |= overlaps(dus[j].fpReads, dus[i].fpWrite);
                dep |= dus[i].intWrite != kisa::noReg &&
                       dus[i].intWrite == dus[j].intWrite;
                dep |= dus[i].fpWrite != kisa::noReg &&
                       dus[i].fpWrite == dus[j].fpWrite;
                dep |= overlaps(dus[i].intReads, dus[j].intWrite);
                dep |= overlaps(dus[i].fpReads, dus[j].fpWrite);
                // Memory ordering: loads may pass loads always, and
                // any pair of provably distinct references.
                if (!dep && (is_store(i) || is_store(j)) &&
                    (is_store(i) || is_load(i)) &&
                    (is_store(j) || is_load(j))) {
                    dep = AliasInfo::mayAlias(aliasClass_[i],
                                              aliasClass_[j]);
                }
                if (dep) {
                    succs[i].push_back(static_cast<int>(j));
                    ++preds[j];
                }
            }
        }
        // List schedule keyed by the earliest load an instruction
        // (transitively) feeds: a load's key is its original position,
        // address arithmetic inherits the key of the load it feeds,
        // compute chains that feed only stores sink late, and stores
        // sink last. The effect is the Section 3.3 packing: the
        // independent miss loads (and only their address chains) bunch
        // at the top of the body, compute and stores follow. Edges
        // point forward, so original order is a topological order for
        // the backward key propagation.
        const int big = static_cast<int>(n);
        auto is_leading = [this](size_t i) {
            const std::set<int> &leading = kernel_.leadingRefIds;
            return leading.empty() ||
                   leading.count(static_cast<int>(region_[i].refId)) != 0;
        };
        std::vector<int> key(n);
        for (size_t i = 0; i < n; ++i) {
            if (is_load(i) && is_leading(i))
                key[i] = static_cast<int>(i);
            else if (is_store(i))
                key[i] = 2 * big + static_cast<int>(i);
            else
                key[i] = big + static_cast<int>(i);
        }
        for (size_t i = n; i-- > 0;) {
            if ((is_load(i) && is_leading(i)) || is_store(i))
                continue;
            for (int s : succs[i])
                key[i] = std::min(key[i], key[static_cast<size_t>(s)]);
        }
        auto priority = [&](size_t i) { return key[i]; };
        std::vector<char> done(n, 0);
        for (size_t emitted = 0; emitted < n; ++emitted) {
            int best = -1;
            for (size_t i = 0; i < n; ++i) {
                if (done[i] || preds[i] != 0)
                    continue;
                if (best < 0 ||
                    priority(i) < priority(static_cast<size_t>(best)))
                    best = static_cast<int>(i);
            }
            MPC_ASSERT(best >= 0, "scheduler dependence cycle");
            done[best] = 1;
            preds[best] = -1;
            for (int s : succs[static_cast<size_t>(best)])
                --preds[s];
            builder_.emit(region_[static_cast<size_t>(best)]);
        }
    }

    AsmBuilder::Label
    newLabel()
    {
        return builder_.newLabel();
    }

    void
    bindLabel(AsmBuilder::Label label)
    {
        flushRegion();
        builder_.bind(label);
    }

    void
    emitBranch(Op op, Reg ra, Reg rb, AsmBuilder::Label target)
    {
        flushRegion();
        switch (op) {
          case Op::BEq: builder_.bEq(ra, rb, target); break;
          case Op::BNe: builder_.bNe(ra, rb, target); break;
          case Op::BLt: builder_.bLt(ra, rb, target); break;
          case Op::BGe: builder_.bGe(ra, rb, target); break;
          case Op::Jmp: builder_.jmp(target); break;
          default: panic("emitBranch: not a branch");
        }
    }

    // --- prologue -------------------------------------------------------
    void
    prologue()
    {
        // r0 is the hardwired-by-convention zero.
        Instr zero;
        zero.op = Op::ILoadImm;
        zero.rd = regZero;
        zero.imm = 0;
        emit(zero);
        nextInt_ = 1;
        // Reserved partitioning variables (see partitionParallelLoops),
        // read from the machine: one program serves every core.
        for (const auto &[name, op] :
             {std::pair<const char *, Op>{"__procid", Op::ProcId},
              {"__nprocs", Op::NumProcs}}) {
            Instr id;
            id.op = op;
            id.rd = intVarReg(name);
            emit(id);
        }
        // A base register per array.
        int alias_id = 1;
        for (const auto &array : kernel_.arrays) {
            const Reg r = allocPersistentInt();
            baseRegs_[&array] = r;
            aliasIds_[&array] = alias_id++;
            Instr li;
            li.op = Op::ILoadImm;
            li.rd = r;
            li.imm = static_cast<std::int64_t>(array.base);
            emit(li);
        }
        flushRegion();
    }

    // --- expressions ----------------------------------------------------
    /** Split `expr` into (non-constant part, constant) for displacement
     *  folding. The non-constant part may be null (pure constant). */
    static std::pair<const Expr *, std::int64_t>
    splitConst(const Expr &expr)
    {
        if (const auto c = analysis::constEval(expr))
            return {nullptr, *c};
        if (expr.kind == Expr::Kind::Bin &&
            (expr.bop == ir::BinOp::Add || expr.bop == ir::BinOp::Sub)) {
            const auto rc = analysis::constEval(*expr.children[1]);
            if (rc) {
                auto [inner, c] = splitConst(*expr.children[0]);
                const std::int64_t sign =
                    expr.bop == ir::BinOp::Add ? 1 : -1;
                if (inner == nullptr && c == 0)
                    return {expr.children[0].get(), sign * *rc};
                return {inner != nullptr ? inner
                                         : expr.children[0].get(),
                        c + sign * *rc};
            }
            const auto lc = analysis::constEval(*expr.children[0]);
            if (lc && expr.bop == ir::BinOp::Add)
                return {expr.children[1].get(), *lc};
        }
        return {&expr, 0};
    }

    /** Address of a memory reference as (base reg, displacement,
     *  released-on-use temp). */
    struct Address
    {
        Reg base = kisa::noReg;
        std::int64_t disp = 0;
        Operand temp;   ///< holds base when it is a temp
        AliasInfo alias;
    };

    Address
    lowerAddress(const Expr &ref)
    {
        Address out;
        if (ref.kind == Expr::Kind::Deref) {
            Operand ptr = lowerExpr(*ref.children[0]);
            out.base = ptr.reg;
            out.disp = ref.ival;
            out.temp = ptr;
            out.alias.any = true;
            return out;
        }
        MPC_ASSERT(ref.kind == Expr::Kind::ArrayRef, "not a memory ref");
        const ir::Array &array = *ref.array;
        if (!baseRegs_.count(&array)) {
            // Measurement mode may lower loops referencing arrays of a
            // cloned kernel; register them on demand.
            const Reg r = allocPersistentInt();
            baseRegs_[&array] = r;
            aliasIds_[&array] = static_cast<int>(baseRegs_.size());
            Instr li;
            li.op = Op::ILoadImm;
            li.rd = r;
            li.imm = static_cast<std::int64_t>(array.base);
            emit(li);
        }
        out.alias.any = false;
        out.alias.arrayId = aliasIds_.at(&array);
        if (auto form = analysis::linearIndexForm(ref)) {
            std::string shape;
            for (const auto &[v, coef] : form->coefs) {
                if (coef != 0)
                    shape += v + ":" + std::to_string(coef) + ";";
            }
            out.alias.shapeKnown = true;
            out.alias.shapeHash = std::hash<std::string>{}(shape);
            out.alias.c = form->c;
        }

        // index = sum over dims of (nonconst_d * rowstride_d), with the
        // constant parts folded into the displacement.
        Operand index;
        std::int64_t const_index = 0;
        for (size_t d = 0; d < ref.children.size(); ++d) {
            auto [part, c] = splitConst(*ref.children[d]);
            const std::int64_t dim = array.dims[d];
            // Scale the accumulator by this dimension. Constants of
            // the form 2^a +/- 2^b (e.g. padded row pitches) are
            // strength-reduced to two shifts and an add/sub of 1-cycle
            // ALU ops instead of a multi-cycle multiply.
            if (index.reg != kisa::noReg && d > 0) {
                const Reg scaled = index.isTemp ? index.reg
                                                : allocTempInt();
                const auto two_term = shiftPairSplit(
                    static_cast<std::uint64_t>(dim));
                if (isPowerOf2(static_cast<std::uint64_t>(dim))) {
                    Instr sc;
                    sc.op = Op::IShlImm;
                    sc.imm = log2Floor(static_cast<std::uint64_t>(dim));
                    sc.rd = scaled;
                    sc.ra = index.reg;
                    emit(sc);
                } else if (two_term) {
                    const auto [hi_sh, lo_sh, negate] = *two_term;
                    const Reg hi = allocTempInt();
                    Instr sh;
                    sh.op = Op::IShlImm;
                    sh.rd = hi;
                    sh.ra = index.reg;
                    sh.imm = hi_sh;
                    emit(sh);
                    Instr sl;
                    sl.op = Op::IShlImm;
                    sl.rd = scaled;
                    sl.ra = index.reg;
                    sl.imm = lo_sh;
                    emit(sl);
                    Instr comb;
                    comb.op = negate ? Op::ISub : Op::IAdd;
                    comb.rd = scaled;
                    comb.ra = hi;
                    comb.rb = scaled;
                    emit(comb);
                    intFree_.push_back(hi);
                } else {
                    Instr sc;
                    sc.op = Op::IMulImm;
                    sc.imm = dim;
                    sc.rd = scaled;
                    sc.ra = index.reg;
                    emit(sc);
                }
                index.reg = scaled;
                index.isTemp = true;
            }
            const_index = const_index * dim + c;
            if (part != nullptr) {
                Operand sub = lowerExpr(*part);
                MPC_ASSERT(!sub.isFp, "FP value used as subscript");
                if (index.reg == kisa::noReg) {
                    index = sub;
                } else {
                    Instr addi;
                    addi.op = Op::IAdd;
                    addi.rd = index.isTemp ? index.reg : allocTempInt();
                    addi.ra = index.reg;
                    addi.rb = sub.reg;
                    emit(addi);
                    if (!index.isTemp) {
                        index.reg = addi.rd;
                        index.isTemp = true;
                    }
                    release(sub);
                }
            }
        }
        const Reg base_reg = baseRegs_.at(&array);
        if (index.reg == kisa::noReg) {
            out.base = base_reg;
            out.disp = const_index * 8;
            return out;
        }
        // byte address = base + (index << 3)
        const Reg bytes = index.isTemp ? index.reg : allocTempInt();
        Instr shl;
        shl.op = Op::IShlImm;
        shl.rd = bytes;
        shl.ra = index.reg;
        shl.imm = 3;
        emit(shl);
        Instr addb;
        addb.op = Op::IAdd;
        addb.rd = bytes;
        addb.ra = bytes;
        addb.rb = base_reg;
        emit(addb);
        out.base = bytes;
        out.disp = const_index * 8;
        out.temp = Operand{bytes, false, true};
        return out;
    }

    Operand
    lowerExpr(const Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::IntConst: {
            if (expr.ival == 0)
                return {regZero, false, false};
            const Reg r = allocTempInt();
            Instr li;
            li.op = Op::ILoadImm;
            li.rd = r;
            li.imm = expr.ival;
            emit(li);
            return {r, false, true};
          }
          case Expr::Kind::FloatConst: {
            const Reg r = allocTempFp();
            Instr li;
            li.op = Op::FLoadImm;
            li.rd = r;
            li.imm = std::bit_cast<std::int64_t>(expr.fval);
            emit(li);
            return {r, true, true};
          }
          case Expr::Kind::VarRef:
            if (varIsFp(expr.var))
                return {fpVarReg(expr.var), true, false};
            return {intVarReg(expr.var), false, false};
          case Expr::Kind::ArrayRef:
          case Expr::Kind::Deref: {
            const bool fp = expr.kind == Expr::Kind::ArrayRef
                                ? expr.array->elem == ScalType::F64
                                : expr.vtype == ScalType::F64;
            Address addr = lowerAddress(expr);
            const Reg dest = fp ? allocTempFp() : allocTempInt();
            Instr ld;
            ld.op = fp ? Op::LdF : Op::LdI;
            ld.rd = dest;
            ld.ra = addr.base;
            ld.imm = addr.disp;
            ld.refId = static_cast<std::uint32_t>(expr.refId);
            emit(ld, addr.alias);
            release(addr.temp);
            return {dest, fp, true};
          }
          case Expr::Kind::Bin: {
            Operand a = lowerExpr(*expr.children[0]);
            Operand b = lowerExpr(*expr.children[1]);
            const bool fp = a.isFp || b.isFp;
            if (fp) {
                a = coerceFp(a);
                b = coerceFp(b);
            }
            const Reg dest = fp ? allocTempFp() : allocTempInt();
            Instr in;
            switch (expr.bop) {
              case ir::BinOp::Add: in.op = fp ? Op::FAdd : Op::IAdd; break;
              case ir::BinOp::Sub: in.op = fp ? Op::FSub : Op::ISub; break;
              case ir::BinOp::Mul: in.op = fp ? Op::FMul : Op::IMul; break;
              case ir::BinOp::Div: in.op = fp ? Op::FDiv : Op::IDiv; break;
              case ir::BinOp::Mod:
                MPC_ASSERT(!fp, "FP modulo not supported in codegen");
                in.op = Op::IRem;
                break;
              case ir::BinOp::Min: in.op = fp ? Op::FMin : Op::IMin; break;
              case ir::BinOp::Max: in.op = fp ? Op::FMax : Op::IMax; break;
            }
            in.rd = dest;
            in.ra = a.reg;
            in.rb = b.reg;
            emit(in);
            release(a);
            release(b);
            return {dest, fp, true};
          }
          case Expr::Kind::Un: {
            Operand a = lowerExpr(*expr.children[0]);
            switch (expr.uop) {
              case ir::UnOp::Neg: {
                if (a.isFp) {
                    const Reg dest = allocTempFp();
                    Instr in;
                    in.op = Op::FNeg;
                    in.rd = dest;
                    in.ra = a.reg;
                    emit(in);
                    release(a);
                    return {dest, true, true};
                }
                const Reg dest = allocTempInt();
                Instr in;
                in.op = Op::ISub;
                in.rd = dest;
                in.ra = regZero;
                in.rb = a.reg;
                emit(in);
                release(a);
                return {dest, false, true};
              }
              case ir::UnOp::Sqrt: {
                a = coerceFp(a);
                const Reg dest = allocTempFp();
                Instr in;
                in.op = Op::FSqrt;
                in.rd = dest;
                in.ra = a.reg;
                emit(in);
                release(a);
                return {dest, true, true};
              }
              case ir::UnOp::Abs: {
                a = coerceFp(a);
                const Reg dest = allocTempFp();
                Instr in;
                in.op = Op::FAbs;
                in.rd = dest;
                in.ra = a.reg;
                emit(in);
                release(a);
                return {dest, true, true};
              }
              case ir::UnOp::Trunc: {
                if (!a.isFp)
                    return a;
                const Reg dest = allocTempInt();
                Instr in;
                in.op = Op::CvtFI;
                in.rd = dest;
                in.ra = a.reg;
                emit(in);
                release(a);
                return {dest, false, true};
              }
            }
            panic("lowerExpr: bad unary op");
          }
        }
        panic("lowerExpr: bad expression kind");
    }

    Operand
    coerceFp(Operand operand)
    {
        if (operand.isFp)
            return operand;
        const Reg dest = allocTempFp();
        Instr in;
        in.op = Op::CvtIF;
        in.rd = dest;
        in.ra = operand.reg;
        emit(in);
        release(operand);
        return {dest, true, true};
    }

    /** Lower @p expr, placing the result in the given register. The
     *  destination is only written by the final instruction, so the
     *  destination may appear inside @p expr. */
    void
    lowerInto(const Expr &expr, Reg dest, bool dest_fp)
    {
        // Binary roots can write the destination directly: operands are
        // fully evaluated before the final instruction writes dest.
        if (expr.kind == Expr::Kind::Bin && expr.bop != ir::BinOp::Mod) {
            Operand a = lowerExpr(*expr.children[0]);
            Operand b = lowerExpr(*expr.children[1]);
            const bool fp = a.isFp || b.isFp;
            if (fp == dest_fp) {
                if (fp) {
                    a = coerceFp(a);
                    b = coerceFp(b);
                }
                Instr in;
                switch (expr.bop) {
                  case ir::BinOp::Add: in.op = fp ? Op::FAdd : Op::IAdd; break;
                  case ir::BinOp::Sub: in.op = fp ? Op::FSub : Op::ISub; break;
                  case ir::BinOp::Mul: in.op = fp ? Op::FMul : Op::IMul; break;
                  case ir::BinOp::Div: in.op = fp ? Op::FDiv : Op::IDiv; break;
                  case ir::BinOp::Min: in.op = fp ? Op::FMin : Op::IMin; break;
                  case ir::BinOp::Max: in.op = fp ? Op::FMax : Op::IMax; break;
                  default: panic("unreachable binop");
                }
                in.rd = dest;
                in.ra = a.reg;
                in.rb = b.reg;
                emit(in);
                release(a);
                release(b);
                return;
            }
            release(a);
            release(b);
            // Type mismatch: fall through to the generic path below
            // (re-lowering the children; rare).
        }
        Operand v = lowerExpr(expr);
        if (dest_fp && !v.isFp)
            v = coerceFp(v);
        if (!dest_fp && v.isFp) {
            Instr cv;
            cv.op = Op::CvtFI;
            cv.rd = dest;
            cv.ra = v.reg;
            emit(cv);
            release(v);
            return;
        }
        if (v.reg == dest) {
            release(v);
            return;
        }
        Instr mv;
        if (dest_fp) {
            mv.op = Op::FMov;
            mv.rd = dest;
            mv.ra = v.reg;
        } else {
            mv.op = Op::IAddImm;
            mv.rd = dest;
            mv.ra = v.reg;
            mv.imm = 0;
        }
        emit(mv);
        release(v);
    }

    // --- statements -----------------------------------------------------
    void
    lowerStmt(const Stmt &stmt)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Assign:
          case Stmt::Kind::FlagSet:
            lowerAssign(stmt);
            break;
          case Stmt::Kind::Loop:
            lowerLoop(stmt);
            break;
          case Stmt::Kind::PtrLoop:
            lowerPtrLoop(stmt);
            break;
          case Stmt::Kind::While:
            lowerWhile(stmt);
            break;
          case Stmt::Kind::Prefetch: {
            Address addr = lowerAddress(*stmt.lhs);
            Instr pf;
            pf.op = Op::Prefetch;
            pf.ra = addr.base;
            pf.imm = addr.disp;
            pf.refId = static_cast<std::uint32_t>(stmt.lhs->refId);
            emit(pf, addr.alias);
            release(addr.temp);
            break;
          }
          case Stmt::Kind::Barrier: {
            flushRegion();
            builder_.barrier();
            break;
          }
        }
    }

    void
    lowerAssign(const Stmt &stmt)
    {
        const Expr &lhs = *stmt.lhs;
        if (lhs.kind == Expr::Kind::VarRef) {
            if (varIsFp(lhs.var))
                lowerInto(*stmt.rhs, fpVarReg(lhs.var), true);
            else
                lowerInto(*stmt.rhs, intVarReg(lhs.var), false);
            return;
        }
        // Store.
        const bool fp = lhs.kind == Expr::Kind::ArrayRef
                            ? lhs.array->elem == ScalType::F64
                            : lhs.vtype == ScalType::F64;
        Operand value = lowerExpr(*stmt.rhs);
        if (fp && !value.isFp)
            value = coerceFp(value);
        if (!fp && value.isFp) {
            const Reg iv = allocTempInt();
            Instr cv;
            cv.op = Op::CvtFI;
            cv.rd = iv;
            cv.ra = value.reg;
            emit(cv);
            release(value);
            value = {iv, false, true};
        }
        Address addr = lowerAddress(lhs);
        Instr st;
        st.op = fp ? Op::StF : Op::StI;
        st.ra = addr.base;
        st.rb = value.reg;
        st.imm = addr.disp;
        st.refId = static_cast<std::uint32_t>(lhs.refId);
        emit(st, addr.alias);
        release(addr.temp);
        release(value);
    }

    /** True if the loop bound must be re-evaluated every iteration. */
    static bool
    boundIsDynamic(const Stmt &loop)
    {
        std::set<std::string> assigned;
        for (const auto &child : loop.body) {
            ir::walkStmts(*child, [&assigned](const Stmt &s) {
                if (s.kind == Stmt::Kind::Assign &&
                    s.lhs->kind == Expr::Kind::VarRef)
                    assigned.insert(s.lhs->var);
                if (s.kind == Stmt::Kind::PtrLoop)
                    assigned.insert(s.var);
            });
        }
        bool dynamic = false;
        std::function<void(const Expr &)> scan = [&](const Expr &e) {
            if (e.isMemRef())
                dynamic = true;
            if (e.kind == Expr::Kind::VarRef && assigned.count(e.var))
                dynamic = true;
            for (const auto &c : e.children)
                scan(*c);
        };
        scan(*loop.hi);
        return dynamic;
    }

    void
    lowerLoop(const Stmt &stmt)
    {
        MPC_ASSERT(stmt.step != 0, "zero loop step");
        const bool down = stmt.step < 0;
        const Reg var = intVarReg(stmt.var);
        lowerInto(*stmt.lo, var, false);

        const Reg hi = allocPersistentInt();
        const bool dynamic_hi = boundIsDynamic(stmt);
        lowerInto(*stmt.hi, hi, false);

        auto l_top = newLabel();
        auto l_exit = newLabel();
        // Guard (also flushes): exit when the range is empty. Upward
        // loops run while var < hi; downward loops while var > hi.
        if (down)
            emitBranch(Op::BGe, hi, var, l_exit);
        else
            emitBranch(Op::BGe, var, hi, l_exit);
        bindLabel(l_top);
        const int body_start = builder_.here();

        for (const auto &child : stmt.body)
            lowerStmt(*child);

        // Increment and backedge.
        Instr inc;
        inc.op = Op::IAddImm;
        inc.rd = var;
        inc.ra = var;
        inc.imm = stmt.step;
        emit(inc);
        if (dynamic_hi)
            lowerInto(*stmt.hi, hi, false);
        if (down)
            emitBranch(Op::BLt, hi, var, l_top);
        else
            emitBranch(Op::BLt, var, hi, l_top);
        bindLabel(l_exit);

        if (measureTarget_ == &stmt)
            measuredBody_ = builder_.here() - body_start - 1;
    }

    void
    lowerPtrLoop(const Stmt &stmt)
    {
        const Reg var = intVarReg(stmt.var);
        lowerInto(*stmt.lo, var, false);
        auto l_top = newLabel();
        auto l_exit = newLabel();
        emitBranch(Op::BEq, var, regZero, l_exit);
        bindLabel(l_top);
        const int body_start = builder_.here();

        for (const auto &child : stmt.body)
            lowerStmt(*child);

        // Advance: var = *(var + next_offset)
        Instr adv;
        adv.op = Op::LdI;
        adv.rd = var;
        adv.ra = var;
        adv.imm = stmt.step;
        adv.refId = stmt.rhs
                        ? static_cast<std::uint32_t>(stmt.rhs->refId)
                        : 0xffffffff;
        AliasInfo deref_alias;
        deref_alias.any = true;
        emit(adv, deref_alias);
        emitBranch(Op::BNe, var, regZero, l_top);
        bindLabel(l_exit);

        if (measureTarget_ == &stmt)
            measuredBody_ = builder_.here() - body_start - 1;
    }

    void
    lowerWhile(const Stmt &stmt)
    {
        auto l_check = newLabel();
        auto l_exit = newLabel();
        bindLabel(l_check);
        Operand cond = lowerExpr(*stmt.lo);
        emitBranch(Op::BEq, cond.reg, regZero, l_exit);
        release(cond);
        const int body_start = builder_.here();

        for (const auto &child : stmt.body)
            lowerStmt(*child);

        emitBranch(Op::Jmp, kisa::noReg, kisa::noReg, l_check);
        bindLabel(l_exit);

        if (measureTarget_ == &stmt)
            measuredBody_ = builder_.here() - body_start - 1;
    }

    const Kernel &kernel_;
    bool schedule_;
    AsmBuilder builder_;

    std::vector<Instr> region_;
    std::vector<AliasInfo> aliasClass_;

    int nextInt_ = 1;
    int nextFp_ = 0;
    static constexpr int tempBaseInt_ = 112;
    static constexpr int tempBaseFp_ = 112;
    int intTempNext_ = tempBaseInt_;
    int fpTempNext_ = tempBaseFp_;
    std::vector<Reg> intFree_;
    std::vector<Reg> fpFree_;

    std::map<std::string, Reg> intVars_;
    std::map<std::string, Reg> fpVars_;
    std::map<const ir::Array *, Reg> baseRegs_;
    std::map<const ir::Array *, int> aliasIds_;

    const Stmt *measureTarget_ = nullptr;
    int measuredBody_ = -1;
};

} // namespace

kisa::Program
lower(const ir::Kernel &kernel)
{
    for (const auto &array : kernel.arrays)
        MPC_ASSERT(array.base != 0, "layoutArrays before lowering");
    Lowerer lowerer(kernel, kernel.schedule);
    return lowerer.lower();
}

std::vector<kisa::Program>
lowerForCores(const ir::Kernel &kernel, int num_procs,
              bool clustered_schedule,
              const std::set<std::uint32_t> &leading_refs)
{
    const std::set<int> leading(leading_refs.begin(), leading_refs.end());
    MPC_ASSERT(clustered_schedule == kernel.schedule &&
                   leading == kernel.leadingRefIds,
               "arguments disagree with the kernel's schedule marks");
    return std::vector<kisa::Program>(
        static_cast<std::size_t>(num_procs), lower(kernel));
}

int
loweredBodySize(const ir::Kernel &kernel, const ir::Stmt &loop)
{
    Lowerer lowerer(kernel, false);
    return lowerer.measure(loop);
}

} // namespace mpc::codegen
