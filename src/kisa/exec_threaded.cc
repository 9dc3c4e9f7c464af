#include "kisa/exec_threaded.hh"

#include "common/logging.hh"

namespace mpc::kisa
{

// The handler table (and the computed-goto label table in the header)
// enumerate every opcode by its enum value; adding an opcode without
// extending them would silently route it to the trap fallback, so pin
// the enum's extent here.
static_assert(static_cast<int>(Op::Halt) == 45,
              "KISA opcode set changed: extend the threaded tier's "
              "handler/label tables in exec_threaded.{hh,cc}");
static_assert(detail::numHandlers == 53,
              "one handler per opcode, the trap fallback, and six "
              "fused superinstructions");

const char *
execTierName(ExecTier tier)
{
    return tier == ExecTier::Interp ? "interp" : "threaded";
}

namespace
{

std::uint8_t
handlerFor(Op op)
{
    const auto raw = static_cast<std::uint8_t>(op);
    return raw <= static_cast<std::uint8_t>(Op::Halt)
               ? raw
               : detail::trapHandler;
}

} // namespace

ThreadedProgram::ThreadedProgram(const Program &program)
    : source_(&program)
{
    const std::size_t n = program.code.size();
    // The predecode sidecar (InstrMeta) classifies branches, so branch
    // targets are bounds-checked once here instead of per dynamic
    // instruction. Programs straight from AsmBuilder/codegen always
    // carry it; derive locally for hand-rolled ones.
    std::vector<InstrMeta> local_meta;
    const std::vector<InstrMeta> *meta = &program.meta;
    if (program.meta.size() != n) {
        local_meta.reserve(n);
        for (const Instr &in : program.code)
            local_meta.push_back(deriveMeta(in));
        meta = &local_meta;
    }

    recs_.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        const Instr &in = program.code[i];
        detail::OpRec rec;
        rec.imm = in.imm;
        rec.target = in.target;
        rec.pc = static_cast<std::int32_t>(i);
        rec.rd = in.rd;
        rec.ra = in.ra;
        rec.rb = in.rb;
        rec.handler = handlerFor(in.op);
        // A branch whose target is outside [0, n] cannot be turned
        // into a record pointer; route it to the trap handler, which
        // faults only if the branch actually executes — the same
        // laziness the interpreter has (target == n is legal and
        // lands on the sentinel below).
        if ((*meta)[i].isBranch &&
            (in.target < 0 ||
             in.target > static_cast<std::int32_t>(n)))
            rec.handler = detail::trapHandler;
        if (rec.handler == detail::trapHandler)
            ++trapCount_;
        recs_.push_back(rec);
    }

    // Sentinel: running off the end lands here; the step() fallback
    // then reproduces the interpreter's "pc out of range" assertion.
    detail::OpRec sentinel;
    sentinel.pc = static_cast<std::int32_t>(n);
    sentinel.handler = detail::trapHandler;
    recs_.push_back(sentinel);

    // Superinstruction peephole: rewrite the FIRST record of the
    // address-generation sequences the lowered code emits constantly
    // (ishli;iadd — often with the ld/st it feeds — and the counted
    // loop's iaddi;blt back-edge) to a fused handler. Matching on the
    // already-assigned handler (not the opcode) automatically excludes
    // trap-routed records. Swallowed slots are left untouched: they
    // hold both the fused handler's operands and a valid unfused
    // entry point for branches into the middle of a sequence.
    const auto h = [](Op op) { return static_cast<std::uint8_t>(op); };
    std::size_t i = 0;
    while (i < n) {
        detail::OpRec &r0 = recs_[i];
        if (r0.handler == h(Op::IShlImm) && i + 1 < n &&
            recs_[i + 1].handler == h(Op::IAdd)) {
            const std::uint8_t third =
                i + 2 < n ? recs_[i + 2].handler : detail::trapHandler;
            if (third == h(Op::LdI))
                r0.handler = detail::fusedShlAddLdI;
            else if (third == h(Op::LdF))
                r0.handler = detail::fusedShlAddLdF;
            else if (third == h(Op::StI))
                r0.handler = detail::fusedShlAddStI;
            else if (third == h(Op::StF))
                r0.handler = detail::fusedShlAddStF;
            else
                r0.handler = detail::fusedShlAdd;
            ++fusedCount_;
            i += r0.handler == detail::fusedShlAdd ? 2 : 3;
            continue;
        }
        if (r0.handler == h(Op::IAddImm) && i + 1 < n &&
            recs_[i + 1].handler == h(Op::BLt)) {
            r0.handler = detail::fusedAddImmBLt;
            ++fusedCount_;
            i += 2;
            continue;
        }
        ++i;
    }
}

int
ThreadedExecutor::addCore(const Program &program)
{
    cores_.push_back(CoreState{&program, ThreadedProgram(program),
                               RegFile{}, 0, false, false, 0});
    return static_cast<int>(cores_.size()) - 1;
}

std::uint64_t
ThreadedExecutor::run(std::uint64_t max_steps)
{
    struct NoHook
    {
        void operator()(int, const Instr &, Addr, bool) const {}
    };
    return runWithHook(NoHook{}, max_steps);
}

std::uint64_t
ThreadedExecutor::instrCount(int core) const
{
    return cores_[static_cast<std::size_t>(core)].instrs;
}

std::size_t
ThreadedExecutor::trapCount() const
{
    std::size_t count = 0;
    for (const CoreState &core : cores_)
        count += core.tprog.trapCount();
    return count;
}

void
ThreadedExecutor::budgetExceeded(std::uint64_t max_steps)
{
    fatal("ThreadedExecutor: instruction budget exceeded (%llu) - "
          "runaway kernel?",
          static_cast<unsigned long long>(max_steps));
}

std::uint64_t
execute(const Program &program, MemoryImage &mem,
        std::uint64_t max_steps, ExecTier tier)
{
    struct NoHook
    {
        void operator()(int, const Instr &, Addr, bool) const {}
    };
    return executeWithHook(program, mem, NoHook{}, max_steps, tier);
}

std::uint64_t
execute(const std::vector<Program> &programs, MemoryImage &mem,
        std::uint64_t max_steps, ExecTier tier)
{
    struct NoHook
    {
        void operator()(int, const Instr &, Addr, bool) const {}
    };
    return executeWithHook(programs, mem, NoHook{}, max_steps, tier);
}

} // namespace mpc::kisa
