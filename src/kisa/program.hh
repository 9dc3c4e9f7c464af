/**
 * @file
 * KISA programs and the assembler-style builder used by the code
 * generator and by hand-written test kernels.
 */

#ifndef MPC_KISA_PROGRAM_HH
#define MPC_KISA_PROGRAM_HH

#include <string>
#include <vector>

#include "kisa/isa.hh"

namespace mpc::kisa
{

/**
 * A complete kernel program: a straight vector of decoded instructions.
 * Branch targets are instruction indices. Every program must end in (or
 * reach) a Halt.
 */
struct Program
{
    std::string name;
    std::vector<Instr> code;

    /**
     * Predecode sidecar: meta[i] describes code[i]. Built by
     * predecode() (AsmBuilder::finish does this); the core requires it
     * and asserts consistency with the opcode helpers in debug builds.
     */
    std::vector<InstrMeta> meta;

    size_t size() const { return code.size(); }

    /** (Re)build the predecode sidecar from code. */
    void predecode();

    /** Full disassembly listing (one instruction per line). */
    std::string disassemble() const;
};

/**
 * Forward-reference-capable program builder.
 *
 * Usage:
 * @code
 *   AsmBuilder b("kernel");
 *   auto loop = b.newLabel();
 *   b.iLoadImm(r_i, 0);
 *   b.bind(loop);
 *   ...
 *   b.bLt(r_i, r_n, loop);
 *   b.halt();
 *   Program p = b.finish();
 * @endcode
 */
class AsmBuilder
{
  public:
    /** Opaque label handle. */
    struct Label
    {
        int id = -1;
    };

    explicit AsmBuilder(std::string name);

    /** Allocate a fresh unbound label. */
    Label newLabel();

    /** Bind @p label to the next emitted instruction. */
    void bind(Label label);

    /** Index the next emitted instruction will have. */
    int here() const { return static_cast<int>(prog_.code.size()); }

    // --- raw emission -----------------------------------------------
    /** Emit an arbitrary pre-built instruction; returns its index. */
    int emit(Instr instr);

    // --- integer ops ------------------------------------------------
    void iAdd(Reg rd, Reg ra, Reg rb) { emit3(Op::IAdd, rd, ra, rb); }
    void iSub(Reg rd, Reg ra, Reg rb) { emit3(Op::ISub, rd, ra, rb); }
    void iMul(Reg rd, Reg ra, Reg rb) { emit3(Op::IMul, rd, ra, rb); }
    void iDiv(Reg rd, Reg ra, Reg rb) { emit3(Op::IDiv, rd, ra, rb); }
    void iRem(Reg rd, Reg ra, Reg rb) { emit3(Op::IRem, rd, ra, rb); }
    void iAnd(Reg rd, Reg ra, Reg rb) { emit3(Op::IAnd, rd, ra, rb); }
    void iOr(Reg rd, Reg ra, Reg rb) { emit3(Op::IOr, rd, ra, rb); }
    void iXor(Reg rd, Reg ra, Reg rb) { emit3(Op::IXor, rd, ra, rb); }
    void iShl(Reg rd, Reg ra, Reg rb) { emit3(Op::IShl, rd, ra, rb); }
    void iShr(Reg rd, Reg ra, Reg rb) { emit3(Op::IShr, rd, ra, rb); }
    void iCmpLt(Reg rd, Reg ra, Reg rb) { emit3(Op::ICmpLt, rd, ra, rb); }
    void iCmpEq(Reg rd, Reg ra, Reg rb) { emit3(Op::ICmpEq, rd, ra, rb); }

    void iAddImm(Reg rd, Reg ra, std::int64_t imm);
    void iMulImm(Reg rd, Reg ra, std::int64_t imm);
    void iShlImm(Reg rd, Reg ra, std::int64_t imm);
    void iAndImm(Reg rd, Reg ra, std::int64_t imm);
    void iLoadImm(Reg rd, std::int64_t imm);
    void procId(Reg rd) { emit3(Op::ProcId, rd, noReg, noReg); }
    void numProcs(Reg rd) { emit3(Op::NumProcs, rd, noReg, noReg); }

    // --- floating point ---------------------------------------------
    void fAdd(Reg rd, Reg ra, Reg rb) { emit3(Op::FAdd, rd, ra, rb); }
    void fSub(Reg rd, Reg ra, Reg rb) { emit3(Op::FSub, rd, ra, rb); }
    void fMul(Reg rd, Reg ra, Reg rb) { emit3(Op::FMul, rd, ra, rb); }
    void fDiv(Reg rd, Reg ra, Reg rb) { emit3(Op::FDiv, rd, ra, rb); }
    void fSqrt(Reg rd, Reg ra) { emit3(Op::FSqrt, rd, ra, noReg); }
    void fNeg(Reg rd, Reg ra) { emit3(Op::FNeg, rd, ra, noReg); }
    void fAbs(Reg rd, Reg ra) { emit3(Op::FAbs, rd, ra, noReg); }
    void fLoadImm(Reg rd, double value);
    void cvtIF(Reg fd, Reg ra) { emit3(Op::CvtIF, fd, ra, noReg); }
    void cvtFI(Reg rd, Reg fa) { emit3(Op::CvtFI, rd, fa, noReg); }

    // --- memory -----------------------------------------------------
    /** Loads/stores; @p ref_id attributes the access for statistics. */
    void ldI(Reg rd, Reg base, std::int64_t disp,
             std::uint32_t ref_id = 0xffffffff);
    void ldF(Reg fd, Reg base, std::int64_t disp,
             std::uint32_t ref_id = 0xffffffff);
    void stI(Reg base, std::int64_t disp, Reg src,
             std::uint32_t ref_id = 0xffffffff);
    void stF(Reg base, std::int64_t disp, Reg src,
             std::uint32_t ref_id = 0xffffffff);

    // --- control ----------------------------------------------------
    void bEq(Reg ra, Reg rb, Label target) { branch(Op::BEq, ra, rb, target); }
    void bNe(Reg ra, Reg rb, Label target) { branch(Op::BNe, ra, rb, target); }
    void bLt(Reg ra, Reg rb, Label target) { branch(Op::BLt, ra, rb, target); }
    void bGe(Reg ra, Reg rb, Label target) { branch(Op::BGe, ra, rb, target); }
    void jmp(Label target) { branch(Op::Jmp, noReg, noReg, target); }

    // --- sync / end -------------------------------------------------
    void barrier();
    /** Block until mem64[base + disp] >= threshold register. */
    void flagWait(Reg base, std::int64_t disp, Reg threshold);
    void halt();

    /** Resolve labels and return the finished program. */
    Program finish();

  private:
    void emit3(Op op, Reg rd, Reg ra, Reg rb);
    void branch(Op op, Reg ra, Reg rb, Label target);

    Program prog_;
    std::vector<int> labelPos_;     ///< label id -> bound index (-1 unbound)
    struct Fixup
    {
        int instrIdx;
        int labelId;
    };
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace mpc::kisa

#endif // MPC_KISA_PROGRAM_HH
