/**
 * @file
 * KISA: the kernel instruction set.
 *
 * A small RISC-like ISA shared by the functional interpreter (golden
 * model) and the cycle-level out-of-order core. All memory elements are
 * 8 bytes (int64 or IEEE double); addresses are byte addresses. Loop
 * kernels produced by the code generator (src/codegen) are vectors of
 * decoded Instr records — there is no binary encoding.
 */

#ifndef MPC_KISA_ISA_HH
#define MPC_KISA_ISA_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace mpc::kisa
{

/** Number of integer (and, separately, floating-point) registers. */
constexpr int numIntRegs = 256;
constexpr int numFpRegs = 256;

/** Register index type. Integer and FP registers live in separate files;
 *  the opcode determines which file an operand names. */
using Reg = std::uint16_t;

/** Sentinel register meaning "operand unused". */
constexpr Reg noReg = 0xffff;

/** Opcodes. Field usage is documented per group. */
enum class Op : std::uint8_t {
    Nop,

    // Integer register-register: rd <- ra OP rb
    IAdd, ISub, IMul, IDiv, IRem, IAnd, IOr, IXor, IShl, IShr,
    ICmpLt,     ///< rd <- (ra < rb) ? 1 : 0
    ICmpEq,     ///< rd <- (ra == rb) ? 1 : 0
    IMin,       ///< rd <- min(ra, rb) (signed)
    IMax,       ///< rd <- max(ra, rb) (signed)

    // Integer register-immediate: rd <- ra OP imm
    IAddImm, IMulImm, IShlImm, IAndImm,

    ILoadImm,   ///< rd <- imm
    ProcId,     ///< rd <- this core's index (RegFile::procId)
    NumProcs,   ///< rd <- the core count (RegFile::numProcs)

    // Floating point register-register: rd <- ra OP rb (FP file)
    FAdd, FSub, FMul, FDiv,
    FSqrt,      ///< rd <- sqrt(ra)
    FNeg,       ///< rd <- -ra
    FAbs,       ///< rd <- |ra|
    FMin, FMax,
    FMov,       ///< rd <- ra (FP register move)

    FLoadImm,   ///< rd (FP) <- bit pattern imm
    CvtIF,      ///< rd (FP) <- double(ra (int))
    CvtFI,      ///< rd (int) <- int64(ra (FP))

    // Memory: effective address = intReg[ra] + imm
    Prefetch,   ///< nonbinding line prefetch of [ra + imm]
    LdI,        ///< rd (int) <- mem64[ra + imm]
    LdF,        ///< rd (FP)  <- mem64[ra + imm]
    StI,        ///< mem64[ra + imm] <- rb (int)
    StF,        ///< mem64[ra + imm] <- rb (FP)

    // Control: compare-and-branch on integer registers
    BEq,        ///< if (ra == rb) goto target
    BNe, BLt, BGe,
    Jmp,        ///< goto target

    // Synchronization (multiprocessor)
    Barrier,    ///< retire blocks until all cores arrive
    FlagWait,   ///< retire blocks until mem64[ra + imm] >= rb

    Halt,       ///< end of program
};

/**
 * Functional-unit class of an operation, mirroring the simulated
 * configuration's unit pool (2 ALUs, 2 FPUs, 2 address units).
 */
enum class OpClass : std::uint8_t {
    Nop,        ///< consumes no unit
    IntAlu,     ///< 1-cycle ALU ops and branches
    IntMul,     ///< 7-cycle integer multiply/divide
    FpArith,    ///< 3-cycle FP add/sub/mul/convert
    FpDiv,      ///< 16-cycle FP divide
    FpSqrt,     ///< 33-cycle FP square root
    MemRead,    ///< loads (address generation on an address unit)
    MemWrite,   ///< stores
    Sync,       ///< barrier / flag wait
    Halt,
};

/** Map an opcode to its functional-unit class. */
OpClass opClass(Op op);

/** True if the opcode reads/writes memory. */
bool isMemOp(Op op);

/** True if the opcode is a conditional or unconditional branch. */
bool isBranch(Op op);

/** True if the destination register (if any) is in the FP file. */
bool destIsFp(Op op);

/** True if source operand ra / rb is in the FP file. */
bool srcAIsFp(Op op);
bool srcBIsFp(Op op);

/** Mnemonic string for an opcode. */
const char *opName(Op op);

/**
 * One decoded instruction.
 */
struct Instr
{
    Op op = Op::Nop;
    Reg rd = noReg;     ///< destination register (file per destIsFp)
    Reg ra = noReg;     ///< source A / address base
    Reg rb = noReg;     ///< source B / store data / flag threshold
    std::int64_t imm = 0;   ///< immediate / address displacement
    std::int32_t target = -1;   ///< branch target (instruction index)

    /**
     * Static memory-reference id assigned by the code generator, used to
     * attribute per-reference miss statistics. 0xffffffff means none.
     */
    std::uint32_t refId = 0xffffffff;

    /** Pretty-print (mnemonic plus operands). */
    std::string toString() const;

    bool operator==(const Instr &) const = default;
};

/**
 * Predecoded per-instruction metadata: everything the out-of-order
 * core's dispatch/issue/retire logic needs that is derivable from the
 * opcode alone. Built once per program (Program::predecode) so the hot
 * loop does one indexed array read instead of re-deriving attributes
 * through the opcode switch every dynamic instruction. step() remains
 * the single semantic definition; deriveMeta is asserted consistent
 * with the opcode helpers in debug builds (Core ctor).
 */
struct InstrMeta
{
    OpClass cls = OpClass::Nop;
    bool isMem = false;     ///< isMemOp(op)
    bool isBranch = false;  ///< isBranch(op)
    bool destFp = false;    ///< destIsFp(op)
    bool srcAFp = false;    ///< srcAIsFp(op)
    bool srcBFp = false;    ///< srcBIsFp(op)
    /** Instruction writes a destination register visible to later
     *  consumers: rd is set and the op is neither a branch nor a
     *  store (stores use rd-free encodings; see AsmBuilder). */
    bool writesReg = false;

    bool
    operator==(const InstrMeta &o) const
    {
        return cls == o.cls && isMem == o.isMem &&
               isBranch == o.isBranch && destFp == o.destFp &&
               srcAFp == o.srcAFp && srcBFp == o.srcBFp &&
               writesReg == o.writesReg;
    }
};

/** Derive @p instr's metadata from the opcode helpers above. */
InstrMeta deriveMeta(const Instr &instr);

} // namespace mpc::kisa

#endif // MPC_KISA_ISA_HH
