#include "kisa/isa.hh"

#include "common/logging.hh"

namespace mpc::kisa
{

OpClass
opClass(Op op)
{
    switch (op) {
      case Op::Nop:
        return OpClass::Nop;
      case Op::IAdd: case Op::ISub: case Op::IAnd: case Op::IOr:
      case Op::IXor: case Op::IShl: case Op::IShr: case Op::ICmpLt:
      case Op::ICmpEq: case Op::IMin: case Op::IMax:
      case Op::IAddImm: case Op::IShlImm:
      case Op::IAndImm: case Op::ILoadImm: case Op::ProcId:
      case Op::NumProcs:
      case Op::BEq: case Op::BNe: case Op::BLt: case Op::BGe: case Op::Jmp:
        return OpClass::IntAlu;
      case Op::IMul: case Op::IDiv: case Op::IRem: case Op::IMulImm:
        return OpClass::IntMul;
      case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FNeg:
      case Op::FAbs: case Op::FMin: case Op::FMax: case Op::FMov:
      case Op::FLoadImm: case Op::CvtIF: case Op::CvtFI:
        return OpClass::FpArith;
      case Op::FDiv:
        return OpClass::FpDiv;
      case Op::FSqrt:
        return OpClass::FpSqrt;
      case Op::Prefetch: case Op::LdI: case Op::LdF:
        return OpClass::MemRead;
      case Op::StI: case Op::StF:
        return OpClass::MemWrite;
      case Op::Barrier: case Op::FlagWait:
        return OpClass::Sync;
      case Op::Halt:
        return OpClass::Halt;
    }
    panic("opClass: unknown opcode %d", static_cast<int>(op));
}

bool
isMemOp(Op op)
{
    const OpClass cls = opClass(op);
    return cls == OpClass::MemRead || cls == OpClass::MemWrite;
}

bool
isBranch(Op op)
{
    switch (op) {
      case Op::BEq: case Op::BNe: case Op::BLt: case Op::BGe: case Op::Jmp:
        return true;
      default:
        return false;
    }
}

bool
destIsFp(Op op)
{
    switch (op) {
      case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FDiv:
      case Op::FSqrt: case Op::FNeg: case Op::FAbs: case Op::FMin:
      case Op::FMax: case Op::FMov: case Op::FLoadImm: case Op::CvtIF:
      case Op::LdF:
        return true;
      default:
        return false;
    }
}

bool
srcAIsFp(Op op)
{
    switch (op) {
      case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FDiv:
      case Op::FSqrt: case Op::FNeg: case Op::FAbs: case Op::FMin:
      case Op::FMax: case Op::FMov: case Op::CvtFI:
        return true;
      default:
        // Loads/stores use ra as an integer base address.
        return false;
    }
}

bool
srcBIsFp(Op op)
{
    switch (op) {
      case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FDiv:
      case Op::FMin: case Op::FMax: case Op::StF:
        return true;
      default:
        return false;
    }
}

InstrMeta
deriveMeta(const Instr &instr)
{
    const Op op = instr.op;
    InstrMeta m;
    m.cls = opClass(op);
    m.isMem = isMemOp(op);
    m.isBranch = isBranch(op);
    m.destFp = destIsFp(op);
    m.srcAFp = srcAIsFp(op);
    m.srcBFp = srcBIsFp(op);
    m.writesReg = instr.rd != noReg && !m.isBranch &&
                  op != Op::StI && op != Op::StF;
    return m;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::IAdd: return "iadd";
      case Op::ISub: return "isub";
      case Op::IMul: return "imul";
      case Op::IDiv: return "idiv";
      case Op::IRem: return "irem";
      case Op::IAnd: return "iand";
      case Op::IOr: return "ior";
      case Op::IXor: return "ixor";
      case Op::IShl: return "ishl";
      case Op::IShr: return "ishr";
      case Op::ICmpLt: return "icmplt";
      case Op::ICmpEq: return "icmpeq";
      case Op::IMin: return "imin";
      case Op::IMax: return "imax";
      case Op::IAddImm: return "iaddi";
      case Op::IMulImm: return "imuli";
      case Op::IShlImm: return "ishli";
      case Op::IAndImm: return "iandi";
      case Op::ILoadImm: return "ildimm";
      case Op::ProcId: return "procid";
      case Op::NumProcs: return "nprocs";
      case Op::FAdd: return "fadd";
      case Op::FSub: return "fsub";
      case Op::FMul: return "fmul";
      case Op::FDiv: return "fdiv";
      case Op::FSqrt: return "fsqrt";
      case Op::FNeg: return "fneg";
      case Op::FAbs: return "fabs";
      case Op::FMin: return "fmin";
      case Op::FMax: return "fmax";
      case Op::FMov: return "fmov";
      case Op::FLoadImm: return "fldimm";
      case Op::CvtIF: return "cvtif";
      case Op::CvtFI: return "cvtfi";
      case Op::Prefetch: return "prefetch";
      case Op::LdI: return "ldi";
      case Op::LdF: return "ldf";
      case Op::StI: return "sti";
      case Op::StF: return "stf";
      case Op::BEq: return "beq";
      case Op::BNe: return "bne";
      case Op::BLt: return "blt";
      case Op::BGe: return "bge";
      case Op::Jmp: return "jmp";
      case Op::Barrier: return "barrier";
      case Op::FlagWait: return "flagwait";
      case Op::Halt: return "halt";
    }
    return "???";
}

std::string
Instr::toString() const
{
    std::string result = opName(op);
    auto reg_str = [](bool fp, Reg r) {
        return strprintf("%s%u", fp ? "f" : "r", unsigned(r));
    };
    switch (op) {
      case Op::Nop: case Op::Halt: case Op::Barrier:
        break;
      case Op::ILoadImm: case Op::FLoadImm:
        result += strprintf(" %s, %lld", reg_str(destIsFp(op), rd).c_str(),
                            static_cast<long long>(imm));
        break;
      case Op::ProcId: case Op::NumProcs:
        result += strprintf(" r%u", unsigned(rd));
        break;
      case Op::IAddImm: case Op::IMulImm: case Op::IShlImm: case Op::IAndImm:
        result += strprintf(" r%u, r%u, %lld", unsigned(rd), unsigned(ra),
                            static_cast<long long>(imm));
        break;
      case Op::Prefetch:
        result += strprintf(" [r%u + %lld]", unsigned(ra),
                            static_cast<long long>(imm));
        break;
      case Op::LdI: case Op::LdF:
        result += strprintf(" %s, [r%u + %lld]",
                            reg_str(destIsFp(op), rd).c_str(), unsigned(ra),
                            static_cast<long long>(imm));
        break;
      case Op::StI: case Op::StF:
        result += strprintf(" [r%u + %lld], %s", unsigned(ra),
                            static_cast<long long>(imm),
                            reg_str(srcBIsFp(op), rb).c_str());
        break;
      case Op::BEq: case Op::BNe: case Op::BLt: case Op::BGe:
        result += strprintf(" r%u, r%u, @%d", unsigned(ra), unsigned(rb),
                            int(target));
        break;
      case Op::Jmp:
        result += strprintf(" @%d", int(target));
        break;
      case Op::FlagWait:
        result += strprintf(" [r%u + %lld] >= r%u", unsigned(ra),
                            static_cast<long long>(imm), unsigned(rb));
        break;
      case Op::CvtIF: case Op::CvtFI: case Op::FSqrt: case Op::FNeg:
      case Op::FAbs: case Op::FMov:
        result += strprintf(" %s, %s", reg_str(destIsFp(op), rd).c_str(),
                            reg_str(srcAIsFp(op), ra).c_str());
        break;
      default:
        result += strprintf(" %s, %s, %s",
                            reg_str(destIsFp(op), rd).c_str(),
                            reg_str(srcAIsFp(op), ra).c_str(),
                            reg_str(srcBIsFp(op), rb).c_str());
        break;
    }
    return result;
}

} // namespace mpc::kisa
