/**
 * @file
 * Unit tests for the KISA instruction set, builder, memory image, and
 * functional interpreter.
 */

#include <gtest/gtest.h>

#include <set>

#include "kisa/interp.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"

namespace mpc::kisa
{
namespace
{

TEST(MemoryImage, ZeroInitialized)
{
    MemoryImage mem;
    EXPECT_EQ(mem.ld64(0x1000), 0u);
    EXPECT_DOUBLE_EQ(mem.ldF64(0x2000), 0.0);
}

TEST(MemoryImage, ReadWrite64)
{
    MemoryImage mem;
    mem.st64(0x1000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.ld64(0x1000), 0xdeadbeefcafef00dULL);
    // Neighbors untouched.
    EXPECT_EQ(mem.ld64(0x1008), 0u);
    EXPECT_EQ(mem.ld64(0x0ff8), 0u);
}

TEST(MemoryImage, DoubleRoundTrip)
{
    MemoryImage mem;
    mem.stF64(0x88, 3.14159);
    EXPECT_DOUBLE_EQ(mem.ldF64(0x88), 3.14159);
}

TEST(MemoryImage, CrossPage)
{
    MemoryImage mem;
    const Addr near_boundary = MemoryImage::pageBytes - 8;
    mem.st64(near_boundary, 1);
    mem.st64(near_boundary + 8, 2);
    EXPECT_EQ(mem.ld64(near_boundary), 1u);
    EXPECT_EQ(mem.ld64(near_boundary + 8), 2u);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(OpClass, Classification)
{
    EXPECT_EQ(opClass(Op::IAdd), OpClass::IntAlu);
    EXPECT_EQ(opClass(Op::IMul), OpClass::IntMul);
    EXPECT_EQ(opClass(Op::FAdd), OpClass::FpArith);
    EXPECT_EQ(opClass(Op::FDiv), OpClass::FpDiv);
    EXPECT_EQ(opClass(Op::FSqrt), OpClass::FpSqrt);
    EXPECT_EQ(opClass(Op::LdF), OpClass::MemRead);
    EXPECT_EQ(opClass(Op::StI), OpClass::MemWrite);
    EXPECT_EQ(opClass(Op::BEq), OpClass::IntAlu);
    EXPECT_EQ(opClass(Op::Barrier), OpClass::Sync);
}

TEST(OpClass, Predicates)
{
    EXPECT_TRUE(isMemOp(Op::LdI));
    EXPECT_TRUE(isMemOp(Op::StF));
    EXPECT_FALSE(isMemOp(Op::IAdd));
    EXPECT_TRUE(isBranch(Op::BLt));
    EXPECT_TRUE(isBranch(Op::Jmp));
    EXPECT_FALSE(isBranch(Op::Halt));
    EXPECT_TRUE(destIsFp(Op::LdF));
    EXPECT_FALSE(destIsFp(Op::LdI));
    EXPECT_TRUE(srcBIsFp(Op::StF));
    EXPECT_FALSE(srcAIsFp(Op::LdF));  // base address is integer
}

TEST(AsmBuilder, SimpleArithmetic)
{
    AsmBuilder b("arith");
    b.iLoadImm(1, 20);
    b.iLoadImm(2, 22);
    b.iAdd(3, 1, 2);
    b.halt();
    Program p = b.finish();
    ASSERT_EQ(p.size(), 4u);

    MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[3], 42);
}

TEST(AsmBuilder, BackwardBranchLoop)
{
    // sum = 0; for (i = 0; i < 10; ++i) sum += i;
    AsmBuilder b("loop");
    const Reg r_i = 1, r_n = 2, r_sum = 3;
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_n, 10);
    b.iLoadImm(r_sum, 0);
    auto loop = b.newLabel();
    b.bind(loop);
    b.iAdd(r_sum, r_sum, r_i);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, loop);
    b.halt();
    Program p = b.finish();

    MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[r_sum], 45);
}

TEST(AsmBuilder, ForwardBranch)
{
    AsmBuilder b("fwd");
    const Reg r_a = 1, r_b = 2, r_out = 3;
    b.iLoadImm(r_a, 5);
    b.iLoadImm(r_b, 5);
    b.iLoadImm(r_out, 0);
    auto skip = b.newLabel();
    b.bEq(r_a, r_b, skip);
    b.iLoadImm(r_out, 99);  // skipped
    b.bind(skip);
    b.halt();
    Program p = b.finish();

    MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[r_out], 0);
}

TEST(Interp, LoadStore)
{
    AsmBuilder b("ldst");
    const Reg r_base = 1, r_v = 2, r_out = 3;
    b.iLoadImm(r_base, 0x1000);
    b.iLoadImm(r_v, 77);
    b.stI(r_base, 8, r_v);
    b.ldI(r_out, r_base, 8);
    b.halt();
    Program p = b.finish();

    MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[r_out], 77);
    EXPECT_EQ(mem.ld64(0x1008), 77u);
}

TEST(Interp, FloatPipeline)
{
    AsmBuilder b("fp");
    b.fLoadImm(1, 2.0);
    b.fLoadImm(2, 8.0);
    b.fMul(3, 1, 2);   // 16
    b.fSqrt(4, 3);     // 4
    b.fDiv(5, 4, 1);   // 2
    b.fSub(6, 5, 1);   // 0
    b.halt();
    Program p = b.finish();

    MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_DOUBLE_EQ(interp.regs(0).fpRegs[6], 0.0);
}

TEST(Interp, PointerChase)
{
    // Build a 4-node linked list in memory: node at addr holds next ptr.
    MemoryImage mem;
    const Addr nodes[4] = {0x1000, 0x5000, 0x3000, 0x9000};
    for (int i = 0; i < 3; ++i)
        mem.st64(nodes[i], nodes[i + 1]);
    mem.st64(nodes[3], 0);

    AsmBuilder b("chase");
    const Reg r_p = 1, r_zero = 2, r_count = 3;
    b.iLoadImm(r_p, static_cast<std::int64_t>(nodes[0]));
    b.iLoadImm(r_zero, 0);
    b.iLoadImm(r_count, 0);
    auto loop = b.newLabel();
    b.bind(loop);
    b.iAddImm(r_count, r_count, 1);
    b.ldI(r_p, r_p, 0);
    b.bNe(r_p, r_zero, loop);
    b.halt();
    Program p = b.finish();

    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[r_count], 4);
}

TEST(Interp, InstrCountAndMemHook)
{
    AsmBuilder b("hook");
    b.iLoadImm(1, 0x2000);
    b.ldI(2, 1, 0);
    b.stI(1, 8, 2);
    b.halt();
    Program p = b.finish();

    MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p);
    int loads = 0, stores = 0;
    interp.runWithHook([&](int, const Instr &, Addr, bool is_load) {
        if (is_load)
            ++loads;
        else
            ++stores;
    });
    EXPECT_EQ(loads, 1);
    EXPECT_EQ(stores, 1);
    EXPECT_EQ(interp.instrCount(0), 4u);
}

TEST(Interp, TwoCoreBarrier)
{
    // Core 0 writes 5 to 0x100, hits barrier.
    // Core 1 hits barrier, then reads 0x100.
    AsmBuilder b0("producer");
    b0.iLoadImm(1, 0x100);
    b0.iLoadImm(2, 5);
    b0.stI(1, 0, 2);
    b0.barrier();
    b0.halt();
    Program p0 = b0.finish();

    AsmBuilder b1("consumer");
    b1.barrier();
    b1.iLoadImm(1, 0x100);
    b1.ldI(3, 1, 0);
    b1.halt();
    Program p1 = b1.finish();

    MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p0);
    interp.addCore(p1);
    interp.run();
    EXPECT_EQ(interp.regs(1).intRegs[3], 5);
}

TEST(Interp, FlagWaitProducerConsumer)
{
    AsmBuilder b0("producer");
    b0.iLoadImm(1, 0x300);   // flag address
    b0.iLoadImm(2, 0x308);   // data address
    b0.iLoadImm(3, 123);
    b0.stI(2, 0, 3);         // data first
    b0.iLoadImm(4, 1);
    b0.stI(1, 0, 4);         // then flag (release)
    b0.halt();
    Program p0 = b0.finish();

    AsmBuilder b1("consumer");
    b1.iLoadImm(1, 0x300);
    b1.iLoadImm(2, 0x308);
    b1.iLoadImm(5, 1);
    b1.flagWait(1, 0, 5);    // acquire
    b1.ldI(6, 2, 0);
    b1.halt();
    Program p1 = b1.finish();

    MemoryImage mem;
    Interpreter interp(mem);
    // Add consumer first so it blocks before the producer runs.
    interp.addCore(p1);
    interp.addCore(p0);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[6], 123);
}

TEST(Disasm, ContainsMnemonics)
{
    AsmBuilder b("dis");
    b.iLoadImm(1, 7);
    b.ldF(2, 1, 16);
    auto l = b.newLabel();
    b.bind(l);
    b.bLt(1, 1, l);
    b.halt();
    Program p = b.finish();
    const std::string d = p.disassemble();
    EXPECT_NE(d.find("ildimm"), std::string::npos);
    EXPECT_NE(d.find("ldf"), std::string::npos);
    EXPECT_NE(d.find("blt"), std::string::npos);
    EXPECT_NE(d.find("halt"), std::string::npos);
}


TEST(Disasm, EveryOpcodeHasDistinctMnemonic)
{
    using U = std::underlying_type_t<Op>;
    std::set<std::string> names;
    int count = 0;
    for (U raw = 0; raw <= static_cast<U>(Op::Halt); ++raw) {
        const Op op = static_cast<Op>(raw);
        const std::string name = opName(op);
        EXPECT_NE(name, "???") << raw;
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate mnemonic " << name;
        // toString must render without crashing for a generic instr.
        Instr in;
        in.op = op;
        in.rd = 1;
        in.ra = 2;
        in.rb = 3;
        in.imm = 42;
        in.target = 7;
        EXPECT_FALSE(in.toString().empty());
        // Classification is total.
        (void)opClass(op);
        ++count;
    }
    EXPECT_GT(count, 40);
}

TEST(Interp, PrefetchWarmsNothingArchitectural)
{
    AsmBuilder b("pf");
    b.iLoadImm(1, 0x9000);
    Instr pf;
    pf.op = Op::Prefetch;
    pf.ra = 1;
    pf.imm = 8;
    b.emit(pf);
    b.ldI(2, 1, 8);
    b.halt();
    Program p = b.finish();
    kisa::MemoryImage mem;
    mem.st64(0x9008, 77);
    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[2], 77);
}

TEST(Interp, MinMaxMovSemantics)
{
    AsmBuilder b("mm");
    b.iLoadImm(1, -5);
    b.iLoadImm(2, 3);
    b.emit([] { Instr i; i.op = Op::IMin; i.rd = 3; i.ra = 1;
                i.rb = 2; return i; }());
    b.emit([] { Instr i; i.op = Op::IMax; i.rd = 4; i.ra = 1;
                i.rb = 2; return i; }());
    b.fLoadImm(1, 2.25);
    b.emit([] { Instr i; i.op = Op::FMov; i.rd = 2; i.ra = 1;
                return i; }());
    b.halt();
    Program p = b.finish();
    kisa::MemoryImage mem;
    Interpreter interp(mem);
    interp.addCore(p);
    interp.run();
    EXPECT_EQ(interp.regs(0).intRegs[3], -5);
    EXPECT_EQ(interp.regs(0).intRegs[4], 3);
    EXPECT_DOUBLE_EQ(interp.regs(0).fpRegs[2], 2.25);
}

TEST(InterpDeath, UnboundLabel)
{
    AsmBuilder b("bad");
    auto l = b.newLabel();
    b.jmp(l);
    b.halt();
    EXPECT_DEATH({ b.finish(); }, "unbound label");
}

} // namespace
} // namespace mpc::kisa
