/**
 * @file
 * Tests for the verification subsystem (src/check): the golden-model
 * interpreter, the lockstep checker, the invariant auditors via the
 * fault-injection scenarios, and the full verifier attached to an
 * offloading pipeline run.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "check/check.hh"
#include "check/fault_inject.hh"
#include "check/golden.hh"
#include "check/verifier.hh"
#include "core/controller.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "memory/cache.hh"
#include "memory/functional_mem.hh"
#include "ooo/cpu.hh"

using namespace dynaspam;
using isa::intReg;

namespace
{

/** The same hot loop the system tests use: detects, maps, offloads. */
isa::Program
hotLoop(int trips)
{
    isa::ProgramBuilder b("hotloop");
    b.movi(intReg(1), 0);           // i
    b.movi(intReg(2), trips);       // n
    b.movi(intReg(3), 0x10000);     // src array
    b.movi(intReg(4), 0x40000);     // dst array
    b.movi(intReg(7), 0);           // never-equal guard
    b.movi(intReg(8), 0);           // acc
    b.label("head");
    b.beq(intReg(7), intReg(2), "skip1");
    b.ld(intReg(9), intReg(3), 0);
    b.label("skip1");
    b.beq(intReg(7), intReg(2), "skip2");
    b.mul(intReg(10), intReg(9), intReg(9));
    b.add(intReg(8), intReg(8), intReg(10));
    b.st(intReg(4), intReg(8), 0);
    b.label("skip2");
    b.addi(intReg(3), intReg(3), 8);
    b.addi(intReg(4), intReg(4), 8);
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "head");
    b.halt();
    return b.build();
}

} // namespace

// --- ViolationSink -----------------------------------------------------------

TEST(ViolationSink, CollectModeAccumulates)
{
    check::ViolationSink sink(check::ViolationSink::Mode::Collect);
    EXPECT_TRUE(sink.empty());
    sink.report("rob", 7, "first");
    sink.report("rename", 9, "second");
    ASSERT_EQ(sink.violations().size(), 2u);
    EXPECT_TRUE(sink.firedFrom("rob"));
    EXPECT_TRUE(sink.firedFrom("rename"));
    EXPECT_FALSE(sink.firedFrom("lsq"));
    EXPECT_EQ(sink.violations()[0].cycle, 7u);
    sink.clear();
    EXPECT_TRUE(sink.empty());
}

// --- Golden model ------------------------------------------------------------

TEST(GoldenModel, AgreesWithExecutorOnEveryRecord)
{
    // The golden model is an independent implementation of the ISA;
    // step it over a whole program and diff against the oracle trace
    // the functional executor produced.
    isa::Program p = hotLoop(50);
    mem::FunctionalMemory memory;
    isa::DynamicTrace trace(p);
    isa::Executor::run(p, memory, &trace);
    ASSERT_GT(trace.size(), 0u);

    mem::FunctionalMemory initial;
    check::GoldenModel golden(p, initial);
    for (SeqNum i = 0; i < trace.size(); i++) {
        const isa::DynRecord &rec = trace[i];
        ASSERT_EQ(golden.pc(), rec.pc) << "record " << i;
        const check::GoldenEffect eff = golden.step();
        EXPECT_EQ(eff.nextPc, rec.nextPc) << "record " << i;
        if (p.inst(rec.pc).isMem()) {
            EXPECT_EQ(eff.effAddr, rec.effAddr) << "record " << i;
        }
        if (p.inst(rec.pc).isControl()) {
            EXPECT_EQ(eff.taken, rec.taken) << "record " << i;
        }
    }
    EXPECT_TRUE(golden.halted());
}

TEST(GoldenModel, SignedDivisionOverflowMatchesRiscV)
{
    // INT64_MIN / -1 and INT64_MIN % -1 overflow in C++ (a SIGFPE trap
    // on x86). Both models define them as RISC-V does: quotient
    // INT64_MIN, remainder 0. Division by zero stays 0.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    isa::ProgramBuilder b("divoverflow");
    b.movi(intReg(1), kMin);
    b.movi(intReg(2), -1);
    b.movi(intReg(3), 0);
    b.movi(intReg(4), 0x10000);
    b.div(intReg(5), intReg(1), intReg(2));
    b.rem(intReg(6), intReg(1), intReg(2));
    b.div(intReg(7), intReg(1), intReg(3));
    b.rem(intReg(8), intReg(1), intReg(3));
    b.movi(intReg(9), 7);
    b.div(intReg(10), intReg(9), intReg(2));
    b.st(intReg(4), intReg(5), 0);
    b.st(intReg(4), intReg(6), 8);
    b.st(intReg(4), intReg(7), 16);
    b.st(intReg(4), intReg(8), 24);
    b.st(intReg(4), intReg(10), 32);
    b.halt();
    isa::Program p = b.build();

    const std::uint64_t expected[] = {std::uint64_t(kMin), 0, 0, 0,
                                      std::uint64_t(-7)};
    mem::FunctionalMemory memory;
    isa::Executor::run(p, memory);
    for (unsigned i = 0; i < 5; i++)
        EXPECT_EQ(memory.read64(0x10000 + 8 * i), expected[i])
            << "executor store " << i;

    mem::FunctionalMemory initial;
    check::GoldenModel golden(p, initial);
    while (!golden.halted())
        golden.step();
    EXPECT_EQ(golden.reg(intReg(5)), expected[0]);
    EXPECT_EQ(golden.reg(intReg(6)), expected[1]);
    EXPECT_EQ(golden.reg(intReg(7)), expected[2]);
    EXPECT_EQ(golden.reg(intReg(8)), expected[3]);
    EXPECT_EQ(golden.reg(intReg(10)), expected[4]);
}

TEST(LockstepChecker, CleanRunReportsNothing)
{
    isa::Program p = hotLoop(20);
    mem::FunctionalMemory memory;
    isa::DynamicTrace trace(p);
    isa::Executor::run(p, memory, &trace);

    check::ViolationSink sink(check::ViolationSink::Mode::Collect);
    mem::FunctionalMemory initial;
    check::LockstepChecker checker(trace, initial, sink);
    for (SeqNum i = 0; i < trace.size(); i++)
        checker.onCommit(i, 1, false, i);
    checker.finish(trace.size());
    EXPECT_TRUE(sink.empty());
    EXPECT_EQ(checker.commitsChecked(), trace.size());
}

TEST(LockstepChecker, TruncatedRunIsDivergence)
{
    isa::Program p = hotLoop(20);
    mem::FunctionalMemory memory;
    isa::DynamicTrace trace(p);
    isa::Executor::run(p, memory, &trace);

    check::ViolationSink sink(check::ViolationSink::Mode::Collect);
    mem::FunctionalMemory initial;
    check::LockstepChecker checker(trace, initial, sink);
    checker.onCommit(0, 1, false, 0);
    checker.finish(1);  // run "ended" after a single commit
    EXPECT_TRUE(sink.firedFrom("golden"));
}

TEST(LockstepChecker, DumpWindowListsRecentCommits)
{
    isa::Program p = hotLoop(20);
    mem::FunctionalMemory memory;
    isa::DynamicTrace trace(p);
    isa::Executor::run(p, memory, &trace);

    check::ViolationSink sink(check::ViolationSink::Mode::Collect);
    mem::FunctionalMemory initial;
    check::LockstepChecker checker(trace, initial, sink);
    for (SeqNum i = 0; i < 10; i++)
        checker.onCommit(i, 1, false, i);
    std::ostringstream os;
    checker.dumpWindow(os);
    EXPECT_NE(os.str().find("[9]"), std::string::npos);
}

// --- Fault injection: every auditor must catch its seeded violation ----------

TEST(FaultInjection, RobAuditorFires)
{
    EXPECT_TRUE(check::FaultInjector::injectRobFault());
}

TEST(FaultInjection, RenameAuditorFires)
{
    EXPECT_TRUE(check::FaultInjector::injectRenameFault());
}

TEST(FaultInjection, LsqAuditorFires)
{
    EXPECT_TRUE(check::FaultInjector::injectLsqFault());
}

TEST(FaultInjection, AtomicityAuditorFires)
{
    EXPECT_TRUE(check::FaultInjector::injectAtomicityFault());
}

TEST(FaultInjection, TCacheAuditorFires)
{
    EXPECT_TRUE(check::FaultInjector::injectTCacheFault());
}

TEST(FaultInjection, ConfigCacheAuditorFires)
{
    EXPECT_TRUE(check::FaultInjector::injectConfigCacheFault());
}

TEST(FaultInjection, FrontierAuditorFires)
{
    EXPECT_TRUE(check::FaultInjector::injectFrontierFault());
}

TEST(FaultInjection, GoldenCheckerFires)
{
    EXPECT_TRUE(check::FaultInjector::injectGoldenFault());
}

TEST(FaultInjection, SelfTestPasses)
{
    std::ostringstream os;
    EXPECT_TRUE(check::runSelfTest(os));
    EXPECT_NE(os.str().find("PASS"), std::string::npos);
    EXPECT_EQ(os.str().find("FAIL  "), std::string::npos);
}

// --- Full verifier over a real offloading run --------------------------------

TEST(Verifier, CleanAcceleratedRunPassesAllChecks)
{
    isa::Program p = hotLoop(2000);

    mem::FunctionalMemory memory;
    isa::DynamicTrace trace(p);
    auto func = isa::Executor::run(p, memory, &trace);
    ASSERT_TRUE(func.halted);

    mem::MemoryHierarchy hierarchy{mem::MemoryHierarchy::Params{}};
    ooo::OooCpu cpu(ooo::OooParams{}, trace, hierarchy);
    core::DynaSpamParams dparams;
    core::DynaSpamController controller(dparams, trace,
                                        cpu.branchPredictor(),
                                        cpu.storeSetPredictor(), hierarchy);
    cpu.setHooks(&controller);

    check::ViolationSink sink(check::ViolationSink::Mode::Collect);
    mem::FunctionalMemory initial;
    check::Verifier verifier(cpu, trace, initial, &controller, sink);
    cpu.setCommitObserver(&verifier);

    const Cycle cycles = cpu.run();
    verifier.finish(cycles);

    for (const check::Violation &v : sink.violations())
        ADD_FAILURE() << "[" << v.auditor << "] cycle " << v.cycle << ": "
                      << v.message;
    EXPECT_TRUE(sink.empty());
    EXPECT_EQ(verifier.lockstepChecker().commitsChecked(), trace.size());
    EXPECT_GT(verifier.auditPasses(), 0u);
    EXPECT_GT(verifier.structurePasses(), 0u);
    // The run must actually exercise the fabric path for the lockstep
    // equivalence claim to mean anything.
    EXPECT_GT(cpu.stats().invocationsCommitted, 0u);
}

TEST(Verifier, BaselineRunPassesWithoutController)
{
    isa::Program p = hotLoop(300);

    mem::FunctionalMemory memory;
    isa::DynamicTrace trace(p);
    isa::Executor::run(p, memory, &trace);

    mem::MemoryHierarchy hierarchy{mem::MemoryHierarchy::Params{}};
    ooo::OooCpu cpu(ooo::OooParams{}, trace, hierarchy);

    check::ViolationSink sink(check::ViolationSink::Mode::Collect);
    mem::FunctionalMemory initial;
    check::Verifier verifier(cpu, trace, initial, nullptr, sink);
    cpu.setCommitObserver(&verifier);

    const Cycle cycles = cpu.run();
    verifier.finish(cycles);
    EXPECT_TRUE(sink.empty());
    EXPECT_EQ(verifier.lockstepChecker().commitsChecked(), trace.size());
}
