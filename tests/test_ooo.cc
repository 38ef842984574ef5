/**
 * @file
 * Integration tests for the out-of-order CPU timing model: basic IPC,
 * dependence stalls, branch misprediction penalties, memory speculation,
 * violation squash/replay, and the hooks interface.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "check/check.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "memory/cache.hh"
#include "memory/functional_mem.hh"
#include "ooo/cpu.hh"
#include "sim/simulation.hh"
#include "workloads/workload.hh"

// Counting replacement of the global allocation functions: every
// operator new in this test binary (array forms forward here) bumps
// heapAllocations, which the cycle-loop allocation test reads.
namespace
{
std::atomic<std::uint64_t> heapAllocations{0};
} // namespace

void *
operator new(std::size_t bytes)
{
    heapAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

// GCC pairs the free() below with the new-expressions it inlines this
// operator into and warns; the pairing is right by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

using namespace dynaspam;
using namespace dynaspam::ooo;
using isa::fpReg;
using isa::intReg;
using isa::Program;
using isa::ProgramBuilder;

namespace
{

struct SimRun
{
    std::unique_ptr<isa::DynamicTrace> trace;
    std::unique_ptr<mem::MemoryHierarchy> hierarchy;
    std::unique_ptr<OooCpu> cpu;
    Cycle cycles = 0;
};

SimRun
simulate(Program &prog, const OooParams &params = OooParams{},
         TraceHooks *hooks = nullptr)
{
    SimRun run;
    mem::FunctionalMemory memory;
    run.trace = std::make_unique<isa::DynamicTrace>(prog);
    isa::Executor::run(prog, memory, run.trace.get());
    run.hierarchy = std::make_unique<mem::MemoryHierarchy>();
    run.cpu = std::make_unique<OooCpu>(params, *run.trace, *run.hierarchy);
    if (hooks)
        run.cpu->setHooks(hooks);
    run.cycles = run.cpu->run();
    return run;
}

/** Straight-line independent adds: should reach high IPC. */
Program
independentAdds(int n)
{
    ProgramBuilder b("indep");
    for (int i = 0; i < n; i++)
        b.addi(intReg(1 + (i % 8)), intReg(10 + (i % 8)), i);
    b.halt();
    return b.build();
}

/** A serial dependence chain: IPC must be ~1 at best. */
Program
dependentChain(int n)
{
    ProgramBuilder b("chain");
    b.movi(intReg(1), 0);
    for (int i = 0; i < n; i++)
        b.addi(intReg(1), intReg(1), 1);
    b.halt();
    return b.build();
}

} // namespace

TEST(OooCpu, CommitsEveryInstructionExactlyOnce)
{
    Program p = independentAdds(100);
    auto run = simulate(p);
    EXPECT_EQ(run.cpu->stats().committedInsts, 101u);   // adds + halt
    EXPECT_TRUE(run.cpu->done());
}

TEST(OooCpu, IndependentInstsReachSuperscalarIpc)
{
    // Long enough to amortize the one cold I-cache miss at startup.
    Program p = independentAdds(4000);
    auto run = simulate(p);
    double ipc = double(run.cpu->stats().committedInsts) / run.cycles;
    // 8-wide machine with 4 int ALUs: ALU throughput caps IPC at 4.
    EXPECT_GT(ipc, 3.0);
    EXPECT_LE(ipc, 4.5);
}

TEST(OooCpu, DependenceChainLimitsIpcToOne)
{
    Program p = dependentChain(800);
    auto run = simulate(p);
    double ipc = double(run.cpu->stats().committedInsts) / run.cycles;
    EXPECT_LT(ipc, 1.2);
    EXPECT_GT(ipc, 0.7);
}

TEST(OooCpu, ChainRunsSlowerThanIndependent)
{
    Program pi = independentAdds(600);
    Program pc = dependentChain(600);
    auto ri = simulate(pi);
    auto rc = simulate(pc);
    EXPECT_LT(ri.cycles * 2, rc.cycles);
}

TEST(OooCpu, PredictableLoopBranchesMostlyHit)
{
    ProgramBuilder b("loop");
    b.movi(intReg(1), 0);
    b.movi(intReg(2), 500);
    b.label("head");
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "head");
    b.halt();
    Program p = b.build();

    auto run = simulate(p);
    const auto &s = run.cpu->stats();
    // 500 executions of the backward branch; after warmup nearly all
    // should predict correctly.
    EXPECT_LT(s.branchMispredicts, 20u);
}

TEST(OooCpu, RandomBranchesMispredictOften)
{
    // Branch on the low bit of a xorshift-ish sequence: unpredictable.
    ProgramBuilder b("rand");
    b.movi(intReg(1), 0);        // i
    b.movi(intReg(2), 400);      // trip count
    b.movi(intReg(3), 123456789);// state
    b.movi(intReg(7), 0);
    b.label("head");
    // state = state * 1103515245 + 12345 (mod 2^64)
    b.movi(intReg(4), 1103515245);
    b.mul(intReg(3), intReg(3), intReg(4));
    b.addi(intReg(3), intReg(3), 12345);
    b.shri(intReg(5), intReg(3), 16);
    b.andi(intReg(5), intReg(5), 1);
    b.beq(intReg(5), intReg(7), "skip");
    b.addi(intReg(6), intReg(6), 1);
    b.label("skip");
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "head");
    b.halt();
    Program p = b.build();

    auto run = simulate(p);
    // ~400 data-dependent branches: expect a sizable misprediction count.
    EXPECT_GT(run.cpu->stats().branchMispredicts, 60u);
}

TEST(OooCpu, MispredictsCostCycles)
{
    // Same loop body; one version uses a highly biased branch, the other
    // an unpredictable one. The unpredictable one must take longer.
    auto makeLoop = [](bool predictable) {
        ProgramBuilder b(predictable ? "pred" : "unpred");
        b.movi(intReg(1), 0);
        b.movi(intReg(2), 300);
        b.movi(intReg(3), 99991);
        b.movi(intReg(7), 0);
        b.label("head");
        b.movi(intReg(4), 6364136223846793005LL);
        b.mul(intReg(3), intReg(3), intReg(4));
        b.addi(intReg(3), intReg(3), 1442695040888963407LL);
        b.shri(intReg(5), intReg(3), 33);
        if (predictable)
            b.andi(intReg(5), intReg(5), 0);   // always 0
        else
            b.andi(intReg(5), intReg(5), 1);   // random 0/1
        b.beq(intReg(5), intReg(7), "skip");
        b.addi(intReg(6), intReg(6), 1);
        b.label("skip");
        b.addi(intReg(1), intReg(1), 1);
        b.blt(intReg(1), intReg(2), "head");
        b.halt();
        return b.build();
    };

    Program pp = makeLoop(true);
    Program pu = makeLoop(false);
    auto rp = simulate(pp);
    auto ru = simulate(pu);
    EXPECT_LT(rp.cycles, ru.cycles);
}

TEST(OooCpu, StoreToLoadForwardingIsFasterThanCache)
{
    // Loop: store then immediately load the same address.
    ProgramBuilder b("fwd");
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(2), 0);
    b.movi(intReg(3), 200);
    b.label("head");
    b.st(intReg(1), intReg(2), 0);
    b.ld(intReg(4), intReg(1), 0);
    b.add(intReg(2), intReg(2), intReg(4));
    b.addi(intReg(2), intReg(2), 1);
    b.addi(intReg(5), intReg(5), 1);
    b.blt(intReg(5), intReg(3), "head");
    b.halt();
    Program p = b.build();

    auto run = simulate(p);
    EXPECT_GT(run.cpu->stats().loadForwards, 150u);
}

TEST(OooCpu, ForwardingIgnoresSameLineDifferentAddressStores)
{
    // A younger same-cacheline store at a different address must neither
    // forward to the load nor end the reverse search before the older
    // exact-address store is found. Pins the partial-overlap semantics of
    // the line-indexed store scan.
    ProgramBuilder b("overlap");
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(2), 7);
    b.movi(intReg(3), 9);
    b.st(intReg(1), intReg(2), 0);   // exact-address producer
    b.st(intReg(1), intReg(3), 8);   // same 64B line, different address
    b.ld(intReg(4), intReg(1), 0);   // must forward the value of the first
    b.halt();
    Program p = b.build();

    auto run = simulate(p);
    EXPECT_EQ(run.cpu->stats().loadForwards, 1u);
    EXPECT_EQ(run.cpu->stats().committedInsts, 7u);
}

TEST(OooCpu, NoForwardingFromSameLineDifferentAddress)
{
    // Only a same-line neighbour exists: the load must read the cache,
    // not forward from the overlapping line.
    ProgramBuilder b("noforward");
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(3), 9);
    b.st(intReg(1), intReg(3), 8);   // same line as the load, +8 bytes
    b.ld(intReg(4), intReg(1), 0);
    b.halt();
    Program p = b.build();

    auto run = simulate(p);
    EXPECT_EQ(run.cpu->stats().loadForwards, 0u);
}

TEST(OooCpu, MemorySpeculationDetectsViolations)
{
    // Pointer-chasing store followed by aliasing load: the store address
    // depends on a long-latency computation while the load's address is
    // ready immediately, so a speculative load can bypass the store.
    ProgramBuilder b("alias");
    b.movi(intReg(1), 0x1000);   // base
    b.movi(intReg(8), 1);        // divisor for delay
    b.movi(intReg(5), 0);        // i
    b.movi(intReg(6), 100);      // trips
    b.label("head");
    // Slow computation of the store address (always base+0).
    b.div(intReg(2), intReg(1), intReg(8));
    b.div(intReg(2), intReg(2), intReg(8));
    b.st(intReg(2), intReg(5), 0);       // store to base
    b.ld(intReg(4), intReg(1), 0);       // aliasing load from base
    b.add(intReg(7), intReg(7), intReg(4));
    b.addi(intReg(5), intReg(5), 1);
    b.blt(intReg(5), intReg(6), "head");
    b.halt();
    Program p = b.build();

    OooParams params;
    params.memorySpeculation = true;
    auto run = simulate(p, params);
    const auto &s = run.cpu->stats();
    // At least one violation must occur before the store-set predictor
    // learns to synchronize the pair.
    EXPECT_GE(s.memOrderViolations, 1u);
    // But the predictor must learn: violations far fewer than trips.
    EXPECT_LT(s.memOrderViolations, 50u);
    EXPECT_GT(s.squashedInsts, 0u);
}

TEST(OooCpu, NoSpeculationMeansNoViolations)
{
    ProgramBuilder b("alias2");
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(8), 1);
    b.movi(intReg(5), 0);
    b.movi(intReg(6), 50);
    b.label("head");
    b.div(intReg(2), intReg(1), intReg(8));
    b.st(intReg(2), intReg(5), 0);
    b.ld(intReg(4), intReg(1), 0);
    b.addi(intReg(5), intReg(5), 1);
    b.blt(intReg(5), intReg(6), "head");
    b.halt();
    Program p = b.build();

    OooParams params;
    params.memorySpeculation = false;
    auto run = simulate(p, params);
    EXPECT_EQ(run.cpu->stats().memOrderViolations, 0u);
    EXPECT_EQ(run.cpu->stats().squashedInsts, 0u);
}

TEST(OooCpu, SpeculationHelpsAliasFreeMemoryCode)
{
    // Stores and loads to disjoint addresses, with store addresses
    // computed slowly: speculation lets loads proceed.
    auto makeProg = []() {
        ProgramBuilder b("disjoint");
        b.movi(intReg(1), 0x1000);   // store region
        b.movi(intReg(9), 0x8000);   // load region
        b.movi(intReg(8), 1);
        b.movi(intReg(5), 0);
        b.movi(intReg(6), 150);
        b.label("head");
        b.div(intReg(2), intReg(1), intReg(8));
        b.st(intReg(2), intReg(5), 0);
        b.ld(intReg(4), intReg(9), 0);
        b.add(intReg(7), intReg(7), intReg(4));
        b.addi(intReg(5), intReg(5), 1);
        b.blt(intReg(5), intReg(6), "head");
        b.halt();
        return b.build();
    };

    Program p1 = makeProg();
    OooParams spec;
    spec.memorySpeculation = true;
    auto rs = simulate(p1, spec);

    Program p2 = makeProg();
    OooParams nospec;
    nospec.memorySpeculation = false;
    auto rn = simulate(p2, nospec);

    EXPECT_LT(rs.cycles, rn.cycles);
    EXPECT_EQ(rs.cpu->stats().memOrderViolations, 0u);
}

TEST(OooCpu, LongLatencyDividerSerializes)
{
    ProgramBuilder b("divs");
    b.movi(intReg(1), 1000);
    b.movi(intReg(2), 3);
    for (int i = 0; i < 50; i++)
        b.div(intReg(3 + (i % 4)), intReg(1), intReg(2));
    b.halt();
    Program p = b.build();

    auto run = simulate(p);
    // One unpipelined divider with 12-cycle latency: ~600 cycles minimum.
    EXPECT_GT(run.cycles, 550u);
}

TEST(OooCpu, CacheMissesStallLoads)
{
    // Strided loads with 4KB stride: every access is a fresh block and,
    // with 512-set L1D, conflicts recur -> many misses.
    ProgramBuilder b("stride");
    b.movi(intReg(1), 0x100000);
    b.movi(intReg(5), 0);
    b.movi(intReg(6), 100);
    b.label("head");
    b.ld(intReg(4), intReg(1), 0);
    b.add(intReg(7), intReg(7), intReg(4));
    b.addi(intReg(1), intReg(1), 4096);
    b.addi(intReg(5), intReg(5), 1);
    b.blt(intReg(5), intReg(6), "head");
    b.halt();
    Program p = b.build();

    auto run = simulate(p);
    EXPECT_GT(run.hierarchy->l1d().misses(), 90u);
}

TEST(OooCpu, StatsExportContainsKeyCounters)
{
    Program p = independentAdds(50);
    auto run = simulate(p);
    StatRegistry reg;
    run.cpu->exportStats(reg);
    EXPECT_EQ(reg.get("ooo.committedInsts"), 51u);
    EXPECT_GT(reg.get("ooo.cycles"), 0u);
    EXPECT_GT(reg.get("ooo.issuedInsts"), 0u);
    EXPECT_GT(reg.get("ooo.regWrites"), 0u);
}

// --- Hooks interface ---

namespace
{

/** Hooks that count fetch consultations and branch commits. */
class CountingHooks : public TraceHooks
{
  public:
    FetchDirective
    beforeFetch(SeqNum, Cycle) override
    {
        fetchCalls++;
        return {};
    }

    void
    onCommitControl(InstAddr pc, bool taken, SeqNum, Cycle) override
    {
        commitCalls++;
        lastPc = pc;
        lastTaken = taken;
    }

    std::uint64_t fetchCalls = 0;
    std::uint64_t commitCalls = 0;
    InstAddr lastPc = 0;
    bool lastTaken = false;
};

} // namespace

TEST(OooCpuHooks, BeforeFetchConsultedPerRecord)
{
    Program p = independentAdds(20);
    CountingHooks hooks;
    auto run = simulate(p, OooParams{}, &hooks);
    // Every record is consulted at least once; fetch retries after an
    // I-cache miss consult the same record again, so >= not ==.
    EXPECT_GE(hooks.fetchCalls, 21u);
    EXPECT_LE(hooks.fetchCalls, 42u);
}

TEST(OooCpuHooks, ControlCommitsReported)
{
    ProgramBuilder b("loop");
    b.movi(intReg(1), 0);
    b.movi(intReg(2), 10);
    b.label("head");
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "head");
    b.halt();
    Program p = b.build();

    CountingHooks hooks;
    auto run = simulate(p, OooParams{}, &hooks);
    EXPECT_EQ(hooks.commitCalls, 10u);      // 10 branch executions
    EXPECT_EQ(hooks.lastPc, 3u);            // the blt (after 2 movi, 1 addi)
    EXPECT_FALSE(hooks.lastTaken);          // final iteration falls through
}

// --- Heap traffic of the cycle loop ---

namespace
{

/** Heap allocations per simulated cycle over the @p window ticks that
 *  follow a @p warm-tick warm-up, summed over every workload. */
double
allocationsPerCycle(sim::SystemMode mode, std::uint64_t warm,
                    std::uint64_t window)
{
    std::uint64_t allocations = 0;
    std::uint64_t cycles = 0;
    for (const std::string &name : workloads::allWorkloadNames()) {
        workloads::Workload wl = workloads::makeWorkload(name, 1);
        auto input = sim::SimInput::make(wl.program, wl.initialMemory);
        sim::Simulation simulation(sim::SystemConfig::make(mode), input);
        for (std::uint64_t i = 0; i < warm && !simulation.done(); i++)
            simulation.tick();
        const std::uint64_t before = heapAllocations.load();
        std::uint64_t ticks = 0;
        for (; ticks < window && !simulation.done(); ticks++)
            simulation.tick();
        const std::uint64_t made = heapAllocations.load() - before;
        std::printf("  %-6s %-12s %6.3f allocations/cycle over %llu\n",
                    name.c_str(), sim::modeName(mode),
                    ticks ? double(made) / double(ticks) : 0.0,
                    (unsigned long long)ticks);
        allocations += made;
        cycles += ticks;
    }
    return cycles ? double(allocations) / double(cycles) : 0.0;
}

} // namespace

// The pipeline queues are rings and the LSQ scans walk them, so once
// warm the host pipeline allocates nothing per cycle; what remains in
// the fabric modes is the controller's rare mapping-phase work. (With
// the ROB and front end as deques, LSQ hash indexes and per-invocation
// copies, the same windows made 1.27 and 2.17 allocations per cycle.)
TEST(OooCpuAllocations, SteadyStateCycleLoopAllocatesNothing)
{
    if (check::enabled())
        GTEST_SKIP() << "the invariant auditors allocate per cycle";
    const double baseline =
        allocationsPerCycle(sim::SystemMode::BaselineOoo, 40000, 20000);
    const double accel =
        allocationsPerCycle(sim::SystemMode::AccelSpec, 40000, 20000);
    std::printf("baseline-ooo %.4f, accel-spec %.4f allocations/cycle\n",
                baseline, accel);
    EXPECT_LT(baseline, 0.01);
    EXPECT_LT(accel, 2.17 / 3);
}
