/**
 * @file
 * Fault-injection scenarios.
 */

#include "check/fault_inject.hh"

#include <ostream>
#include <string>
#include <utility>

#include "check/auditors.hh"
#include "check/golden.hh"
#include "check/snapshot_audit.hh"
#include "core/configcache.hh"
#include "core/tcache.hh"
#include "fabric/config.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "memory/cache.hh"
#include "memory/functional_mem.hh"
#include "ooo/cpu.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"

namespace dynaspam::check
{

namespace
{

/** A fresh pipeline over @p trace, suitable for direct state surgery. */
struct CpuFixture
{
    mem::MemoryHierarchy hierarchy{mem::MemoryHierarchy::Params{}};
    ooo::OooCpu cpu;

    explicit CpuFixture(const isa::DynamicTrace &trace)
        : cpu(ooo::OooParams{}, trace, hierarchy)
    {
    }
};

/** A minimal legal two-instruction fabric configuration:
 *  stripe 0 produces a value that stripe 1 consumes via pass regs. */
fabric::FabricConfig
legalConfig()
{
    fabric::FabricConfig config;
    config.key = 0;
    config.numRecords = 2;
    config.stripesUsed = 2;

    fabric::MappedInst producer;
    producer.op = isa::Opcode::MOVI;
    producer.pe = {0, 0};
    producer.destArch = 1;
    config.insts.push_back(producer);

    fabric::MappedInst consumer;
    consumer.op = isa::Opcode::ADD;
    consumer.pe = {1, 0};
    consumer.src1.kind = fabric::OperandRoute::Kind::PassReg;
    consumer.src1.producerIdx = 0;
    consumer.src2.kind = fabric::OperandRoute::Kind::PassReg;
    consumer.src2.producerIdx = 0;
    consumer.destArch = 2;
    config.insts.push_back(consumer);

    config.liveOuts.push_back({1, 0});
    config.liveOuts.push_back({2, 1});
    return config;
}

} // namespace

bool
FaultInjector::injectRobFault()
{
    isa::Program program("empty");
    isa::DynamicTrace trace(program);
    CpuFixture fx(trace);

    ooo::DynInst first;
    first.seq = 1;
    first.traceIdx = 0;
    ooo::DynInst second;
    second.seq = 2;
    second.traceIdx = 1;
    fx.cpu.rob.push_back(first);
    fx.cpu.rob.push_back(second);

    ViolationSink sink(ViolationSink::Mode::Collect);
    OooAuditor auditor(fx.cpu, sink);
    auditor.auditRob(0);
    if (!sink.empty())
        return false;

    fx.cpu.rob.back().seq = 5;      // tear the age-ordered window
    auditor.auditRob(1);
    return sink.firedFrom("rob");
}

bool
FaultInjector::injectRenameFault()
{
    isa::Program program("empty");
    isa::DynamicTrace trace(program);
    CpuFixture fx(trace);

    ViolationSink sink(ViolationSink::Mode::Collect);
    OooAuditor auditor(fx.cpu, sink);
    auditor.auditRename(0);
    if (!sink.empty())
        return false;

    // Free the same register twice: the classic double-free that makes
    // two later instructions share one physical register.
    fx.cpu.freeList.push_back(fx.cpu.freeList.front());
    auditor.auditRename(1);
    return sink.firedFrom("rename");
}

bool
FaultInjector::injectLsqFault()
{
    isa::ProgramBuilder b("loads");
    b.ld(1, 0, 0);
    b.ld(2, 0, 8);
    b.halt();
    const isa::Program program = b.build();
    isa::DynamicTrace trace(program);
    CpuFixture fx(trace);

    for (SeqNum seq = 1; seq <= 2; seq++) {
        ooo::DynInst d;
        d.seq = seq;
        d.traceIdx = seq - 1;
        d.inst = &program.inst(InstAddr(seq - 1));
        fx.cpu.rob.push_back(d);
        fx.cpu.loadQueue.push_back(seq);
    }

    ViolationSink sink(ViolationSink::Mode::Collect);
    OooAuditor auditor(fx.cpu, sink);
    auditor.auditLsq(0);
    if (!sink.empty())
        return false;

    std::swap(fx.cpu.loadQueue[0], fx.cpu.loadQueue[1]);
    auditor.auditLsq(1);
    return sink.firedFrom("lsq");
}

bool
FaultInjector::injectAtomicityFault()
{
    isa::Program program("empty");
    isa::DynamicTrace trace(program);
    CpuFixture fx(trace);

    // An unresolved in-flight invocation with one allocated live-out.
    const RegIndex phys = fx.cpu.freeList.back();
    fx.cpu.freeList.pop_back();
    fx.cpu.physReadyCycle[phys] = CYCLE_INVALID;
    fx.cpu.invocations.emplace(1).liveOutPhys.push_back(phys);

    ViolationSink sink(ViolationSink::Mode::Collect);
    OooAuditor auditor(fx.cpu, sink);
    auditor.auditAtomicity(0);
    if (!sink.empty())
        return false;

    // The fabric "leaks" the live-out before the fat entry commits.
    fx.cpu.physReadyCycle[phys] = 42;
    auditor.auditAtomicity(1);
    return sink.firedFrom("atomicity");
}

bool
FaultInjector::injectSchedulerFault()
{
    isa::ProgramBuilder b("alu");
    b.movi(1, 5);
    b.halt();
    const isa::Program program = b.build();
    isa::DynamicTrace trace(program);
    CpuFixture fx(trace);

    // One dispatched, ready-to-issue instruction with its single
    // scheduler reference in the matching ready list.
    ooo::DynInst d;
    d.seq = 1;
    d.traceIdx = 0;
    d.inst = &program.inst(0);
    d.inIq = true;
    fx.cpu.rob.push_back(d);
    fx.cpu.iq.push_back(1);
    const unsigned type = unsigned(program.inst(0).fuType());
    fx.cpu.readyByType[type].push_back(1);
    fx.cpu.readyCount = 1;

    ViolationSink sink(ViolationSink::Mode::Collect);
    OooAuditor auditor(fx.cpu, sink);
    auditor.auditScheduler(0);
    if (!sink.empty())
        return false;

    // A stale wakeup left behind by a squash: the ready list names an
    // instruction the ROB no longer holds.
    fx.cpu.readyByType[type].push_back(99);
    fx.cpu.readyCount++;
    auditor.auditScheduler(1);
    return sink.firedFrom("scheduler");
}

bool
FaultInjector::injectTCacheFault()
{
    core::TCache tcache;
    auto &entry = tcache.entries[0];
    entry.valid = true;
    entry.key = 0;
    entry.counter = 1;

    ViolationSink sink(ViolationSink::Mode::Collect);
    StructureAuditor auditor(sink);
    auditor.auditTCache(tcache, 0);
    if (!sink.empty())
        return false;

    entry.hot = true;               // hot while far below the threshold
    auditor.auditTCache(tcache, 1);
    return sink.firedFrom("tcache");
}

bool
FaultInjector::injectConfigCacheFault()
{
    core::ConfigCache cache;
    auto &entry = cache.entries[0];
    entry.valid = true;
    entry.key = 0;
    entry.config =
        std::make_shared<const fabric::FabricConfig>(legalConfig());

    ViolationSink sink(ViolationSink::Mode::Collect);
    StructureAuditor auditor(sink);
    fabric::FabricParams params;
    auditor.auditConfigCache(cache, params, 0);
    if (!sink.empty())
        return false;

    entry.config = nullptr;         // valid entry with nothing behind it
    auditor.auditConfigCache(cache, params, 1);
    return sink.firedFrom("configcache");
}

bool
FaultInjector::injectFrontierFault()
{
    fabric::FabricConfig config = legalConfig();
    fabric::FabricParams params;

    ViolationSink sink(ViolationSink::Mode::Collect);
    auditFabricConfig(config, params, sink, 0);
    if (!sink.empty())
        return false;

    // Point the consumer at itself: dataflow no longer moves forward
    // through the frontier.
    config.insts[1].src1.producerIdx = 1;
    auditFabricConfig(config, params, sink, 1);
    return sink.firedFrom("frontier");
}

bool
FaultInjector::injectGoldenFault()
{
    isa::ProgramBuilder b("tiny");
    b.movi(1, 5);
    b.add(2, 1, 1);
    b.halt();
    const isa::Program program = b.build();

    mem::FunctionalMemory memory;
    isa::DynamicTrace trace(program);
    isa::Executor::run(program, memory, &trace);

    // Clean: in-order commit of the faithful trace passes.
    {
        ViolationSink sink(ViolationSink::Mode::Collect);
        mem::FunctionalMemory initial;
        LockstepChecker checker(trace, initial, sink);
        for (SeqNum i = 0; i < trace.size(); i++)
            checker.onCommit(i, 1, false, i);
        checker.finish(trace.size());
        if (!sink.empty())
            return false;
    }

    // Fault 1: the pipeline commits record 1 before record 0.
    {
        ViolationSink sink(ViolationSink::Mode::Collect);
        mem::FunctionalMemory initial;
        LockstepChecker checker(trace, initial, sink);
        checker.onCommit(1, 1, false, 0);
        if (!sink.firedFrom("golden"))
            return false;
    }

    // Fault 2: the oracle trace itself is wrong (bad branch target).
    {
        isa::DynamicTrace bad(program);
        for (SeqNum i = 0; i < trace.size(); i++) {
            isa::DynRecord rec = trace[i];
            if (i == 1)
                rec.nextPc = 7;
            bad.append(rec);
        }
        ViolationSink sink(ViolationSink::Mode::Collect);
        mem::FunctionalMemory initial;
        LockstepChecker checker(bad, initial, sink);
        for (SeqNum i = 0; i < bad.size(); i++)
            checker.onCommit(i, 1, false, i);
        if (!sink.firedFrom("golden"))
            return false;
    }
    return true;
}

bool
FaultInjector::injectSnapshotFault()
{
    // A short loop so the snapshot catches in-flight pipeline state.
    isa::ProgramBuilder b("snaploop");
    b.movi(1, 0);
    b.movi(2, 8);
    b.label("head");
    b.addi(1, 1, 1);
    b.blt(1, 2, "head");
    b.halt();
    const isa::Program program = b.build();

    mem::FunctionalMemory memory;
    auto input = sim::SimInput::make(program, memory);
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::AccelSpec);

    sim::Simulation source(cfg, input);
    for (int i = 0; i < 20 && !source.done(); i++)
        source.tick();
    sim::Snapshot snap;
    source.snapshot(snap);

    sim::Simulation restored(cfg, input);
    restored.restore(snap);
    sim::Snapshot echo;
    restored.snapshot(echo);

    // Clean: a faithful restore round-trips exactly.
    ViolationSink sink(ViolationSink::Mode::Collect);
    if (!auditSnapshotRoundTrip(snap, echo, sink, source.now()) ||
        !sink.empty())
        return false;

    // The single report must name the diverging member's full path.
    auto namesOnly = [&sink](const std::string &path) {
        return sink.violations().size() == 1 &&
               sink.firedFrom("snapshot") &&
               sink.violations()[0].message.ends_with(" in " + path);
    };

    // Fault 1: a restore that silently lost a pipeline field.
    echo.cpu.curCycle += 1;
    if (auditSnapshotRoundTrip(snap, echo, sink, source.now()) ||
        !namesOnly("cpu.curCycle"))
        return false;

    // Fault 2: a controller-side divergence (stat drift).
    sink.clear();
    restored.snapshot(echo);
    if (!echo.controller)
        return false;
    echo.controller->dstats.tracesConsidered += 1;
    if (auditSnapshotRoundTrip(snap, echo, sink, source.now()))
        return false;
    return namesOnly("controller.dstats.tracesConsidered");
}

bool
runSelfTest(std::ostream &os)
{
    struct Scenario
    {
        const char *name;
        bool (*run)();
    };
    const Scenario scenarios[] = {
        {"rob age-ordering / in-order commit", FaultInjector::injectRobFault},
        {"rename map / free-list partition", FaultInjector::injectRenameFault},
        {"load-store queue ordering", FaultInjector::injectLsqFault},
        {"ROB' fat-commit atomicity", FaultInjector::injectAtomicityFault},
        {"scheduler / ready-list mirror", FaultInjector::injectSchedulerFault},
        {"T-Cache coherence", FaultInjector::injectTCacheFault},
        {"config-cache validity", FaultInjector::injectConfigCacheFault},
        {"frontier scheduling legality", FaultInjector::injectFrontierFault},
        {"golden-model lockstep", FaultInjector::injectGoldenFault},
        {"snapshot restore round-trip", FaultInjector::injectSnapshotFault},
    };

    bool all_ok = true;
    for (const Scenario &s : scenarios) {
        const bool ok = s.run();
        os << (ok ? "PASS" : "FAIL") << "  " << s.name << "\n";
        all_ok &= ok;
    }
    os << (all_ok ? "self-test passed: every auditor caught its "
                    "seeded violation\n"
                  : "SELF-TEST FAILED\n");
    return all_ok;
}

} // namespace dynaspam::check
