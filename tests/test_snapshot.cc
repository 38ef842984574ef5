/**
 * @file
 * Snapshot/fork correctness: the tentpole invariant is that
 * snapshot -> restore -> run is BYTE-identical to running straight
 * through. These tests pin that for every workload on both the host
 * pipeline and the DynaSpAM-accelerated configuration, at
 * mid-invocation boundaries, across fork divergence (including fabric
 * pools of different sizes), and for the sampled fidelity tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hh"
#include "check/snapshot_audit.hh"
#include "common/logging.hh"
#include "fabric/config.hh"
#include "isa/inst.hh"
#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/snapshot_io.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace dynaspam;

namespace
{

std::shared_ptr<const sim::SimInput>
inputFor(const std::string &workload, unsigned scale = 1)
{
    workloads::Workload wl = workloads::makeWorkload(workload, scale);
    return sim::SimInput::make(wl.program, wl.initialMemory);
}

std::string
resultBytes(sim::RunResult result)
{
    // commitsChecked varies with DYNASPAM_CHECK settings in checked CI
    // configurations; everything else must match bit-for-bit.
    result.commitsChecked = 0;
    return runner::resultToJson(result).dump();
}

std::string
runStraight(const sim::SystemConfig &cfg,
            std::shared_ptr<const sim::SimInput> input)
{
    sim::Simulation simu(cfg, std::move(input));
    simu.runToCompletion();
    return resultBytes(simu.collectResult());
}

/** Run with a snapshot taken mid-flight, restore it into a fresh
 *  simulation, finish both, and return (continued, restored) bytes. */
std::pair<std::string, std::string>
runWithSnapshotAt(const sim::SystemConfig &cfg,
                  std::shared_ptr<const sim::SimInput> input,
                  std::uint64_t snap_insts)
{
    sim::Simulation simu(cfg, input);
    while (!simu.done() && simu.committedInsts() < snap_insts)
        simu.tick();
    sim::Snapshot snap;
    simu.snapshot(snap);

    simu.runToCompletion();
    std::string continued = resultBytes(simu.collectResult());

    sim::Simulation restored(cfg, std::move(input));
    restored.restore(snap);
    restored.runToCompletion();
    std::string forked = resultBytes(restored.collectResult());
    return {continued, forked};
}

} // namespace

TEST(Snapshot, RestoreRunIsByteIdenticalEverywhere)
{
    for (const std::string &workload : workloads::allWorkloadNames()) {
        for (sim::SystemMode mode :
             {sim::SystemMode::BaselineOoo, sim::SystemMode::AccelSpec}) {
            const sim::SystemConfig cfg = sim::SystemConfig::make(mode);
            auto input = inputFor(workload);
            const std::string straight = runStraight(cfg, input);
            const std::uint64_t mid = input->trace().size() / 2;
            auto [continued, forked] =
                runWithSnapshotAt(cfg, input, mid);
            EXPECT_EQ(continued, straight)
                << workload << "/" << sim::modeName(mode)
                << ": taking a snapshot perturbed the run";
            EXPECT_EQ(forked, straight)
                << workload << "/" << sim::modeName(mode)
                << ": snapshot->restore->run diverged";
        }
    }
}

TEST(Snapshot, MidInvocationBoundariesRestoreExactly)
{
    // knn offloads most of its instructions, so snapshots at arbitrary
    // commit counts land inside/around in-flight fabric invocations.
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::AccelSpec);
    auto input = inputFor("knn");
    const std::string straight = runStraight(cfg, input);
    const std::uint64_t total = input->trace().size();
    for (std::uint64_t frac : {1ull, 3ull, 5ull, 7ull}) {
        auto [continued, forked] =
            runWithSnapshotAt(cfg, input, total * frac / 8);
        EXPECT_EQ(continued, straight) << "boundary at " << frac << "/8";
        EXPECT_EQ(forked, straight) << "boundary at " << frac << "/8";
    }
}

TEST(Snapshot, RestoreAcrossInputsIsFatal)
{
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::BaselineOoo);
    auto a = inputFor("bfs");
    auto b = inputFor("bfs");    // same workload, different object
    sim::Simulation source(cfg, a);
    sim::Snapshot snap;
    source.snapshot(snap);
    sim::Simulation other(cfg, b);
    EXPECT_THROW(other.restore(snap), FatalError);
}

TEST(Snapshot, ForkedSweepMatchesStraightThrough)
{
    // A fig8-style group (4 modes, shared warmup) plus a cross-pool
    // pair (1 vs 4 fabrics): the forked runner path must reproduce the
    // straight-through report entries byte-for-byte, including the
    // cache bookkeeping counters.
    std::vector<runner::Job> jobs;
    for (sim::SystemMode mode :
         {sim::SystemMode::BaselineOoo, sim::SystemMode::MappingOnly,
          sim::SystemMode::AccelNoSpec, sim::SystemMode::AccelSpec}) {
        runner::Job job;
        job.workload = "bfs";
        job.mode = mode;
        job.warmupInsts = 60000;
        jobs.push_back(job);
    }
    {
        runner::Job job;
        job.workload = "knn";
        job.mode = sim::SystemMode::AccelSpec;
        job.numFabrics = 4;
        job.warmupInsts = 40000;
        jobs.push_back(job);
        job.numFabrics = 1;
        jobs.push_back(job);
    }

    runner::RunnerOptions forkOpts;
    forkOpts.jobs = 2;
    runner::Runner forked(forkOpts);
    auto forkedOut = forked.runAll(jobs);

    runner::RunnerOptions straightOpts;
    straightOpts.jobs = 2;
    straightOpts.forkSweeps = false;
    runner::Runner straight(straightOpts);
    auto straightOut = straight.runAll(jobs);

    ASSERT_EQ(forkedOut.size(), straightOut.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(runner::sweepEntryJson(forkedOut[i]).dump(),
                  runner::sweepEntryJson(straightOut[i]).dump())
            << jobs[i].key();
    }
    for (const char *counter :
         {"runner.jobs_total", "runner.cache_hits", "runner.cache_misses",
          "runner.jobs_executed"}) {
        EXPECT_EQ(forked.stats().get(counter), straight.stats().get(counter))
            << counter;
    }
}

TEST(SnapshotIo, SerializedForkMatchesInProcessForkEverywhere)
{
    // The on-disk round trip must be invisible: serializing the warmed
    // snapshot, deserializing it against a FRESH SimInput (as a restarted
    // process or a cluster worker would), and forking from the decoded
    // copy has to produce the same bytes as forking from the in-memory
    // snapshot — for every workload, host pipeline and fabric config.
    // The host-only no-speculation pipeline keeps state (the store
    // queue bound) that the speculating ones leave at its default.
    std::vector<std::pair<std::string, sim::SystemConfig>> configs;
    for (sim::SystemMode mode :
         {sim::SystemMode::BaselineOoo, sim::SystemMode::AccelSpec})
        configs.emplace_back(sim::modeName(mode),
                             sim::SystemConfig::make(mode));
    configs.emplace_back(
        "baseline-ooo/no-memspec",
        sim::SystemConfig::make(sim::SystemMode::BaselineOoo));
    configs.back().second.ooo.memorySpeculation = false;

    for (const std::string &workload : workloads::allWorkloadNames()) {
        for (const auto &[name, cfg] : configs) {
            auto input = inputFor(workload);
            const std::uint64_t mid = input->trace().size() / 2;

            sim::Simulation warm(cfg, input);
            while (!warm.done() && warm.committedInsts() < mid)
                warm.tick();
            sim::Snapshot snap;
            warm.snapshot(snap);

            sim::Simulation direct(cfg, input);
            direct.restore(snap);
            direct.runToCompletion();
            const std::string inProcess = resultBytes(direct.collectResult());

            std::string bytes;
            sim::serializeSnapshot(snap, bytes);
            // A fresh input object, as a restarted process would build.
            auto rebuilt = inputFor(workload);
            ASSERT_EQ(sim::simInputIdentityHash(*input),
                      sim::simInputIdentityHash(*rebuilt));
            sim::Snapshot decoded;
            ASSERT_TRUE(sim::deserializeSnapshot(bytes, rebuilt, decoded))
                << workload << "/" << name;

            sim::Simulation fresh(cfg, rebuilt);
            fresh.restore(decoded);
            fresh.runToCompletion();
            EXPECT_EQ(resultBytes(fresh.collectResult()), inProcess)
                << workload << "/" << name
                << ": on-disk snapshot round trip diverged";

            // Decoded against the SAME input, the state must equal the
            // source member for member: a member a State declares but
            // its fields() omits is dropped by the file, and shows up
            // here by name.
            sim::Snapshot same;
            ASSERT_TRUE(sim::deserializeSnapshot(bytes, input, same));
            check::ViolationSink sink(check::ViolationSink::Mode::Collect);
            EXPECT_TRUE(check::auditSnapshotRoundTrip(snap, same, sink, 0))
                << workload << "/" << name << ": "
                << (sink.empty() ? "" : sink.violations()[0].message);
        }
    }
}

TEST(SnapshotIo, CorruptBytesFallBackCleanly)
{
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::AccelSpec);
    auto input = inputFor("bfs");
    sim::Simulation warm(cfg, input);
    while (!warm.done() && warm.committedInsts() < 20000)
        warm.tick();
    sim::Snapshot snap;
    warm.snapshot(snap);
    std::string bytes;
    sim::serializeSnapshot(snap, bytes);

    // Pristine bytes decode.
    {
        sim::Snapshot out;
        EXPECT_TRUE(sim::deserializeSnapshot(bytes, input, out));
    }
    // Every truncation point fails soft — returns false, never crashes.
    for (std::size_t len : {std::size_t(0), std::size_t(1),
                            bytes.size() / 4, bytes.size() / 2,
                            bytes.size() - 1}) {
        sim::Snapshot out;
        EXPECT_FALSE(
            sim::deserializeSnapshot(bytes.substr(0, len), input, out))
            << "truncated to " << len << " bytes";
    }
    // Bit flips across the buffer either decode to the same state or
    // fail soft; what they must never do is crash. Flip a spread of
    // bytes including trace indices and container lengths.
    for (std::size_t pos = 0; pos < bytes.size();
         pos += bytes.size() / 64 + 1) {
        std::string corrupt = bytes;
        corrupt[pos] ^= 0xff;
        sim::Snapshot out;
        (void)sim::deserializeSnapshot(corrupt, input, out);
    }
    // Garbage that never was a snapshot.
    {
        sim::Snapshot out;
        EXPECT_FALSE(sim::deserializeSnapshot(
            std::string(1024, '\xee'), input, out));
    }

    // Crafted bodies: well-formed bytes (any writer can produce them,
    // and the cache frame's FNV-1a checksum is public) whose register
    // state points outside the register file. The pipeline indexes
    // physReadyCycle and friends with these unchecked, so the decoder
    // must refuse them.
    const RegIndex phys_regs = RegIndex(snap.cpu.physReadyCycle.size());
    auto rejects = [&](const char *what, auto &&mutate) {
        sim::Snapshot crafted = snap;
        mutate(crafted.cpu);
        std::string body;
        sim::serializeSnapshot(crafted, body);
        sim::Snapshot out;
        EXPECT_FALSE(sim::deserializeSnapshot(body, input, out)) << what;
    };
    rejects("rat entry past the register file",
            [&](auto &cpu) { cpu.rat[3] = phys_regs; });
    rejects("rat shorter than the architectural registers",
            [](auto &cpu) { cpu.rat.pop_back(); });
    rejects("free-list entry past the register file",
            [&](auto &cpu) { cpu.freeList.push_back(phys_regs + 7); });
    rejects("regConsumers not one list per physical register",
            [](auto &cpu) { cpu.regConsumers.emplace_back(); });
    rejects("physical register file shrunk under the RAT",
            [](auto &cpu) { cpu.physReadyCycle.resize(8); });
    ASSERT_FALSE(snap.cpu.rob.empty());
    rejects("ROB source register past the register file",
            [&](auto &cpu) { cpu.rob.back().src1Phys = phys_regs; });
    rejects("front-end live-in past the architectural registers",
            [](auto &cpu) {
                auto &fe = cpu.frontEnd.emplace_back();
                fe.liveIns.push_back(isa::NUM_ARCH_REGS);
            });
    // robAt()/robFind() index the ROB by seq offset from its head.
    ASSERT_GE(snap.cpu.rob.size(), 2u);
    rejects("ROB seqs with a gap",
            [](auto &cpu) { cpu.rob.back().seq += 1000; });
    rejects("issue-queue entry outside the ROB",
            [](auto &cpu) { cpu.iq.push_back(cpu.rob.back().seq + 1); });
    rejects("RAS checkpoint deeper than the stack", [](auto &cpu) {
        cpu.rob.back().rasCp.top = cpu.bpred.ras.size() + 1;
    });
    rejects("RAS depth past the stack",
            [](auto &cpu) { cpu.bpred.rasTop = cpu.bpred.ras.size() + 1; });
    // A cached fabric config whose live-in is past the register file
    // (the host renames through the config's registers).
    {
        sim::Snapshot crafted = snap;
        auto &entries = crafted.controller->configCache.entries;
        auto it = std::find_if(entries.begin(), entries.end(),
                               [](const auto &e) { return e.config; });
        ASSERT_NE(it, entries.end());
        auto config = std::make_shared<fabric::FabricConfig>(*it->config);
        config->liveIns.push_back(isa::NUM_ARCH_REGS);
        it->config = std::move(config);
        std::string body;
        sim::serializeSnapshot(crafted, body);
        sim::Snapshot out;
        EXPECT_FALSE(sim::deserializeSnapshot(body, input, out));
    }
    // REG_INVALID is the "no register" marker and stays legal.
    {
        sim::Snapshot crafted = snap;
        crafted.cpu.rob.back().src2Phys = REG_INVALID;
        std::string body;
        sim::serializeSnapshot(crafted, body);
        sim::Snapshot out;
        EXPECT_TRUE(sim::deserializeSnapshot(body, input, out));
    }

    // Self-consistent bodies whose tables are sized for another
    // geometry decode, but a simulation refuses them: its code indexes
    // those tables with its own sizes. The runner checks fits() before
    // trusting a loaded snapshot, so such a file re-warms.
    EXPECT_TRUE(warm.fits(snap));
    auto misfits = [&](const char *what, auto &&mutate) {
        sim::Snapshot crafted = snap;
        mutate(crafted);
        std::string body;
        sim::serializeSnapshot(crafted, body);
        sim::Snapshot out;
        ASSERT_TRUE(sim::deserializeSnapshot(body, input, out)) << what;
        sim::Simulation target(cfg, input);
        EXPECT_FALSE(target.fits(out)) << what;
        EXPECT_THROW(target.restore(out), FatalError) << what;
    };
    misfits("branch predictor local table emptied",
            [](auto &s) { s.cpu.bpred.localTable.clear(); });
    misfits("store-set table grown",
            [](auto &s) { s.cpu.storeSets.ssit.push_back(0); });
    misfits("L1D line array cut",
            [](auto &s) { s.memory.l1d.lines.resize(8); });
    misfits("one FU unit too many",
            [](auto &s) { s.cpu.fuBusyUntil[0].push_back(0); });
    misfits("physical register file grown", [](auto &s) {
        s.cpu.physReadyCycle.push_back(0);
        s.cpu.regConsumers.emplace_back();
    });
    misfits("T-Cache entry dropped",
            [](auto &s) { s.controller->tcache.entries.pop_back(); });
    misfits("config cache entry dropped",
            [](auto &s) { s.controller->configCache.entries.pop_back(); });
    misfits("controller missing",
            [](auto &s) { s.controller.reset(); });
}

TEST(Snapshot, SampledFidelityIsDeterministicAndMarked)
{
    runner::Job job;
    job.workload = "pf";
    job.mode = sim::SystemMode::AccelSpec;
    job.fidelity = runner::Fidelity::Sampled;
    job.warmupInsts = 20000;

    sim::RunResult first = runner::execute(job);
    sim::RunResult second = runner::execute(job);
    EXPECT_TRUE(first.sampled);
    EXPECT_GT(first.sampledInsts, 0u);
    EXPECT_EQ(resultBytes(first), resultBytes(second));

    // The sampled block round-trips through the cache format, and the
    // full-fidelity serialization is unchanged (no "sampled" key).
    sim::RunResult back = runner::resultFromJson(runner::resultToJson(first));
    EXPECT_TRUE(back.sampled);
    EXPECT_EQ(back.sampledInsts, first.sampledInsts);
    EXPECT_EQ(back.sampledCycles, first.sampledCycles);

    job.fidelity = runner::Fidelity::Full;
    sim::RunResult full = runner::execute(job);
    EXPECT_FALSE(full.sampled);
    EXPECT_EQ(runner::resultToJson(full).find("sampled"), nullptr);

    // A short program sampled to its end is exact, flagged or not.
    EXPECT_EQ(first.instsTotal, full.instsTotal);
}
