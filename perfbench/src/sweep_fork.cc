/**
 * @file
 * `sweep_fork`: sweeps resumed from warmed snapshots. One op is one
 * kernel's fork group run by Runner::runAll with the snapshot cache on
 * and the result cache off. A group is one configuration — accel-spec
 * at 1 or 2 fabrics (the Table 5 axis), accel-nospec or mapping-only
 * (the Figure 8 modes) — with a warmup prefix of 90% of the kernel's
 * trace, so the detailed tail is short.
 *
 * Every round holds, per kernel, four read-path ops (one per
 * configuration, each resuming a group primed during set-up:
 * SnapshotCache::load, deserialize, restore, tail) and one write-path
 * op (accel-spec at 1 fabric with a warmup length new to this round:
 * warm, snapshot, serialize, SnapshotCache::store, tail), in seeded
 * order. Reads only touch groups primed before the timed phase, so the
 * warm/hit counts of a round never depend on lane timing.
 *
 * Groups hold one member because members that differ in mode or fabric
 * count make the WarmupGuard stop the shared prefix early — within a
 * few hundred instructions for mixed modes, before 10% of the trace for
 * most kernels for mixed fabric counts — which would leave the snapshot
 * layer almost nothing to do.
 */

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "harness.hh"
#include "spans.hh"

#include "check/check.hh"
#include "runner/runner.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/snapshot_io.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using ds::runner::Job;
using ds::sim::SystemMode;

struct Config
{
    SystemMode mode;
    unsigned fabrics;
};
/** Read-path configurations; the write path uses the first. */
constexpr std::array<Config, 4> kConfigs = {{
    {SystemMode::AccelSpec, 1},
    {SystemMode::AccelSpec, 2},
    {SystemMode::AccelNoSpec, 1},
    {SystemMode::MappingOnly, 1},
}};
/** Runner::runAll's safe-snapshot interval during a group warmup. */
constexpr std::uint64_t kSafeSnapshotInterval = 8192;

Job
groupJob(const std::string &kernel, const Config &c, std::uint64_t warmup)
{
    Job job{kernel, c.mode, 32, c.fabrics, 1};
    job.warmupInsts = warmup;
    return job;
}

/** A result compared without its job spec. */
std::string
resultBytes(const ds::sim::RunResult &r)
{
    return ds::runner::resultToJson(r).dump(2);
}

/** The snapshot-cache key Runner::runAll gives a one-member group. */
std::string
groupKey(const Job &job)
{
    // A one-member group diverges from nothing: every guard bit is 0.
    return job.key() + "|guard=0000|chk=" +
           (ds::check::enabled() ? "1" : "0");
}

/**
 * Committed instructions of the snapshot @p cache holds for @p job's
 * group: the prefix a read op restores instead of simulating.
 * @return nullopt when no usable snapshot is stored
 */
std::optional<std::uint64_t>
restoredInsts(const Job &job, const ds::runner::SnapshotCache &cache)
{
    const ds::workloads::Workload wl =
        ds::workloads::makeWorkload(job.workload, job.scale);
    const auto input =
        ds::sim::SimInput::make(wl.program, wl.initialMemory);
    const std::optional<std::string> body =
        cache.load(groupKey(job), ds::sim::simInputIdentityHash(*input));
    ds::sim::Snapshot snap;
    if (!body || !ds::sim::deserializeSnapshot(*body, input, snap))
        return std::nullopt;
    return snap.cpu.pstats.committedInsts;
}

/** Per-op snapshot-layer accounting. */
struct ForkCounts
{
    std::uint64_t warmups = 0;
    std::uint64_t snapshotHits = 0;
    std::uint64_t snapshotBytes = 0;
};

/**
 * runForkGroup for a one-member group, driven call by call under spans
 * in the Runner's order: build the input, probe the snapshot cache,
 * warm with safe snapshots on a miss and store, then restore and
 * finish the member.
 */
ds::sim::RunResult
tracedForkGroup(const Job &job, const ds::runner::SnapshotCache &snap_cache,
                ForkCounts &counts)
{
    std::optional<ds::workloads::Workload> wl;
    {
        spans::Scope span("workloads.make");
        wl.emplace(ds::workloads::makeWorkload(job.workload, job.scale));
    }
    std::shared_ptr<const ds::sim::SimInput> input;
    {
        spans::Scope span("sim.input_make");
        input = ds::sim::SimInput::make(wl->program, wl->initialMemory);
    }
    const ds::sim::SystemConfig cfg =
        ds::sim::SystemConfig::make(job.mode, job.traceLength,
                                    job.numFabrics);
    ds::core::WarmupGuard guard;
    const std::string key = groupKey(job);
    const std::uint64_t inputHash = ds::sim::simInputIdentityHash(*input);

    ds::sim::Snapshot safe;
    bool have = false;
    std::optional<std::string> body;
    {
        spans::Scope span("runner.snapshot_cache_load");
        body = snap_cache.load(key, inputHash);
    }
    if (body) {
        spans::Scope span("sim.deserialize");
        have = ds::sim::deserializeSnapshot(*body, input, safe);
        counts.snapshotHits += have ? 1 : 0;
        counts.snapshotBytes += body->size();
    }
    if (!have) {
        counts.warmups++;
        {
            spans::Scope span("sim.warm");
            ds::sim::Simulation warm(cfg, input);
            warm.setWarmupGuard(&guard);
            auto takeSnapshot = [&] {
                spans::Scope s("sim.snapshot");
                warm.snapshot(safe);
            };
            takeSnapshot();
            std::uint64_t nextSafe = kSafeSnapshotInterval;
            while (!warm.done() && !guard.fired &&
                   warm.committedInsts() < job.warmupInsts) {
                warm.tick();
                if (guard.fired)
                    break;
                if (warm.committedInsts() >= nextSafe) {
                    takeSnapshot();
                    nextSafe = warm.committedInsts() + kSafeSnapshotInterval;
                }
            }
            if (!guard.fired)
                takeSnapshot();
        }
        std::string bytes;
        {
            spans::Scope span("sim.serialize");
            ds::sim::serializeSnapshot(safe, bytes);
        }
        counts.snapshotBytes += bytes.size();
        spans::Scope span("runner.snapshot_cache_store");
        snap_cache.store(key, inputHash, bytes);
    }

    std::optional<ds::sim::Simulation> fork;
    {
        // Constructing the fork is charged to the restore.
        spans::Scope span("sim.restore");
        fork.emplace(cfg, input);
        fork->restore(safe);
    }
    ds::sim::RunResult result;
    {
        spans::Scope span("sim.run");
        result = ds::runner::finishSimulation(job, *fork);
    }
    // Only the tail past the snapshot was simulated here.
    noteSimWork(result.cycles - safe.cpu.curCycle,
                result.instsTotal - safe.cpu.pstats.committedInsts);
    return result;
}

struct Op
{
    std::uint32_t kernel = 0;
    std::uint32_t config = 0;
    bool write = false;
    std::uint64_t warmup = 0;
};

/** Index of (kernel @p k, configuration @p c) in the reference list. */
std::size_t
refIndex(std::size_t k, std::size_t c)
{
    // Per kernel: baseline, mapping, nospec, spec@1 (fig8), spec@2.
    static constexpr std::size_t kOffset[kConfigs.size()] = {3, 4, 2, 1};
    return k * 5 + kOffset[c];
}

} // namespace

Outcome
runSweepFork(const Options &opt)
{
    Outcome out;
    const unsigned lanes = hostLanes();
    const std::vector<std::string> &names = kernels();

    // Straight-through references: the Figure 8 set (for fig8_gap) plus
    // accel-spec at 2 fabrics, all without warmup.
    std::vector<Job> refJobs;
    for (const std::string &k : names) {
        for (const Job &job : fig8Jobs(k))
            refJobs.push_back(job);
        refJobs.push_back(groupJob(k, kConfigs[1], 0));
    }

    std::unique_ptr<ScratchDir> snapDir;
    std::vector<ds::sim::RunResult> refs;
    std::vector<std::string> refBytes(refJobs.size());
    std::vector<std::uint64_t> primedWarmup(names.size(), 0);
    std::vector<std::unique_ptr<ds::runner::Runner>> runners;

    auto reset = [&] {
        runners.clear();
        snapDir.reset();
    };
    auto build = [&] {
        snapDir = std::make_unique<ScratchDir>(opt.stateDir +
                                               "/sweep_fork-snapshots");
        refs = runReferences(refJobs, lanes);
        for (std::size_t j = 0; j < refJobs.size(); j++)
            refBytes[j] = resultBytes(refs[j]);
        for (std::size_t k = 0; k < names.size(); k++)
            primedWarmup[k] = refs[k * 5].instsTotal * 9 / 10;

        for (unsigned lane = 0; lane < lanes; lane++) {
            ds::runner::RunnerOptions ro;
            ro.jobs = 1;
            ro.snapshotCacheDir = snapDir->path();
            runners.push_back(std::make_unique<ds::runner::Runner>(ro));
        }
        // Prime the read set: every kernel x configuration, warmed and
        // stored (its tail runs too, as runAll always finishes a
        // group). One runAll per job: jobs of one kernel share a fork
        // key, and a joint call would store one mixed-mode group.
        std::vector<Job> primeJobs;
        for (std::size_t k = 0; k < names.size(); k++)
            for (const Config &c : kConfigs)
                primeJobs.push_back(groupJob(names[k], c, primedWarmup[k]));
        const ds::runner::SnapshotCache cache(snapDir->path());
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> primers;
        for (unsigned lane = 0; lane < lanes; lane++)
            primers.emplace_back([&, lane] {
                for (std::size_t j; (j = next++) < primeJobs.size();) {
                    ForkCounts counts;
                    if (opt.trace)
                        tracedForkGroup(primeJobs[j], cache, counts);
                    else
                        runners[lane]->runAll({primeJobs[j]});
                }
            });
        for (std::thread &t : primers)
            t.join();
    };
    repeatSetup(out, opt.smoke, reset, build);

    // A read op simulates only the tail past its primed snapshot; a
    // write op simulates its whole trace (the warm prefix, then the
    // tail). Looked up once, outside the timed set-up.
    std::vector<std::uint64_t> readPrefix(names.size() * kConfigs.size(), 0);
    {
        const ds::runner::SnapshotCache cache(snapDir->path());
        for (std::size_t k = 0; k < names.size(); k++)
            for (std::size_t c = 0; c < kConfigs.size(); c++) {
                const auto insts = restoredInsts(
                    groupJob(names[k], kConfigs[c], primedWarmup[k]), cache);
                if (!insts)
                    out.fail("sweep_fork: no primed snapshot for " +
                             names[k] + " configuration " +
                             std::to_string(c));
                readPrefix[k * kConfigs.size() + c] = insts.value_or(0);
            }
    }

    // Rounds: per kernel one write and one read per configuration.
    std::vector<Op> ops;
    Rng rng(opt.seed);
    const std::size_t rounds = opt.smoke ? 1 : 2048;
    const std::size_t roundOps = names.size() * (1 + kConfigs.size());
    for (std::size_t round = 0; round < rounds; round++) {
        std::vector<Op> batch;
        for (std::uint32_t k = 0; k < names.size(); k++) {
            batch.push_back(Op{k, 0, true, primedWarmup[k] + 1 + round});
            for (std::uint32_t c = 0; c < kConfigs.size(); c++)
                batch.push_back(Op{k, c, false, primedWarmup[k]});
        }
        rng.shuffle(batch);
        ops.insert(ops.end(), batch.begin(), batch.end());
    }

    std::vector<ForkCounts> opCounts(ops.size());
    std::vector<std::uint64_t> opInsts(ops.size(), 0);
    std::mutex errMutex;
    const ds::runner::SnapshotCache tracedCache(snapDir->path());

    auto op = [&](std::uint64_t i, unsigned lane) {
        const Op &o = ops[i];
        const Job job = groupJob(names[o.kernel], kConfigs[o.config],
                                 o.warmup);
        ds::sim::RunResult result;
        ForkCounts &counts = opCounts[i];
        if (opt.trace) {
            spans::Scope span("runner.run_all");
            result = tracedForkGroup(job, tracedCache, counts);
        } else {
            ds::runner::Runner &runner = *runners[lane];
            const std::uint64_t w0 = runner.forkStats().warmups.load();
            const std::uint64_t h0 = runner.forkStats().snapshotHits.load();
            result = std::move(runner.runAll({job}).front().result);
            counts.warmups = runner.forkStats().warmups.load() - w0;
            counts.snapshotHits =
                runner.forkStats().snapshotHits.load() - h0;
        }
        opInsts[i] = result.instsTotal -
                     (o.write ? 0 : readPrefix[o.kernel * kConfigs.size() +
                                               o.config]);
        const bool good =
            counts.warmups == (o.write ? 1u : 0u) &&
            counts.snapshotHits == (o.write ? 0u : 1u) &&
            result.functionallyCorrect &&
            resultBytes(result) == refBytes[refIndex(o.kernel, o.config)];
        if (!good) {
            std::lock_guard<std::mutex> lock(errMutex);
            if (out.errors.size() < 8)
                out.errors.push_back(
                    "sweep_fork: " + job.key() +
                    (o.write ? " (write)" : " (read)") +
                    " differs from the straight-through reference or "
                    "took the wrong snapshot path");
        }
        return good;
    };

    const LoopResult loop = runClosedLoop(
        lanes, opt.smoke ? 1e9 : opt.seconds,
        opt.smoke ? std::uint64_t(roundOps) : ops.size(), op);
    absorb(out, loop, lanes);
    std::uint64_t warmups = 0, hits = 0, bytes = 0;
    for (std::uint64_t i = 0; i < loop.attempted; i++) {
        if (loop.ok[i])
            out.committedInsts += opInsts[i];
        warmups += opCounts[i].warmups;
        hits += opCounts[i].snapshotHits;
        bytes += opCounts[i].snapshotBytes;
    }

    auto resultOf = [&](const Job &job) -> const ds::sim::RunResult & {
        for (std::size_t j = 0; j < refJobs.size(); j++)
            if (refJobs[j] == job)
                return refs[j];
        throw std::logic_error("job outside the reference set");
    };
    out.fig8Gap = fig8Gap(resultOf);

    // Work of one round: fixed by construction, whatever the seed.
    for (std::size_t k = 0; k < names.size(); k++) {
        addSimCounters(out.counters, refs[refIndex(k, 0)]);    // write
        for (std::size_t c = 0; c < kConfigs.size(); c++)
            addSimCounters(out.counters, refs[refIndex(k, c)]);
    }
    out.counters["runner.ops"] = roundOps;
    out.counters["runner.warmups"] = names.size();
    out.counters["runner.snapshot_hits"] = names.size() * kConfigs.size();
    simLayerMetrics(out.counters, out.layers);

    const double attempted = double(loop.attempted);
    out.layers["runner.warmups"] = {double(warmups), "count"};
    out.layers["runner.snapshot_hit_ratio"] = {
        attempted > 0 ? double(hits) / attempted : 0.0, "ratio"};
    out.layers["sim.snapshot_bytes"] = {
        attempted > 0 ? double(bytes) / attempted : 0.0, "B"};
    return out;
}

} // namespace perfbench
