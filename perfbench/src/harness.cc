#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "spans.hh"

#include "common/json.hh"
#include "runner/thread_pool.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace fs = std::filesystem;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;    // ru_maxrss is in KiB
}

unsigned
hostLanes()
{
    // The CPUs this process may run on (taskset and cpusets included).
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return unsigned(CPU_COUNT(&set));
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? unsigned(n) : 1u;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least q of the sample
    // at or below it.
    std::size_t rank = std::size_t(std::ceil(q * double(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

ScratchDir::ScratchDir(const std::string &path) : path_(path)
{
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
}

void
Outcome::fail(const std::string &why)
{
    failed++;
    if (errors.size() < 8)
        errors.push_back(why);
}

void
repeatSetup(Outcome &out, bool smoke, const std::function<void()> &reset,
            const std::function<void()> &build)
{
    constexpr unsigned kMinReps = 3, kMaxReps = 200;
    constexpr double kMinSeconds = 1.0;
    double spent = 0.0;    // wall seconds, bounding the repetitions
    for (unsigned rep = 0; rep < kMaxReps; rep++) {
        if (smoke ? rep >= 1 : rep >= kMinReps && spent >= kMinSeconds)
            break;
        reset();
        const double t0 = wallNow();
        const double c0 = processCpu();
        build();
        out.setupSeconds.push_back(processCpu() - c0);
        spent += wallNow() - t0;
    }
}

LoopResult
runClosedLoop(unsigned lanes, double seconds, std::uint64_t max_ops,
              const std::function<bool(std::uint64_t, unsigned)> &op)
{
    LoopResult res;
    res.latencyMs.assign(max_ops, 0.0);
    res.ok.assign(max_ops, 0);
    std::atomic<std::uint64_t> next{0};

    const double cpu0 = processCpu();
    const double t0 = wallNow();
    const double stopAt = t0 + seconds;
    std::vector<std::thread> threads;
    for (unsigned lane = 0; lane < lanes; lane++) {
        threads.emplace_back([&, lane] {
            while (wallNow() < stopAt) {
                const std::uint64_t i = next.fetch_add(1);
                if (i >= max_ops)
                    return;
                const double s = wallNow();
                bool good = false;
                try {
                    good = op(i, lane);
                } catch (const std::exception &) {
                    good = false;
                }
                res.latencyMs[i] = (wallNow() - s) * 1e3;
                res.ok[i] = good ? 1 : 0;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    res.wallSeconds = wallNow() - t0;
    res.cpuSeconds = processCpu() - cpu0;
    res.attempted = std::min(next.load(), max_ops);
    // Lanes that saw the deadline after taking an index past the end
    // never ran it; everything below `attempted` did run.
    res.latencyMs.resize(res.attempted);
    res.ok.resize(res.attempted);
    for (char good : res.ok)
        if (!good)
            res.failed++;
    return res;
}

void
absorb(Outcome &out, const LoopResult &loop, unsigned threads)
{
    out.wallSeconds = loop.wallSeconds;
    out.cpuSeconds = loop.cpuSeconds;
    out.threads = threads;
    out.attempted += loop.attempted;
    out.failed += loop.failed;
    for (std::size_t i = 0; i < loop.latencyMs.size(); i++)
        if (loop.ok[i])
            out.latencyMs.push_back(loop.latencyMs[i]);
}

const std::vector<std::string> &
kernels()
{
    return ds::workloads::allWorkloadNames();
}

std::vector<ds::runner::Job>
fig8Jobs(const std::string &kernel)
{
    return ds::runner::sweepJobs("fig8", {kernel}, 1, 32);
}

double
fig8Gap(const std::function<const ds::sim::RunResult &(
            const ds::runner::Job &)> &result_of)
{
    // Paper Figure 8 geomeans: mapping only, w/o and w/ speculation.
    const double paper[3] = {1.00, 1.23, 1.42};
    double logSum[3] = {0.0, 0.0, 0.0};
    for (const std::string &k : kernels()) {
        const std::vector<ds::runner::Job> jobs = fig8Jobs(k);
        const double base = double(result_of(jobs[0]).cycles);
        for (int m = 0; m < 3; m++)
            logSum[m] += std::log(base / double(result_of(jobs[m + 1]).cycles));
    }
    double gap = 0.0;
    for (int m = 0; m < 3; m++) {
        const double geo = std::exp(logSum[m] / double(kernels().size()));
        gap += std::fabs(std::log(geo / paper[m]));
    }
    return gap / 3.0;
}

namespace
{
std::atomic<std::uint64_t> workCycles{0};
std::atomic<std::uint64_t> workInsts{0};
} // namespace

void
noteSimWork(std::uint64_t cycles, std::uint64_t insts)
{
    workCycles += cycles;
    workInsts += insts;
}

std::uint64_t
simWorkCycles()
{
    return workCycles.load();
}

std::uint64_t
simWorkInsts()
{
    return workInsts.load();
}

ds::sim::RunResult
executeJob(const ds::runner::Job &job)
{
    if (!spans::enabled())
        return ds::runner::execute(job, nullptr);
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
    ds::sim::RunResult result;
    {
        spans::Scope span("sim.run");
        ds::sim::Simulation simu(
            ds::sim::SystemConfig::make(job.mode, job.traceLength,
                                        job.numFabrics),
            input);
        result = ds::runner::finishSimulation(job, simu);
    }
    noteSimWork(result.cycles, result.instsTotal);
    return result;
}

std::vector<ds::sim::RunResult>
runReferences(const std::vector<ds::runner::Job> &jobs, unsigned lanes)
{
    std::vector<ds::sim::RunResult> results(jobs.size());
    ds::runner::ThreadPool pool(lanes);
    pool.parallelFor(jobs.size(),
                     [&](std::size_t i) { results[i] = executeJob(jobs[i]); });
    return results;
}

void
addSimCounters(std::map<std::string, std::uint64_t> &into,
               const ds::sim::RunResult &r)
{
    const auto &p = r.pipeline;
    const auto &d = r.dynaspam;
    into["sim.jobs"] += 1;
    into["sim.committed_insts"] += r.instsTotal;
    into["ooo.cycles"] += r.cycles;
    into["ooo.fetched"] += p.fetchedInsts;
    into["ooo.issued"] += p.issuedInsts;
    into["ooo.iq_wakeups"] += p.iqWakeups;
    into["ooo.squashed"] += p.squashedInsts;
    into["ooo.mem_order_violations"] += p.memOrderViolations;
    into["core.mappings_started"] += d.mappingsStarted;
    into["core.mappings_completed"] += d.mappingsCompleted;
    into["core.mappings_discarded"] += d.mappingsDiscarded;
    into["core.offloads_issued"] += d.offloadsIssued;
    into["core.invocations_committed"] += d.invocationsCommitted;
    into["core.invocations_squashed"] += d.invocationsSquashed;
    into["fabric.insts"] += r.instsFabric;
    into["fabric.invocations"] += p.invocationsCommitted;
    for (const char *cache : {"l1i", "l1d", "l2"}) {
        const std::string c = cache;
        into["memory." + c + ".hits"] += r.stats.get(c + ".hits");
        into["memory." + c + ".misses"] += r.stats.get(c + ".misses");
    }
}

void
simLayerMetrics(const std::map<std::string, std::uint64_t> &counts,
                MetricMap &layers)
{
    auto get = [&](const std::string &name) -> double {
        auto it = counts.find(name);
        return it == counts.end() ? 0.0 : double(it->second);
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    for (const char *name :
         {"ooo.cycles", "ooo.fetched", "ooo.issued", "ooo.iq_wakeups",
          "ooo.squashed", "ooo.mem_order_violations",
          "core.mappings_started", "core.offloads_issued", "fabric.insts",
          "fabric.invocations", "memory.l1i.hits", "memory.l1i.misses",
          "memory.l1d.hits", "memory.l1d.misses", "memory.l2.hits",
          "memory.l2.misses"})
        layers[name] = {get(name), "count"};
    layers["ooo.squash_ratio"] = {
        ratio(get("ooo.squashed"), get("ooo.fetched")), "ratio"};
    layers["ooo.ipc"] = {
        ratio(get("sim.committed_insts"), get("ooo.cycles")), "inst/cycle"};
    layers["core.mapping_yield"] = {
        ratio(get("core.mappings_completed") -
                  get("core.mappings_discarded"),
              get("core.mappings_started")),
        "ratio"};
    layers["core.invocation_commit_ratio"] = {
        ratio(get("core.invocations_committed"),
              get("core.invocations_committed") +
                  get("core.invocations_squashed")),
        "ratio"};
}

std::string
renderSweep(const std::string &name,
            const std::vector<ds::runner::JobOutcome> &outcomes)
{
    // Same per-request registry the daemon and the CLI's Runner build
    // for exactly this job list and cache state.
    std::size_t hits = 0;
    for (const auto &o : outcomes)
        hits += o.fromCache ? 1 : 0;
    const ds::StatRegistry registry =
        ds::runner::sweepRequestStats(outcomes.size(), hits);
    std::ostringstream os;
    ds::runner::writeSweepReport(os, name, outcomes, &registry);
    return os.str();
}

std::string
renderRun(const ds::runner::JobOutcome &o)
{
    return renderSweep("run", {o});
}

std::string
checkCounterRecord(const std::string &state_dir, const std::string &workload,
                   const std::string &source_digest,
                   const std::map<std::string, std::uint64_t> &counters)
{
    ds::json::Object now;
    for (const auto &kv : counters)
        now.emplace(kv.first, kv.second);
    const std::string text = ds::json::Value(std::move(now)).dump(2) + "\n";

    const std::string path = state_dir + "/counters-" + workload + "-" +
                             source_digest + ".json";
    std::ifstream is(path);
    if (!is) {
        fs::create_directories(state_dir);
        std::ofstream os(path);
        os << text;
        return os ? std::string() : "cannot write " + path;
    }
    std::stringstream prev;
    prev << is.rdbuf();
    if (prev.str() == text)
        return std::string();
    return "work counters differ from an earlier run of the same sources "
           "recorded in " +
           path + " (the model is not deterministic)";
}

} // namespace perfbench
