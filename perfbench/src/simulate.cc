/**
 * @file
 * `simulate`: repeated passes over the Figure 8 job set (11 kernels x
 * baseline-ooo / mapping-only / accel-nospec / accel-spec, trace length
 * 32, 1 fabric, scale 1), full fidelity, no caches. Almost all host
 * time is the ooo/fabric/core/memory hot loop.
 *
 * One op is one job. `hostLanes()` lanes each own a one-worker
 * runner::Runner and take the next job of the current pass from a
 * shared counter: the schedule a `jobs = nproc` Runner's work stealing
 * gives, with each job's latency visible. Traced runs make the calls
 * Runner::runAll hides (makeWorkload, SimInput::make, Simulation) in
 * the same order, each under its own span, inside a `runner.run_all`
 * span standing for the runAll call.
 */

#include <memory>
#include <mutex>

#include "harness.hh"
#include "spans.hh"

#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using ds::runner::Job;

/** Set-up state kept for the timed phase. */
struct Setup
{
    std::vector<Job> jobs;                          ///< canonical fig8 order
    std::map<std::string, std::uint64_t> traceInsts;  ///< per kernel
    std::vector<std::unique_ptr<ds::runner::Runner>> runners;
};

Setup
makeSetup(ds::runner::ThreadPool &pool, unsigned lanes, bool &inputs_ok)
{
    Setup s;
    for (const std::string &k : kernels())
        for (const Job &job : fig8Jobs(k))
            s.jobs.push_back(job);

    // Build every input and its functional pass (the trace lengths every
    // job must commit) on all lanes, as the Runner's workers would: the
    // process CPU of the set-up then sums several vCPUs' states. The
    // pool lives across repetitions: a fresh pool in each one made the
    // peak RSS vary from run to run.
    const std::vector<std::string> &names = kernels();
    std::vector<std::uint64_t> traceInsts(names.size(), 0);
    std::vector<char> correct(names.size(), 0);
    pool.parallelFor(names.size(), [&](std::size_t k) {
        std::optional<ds::workloads::Workload> wl;
        {
            spans::Scope span("workloads.make");
            wl.emplace(ds::workloads::makeWorkload(names[k], 1));
        }
        spans::Scope span("sim.input_make");
        auto input = ds::sim::SimInput::make(wl->program, wl->initialMemory);
        traceInsts[k] = input->trace().size();
        correct[k] = input->functionallyCorrect() ? 1 : 0;
    });
    inputs_ok = true;
    for (std::size_t k = 0; k < names.size(); k++) {
        s.traceInsts[names[k]] = traceInsts[k];
        inputs_ok = inputs_ok && correct[k];
    }
    for (unsigned lane = 0; lane < lanes; lane++) {
        ds::runner::RunnerOptions ro;
        ro.jobs = 1;
        s.runners.push_back(std::make_unique<ds::runner::Runner>(ro));
    }
    return s;
}

} // namespace

Outcome
runSimulate(const Options &opt)
{
    Outcome out;
    const unsigned lanes = hostLanes();

    Setup setup;
    bool inputsOk = false;
    ds::runner::ThreadPool pool(lanes);
    repeatSetup(
        out, opt.smoke, [&] { setup = Setup{}; },
        [&] { setup = makeSetup(pool, lanes, inputsOk); });
    if (!inputsOk)
        out.fail("a workload's functional pass disagrees with its "
                 "reference");

    // Seeded job order inside every pass; the pass contents are fixed.
    const std::size_t passJobs = setup.jobs.size();
    const std::size_t maxPasses = opt.smoke ? 1 : 4096;
    std::vector<std::uint32_t> order;
    order.reserve(passJobs * maxPasses);
    Rng rng(opt.seed);
    for (std::size_t p = 0; p < maxPasses; p++) {
        std::vector<std::uint32_t> pass(passJobs);
        for (std::size_t j = 0; j < passJobs; j++)
            pass[j] = std::uint32_t(j);
        rng.shuffle(pass);
        order.insert(order.end(), pass.begin(), pass.end());
    }

    // First completion of each job is its reference entry; every later
    // pass must render the same bytes.
    std::mutex refMutex;
    std::vector<std::string> refEntry(passJobs);
    std::vector<std::optional<ds::sim::RunResult>> refResult(passJobs);
    std::vector<std::uint64_t> opInsts(order.size(), 0);
    std::mutex errMutex;

    auto op = [&](std::uint64_t i, unsigned lane) {
        const std::uint32_t j = order[i];
        const Job &job = setup.jobs[j];
        ds::runner::JobOutcome outcome;
        if (opt.trace) {
            spans::Scope opSpan("runner.run_all");
            outcome = ds::runner::JobOutcome{job, executeJob(job), false};
        } else {
            outcome = setup.runners[lane]->runAll({job}).front();
        }
        std::string entry;
        {
            spans::Scope span("runner.report_render");
            entry = ds::runner::sweepEntryJson(outcome).dump(2);
        }
        const auto &r = outcome.result;
        bool good = r.functionallyCorrect &&
                    r.instsTotal == setup.traceInsts.at(job.workload);
        {
            std::lock_guard<std::mutex> lock(refMutex);
            if (refEntry[j].empty()) {
                refEntry[j] = entry;
                refResult[j] = r;
            } else if (refEntry[j] != entry) {
                good = false;
            }
        }
        opInsts[i] = r.instsTotal;
        if (!good) {
            std::lock_guard<std::mutex> lock(errMutex);
            if (out.errors.size() < 8)
                out.errors.push_back("simulate: job " + job.key() +
                                     " gave a wrong or non-repeating "
                                     "result");
        }
        return good;
    };

    // A smoke run still completes one pass: fig8_gap needs every job.
    const LoopResult loop = runClosedLoop(
        lanes, opt.smoke ? 1e9 : opt.seconds, order.size(), op);
    absorb(out, loop, lanes);
    for (std::uint64_t i = 0; i < loop.attempted; i++)
        if (loop.ok[i])
            out.committedInsts += opInsts[i];

    // The per-pass work counters and the accuracy figure need one
    // result of every job.
    bool complete = true;
    for (const auto &r : refResult)
        complete = complete && r.has_value();
    if (complete) {
        auto resultOf = [&](const Job &job) -> const ds::sim::RunResult & {
            for (std::size_t j = 0; j < passJobs; j++)
                if (setup.jobs[j] == job)
                    return *refResult[j];
            throw std::logic_error("job outside the pass");
        };
        out.fig8Gap = fig8Gap(resultOf);
        for (const auto &r : refResult)
            addSimCounters(out.counters, *r);
        simLayerMetrics(out.counters, out.layers);
    } else if (!opt.smoke) {
        out.fail("simulate: the run did not complete one full pass");
    }
    return out;
}

} // namespace perfbench
