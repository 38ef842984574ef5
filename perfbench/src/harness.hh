/**
 * @file
 * Shared plumbing of the repository benchmark: options, host clocks,
 * the closed-loop lane driver, metric output, work counters and the
 * Figure 8 accuracy figure.
 *
 * Host time is always measured as process CPU (every thread) or wall
 * time over many short ops; see README.md for why no single-thread or
 * best-of-N figure is used.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "runner/report.hh"
#include "sim/system.hh"

namespace perfbench
{

namespace ds = dynaspam;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Few-op smoke mode: one set-up and a handful of ops. */
    bool smoke = false;
    /** Scratch root for caches, spans and the counter record. */
    std::string stateDir = ".bench_build/state";
    /** Host fingerprint fields only the launcher knows. */
    std::string gitCommit = "unknown";
    std::string sourceDigest = "unknown";
};

/** Seconds on the monotonic wall clock. */
double wallNow();
/** CPU seconds of the whole process (all threads). */
double processCpu();
/** Peak resident set of the process in MiB. */
double peakRssMb();
/** Worker lanes: the host's online CPU count. */
unsigned hostLanes();

/** Nearest-rank quantile of @p values (copied and sorted). */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/** splitmix64: the benchmark's only source of input randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return std::size_t(next() % n); }
    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; i--)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state;
};

/** A fresh, empty directory; removed again by the destructor. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &path);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** One metric line item: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/**
 * What one workload run hands back to main(). The lane driver fills the
 * op accounting; the workload adds set-up time, simulated work, the
 * accuracy figure, per-round work counters and per-layer metrics.
 */
struct Outcome
{
    std::vector<double> setupSeconds;   ///< CPU s, one per repetition
    double wallSeconds = 0.0;           ///< timed phase
    double cpuSeconds = 0.0;            ///< timed phase, all threads
    unsigned threads = 0;               ///< busy threads in the phase
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencyMs;      ///< completed ops only
    std::uint64_t committedInsts = 0;   ///< simulated in the phase
    double fig8Gap = -1.0;              ///< < 0: not computed
    /** Deterministic per-round work counters (seed independent). */
    std::map<std::string, std::uint64_t> counters;
    /** Per-layer metrics (traced runs). */
    MetricMap layers;
    /** Human-readable failure notes (first few). */
    std::vector<std::string> errors;

    void fail(const std::string &why);
};

/**
 * Time the workload's set-up: @p reset (untimed) tears down the previous
 * repetition, @p build (timed) sets everything up until the first op
 * can run. Repeats at least three times and until a second of set-up
 * has passed (at most 200 times; once in smoke mode), recording the
 * process CPU seconds (all threads) of each repetition; the timed phase
 * uses the last one. CPU time counts the set-up work only: neither
 * idle waits on thread hand-offs nor uneven splits across threads.
 */
void repeatSetup(Outcome &out, bool smoke, const std::function<void()> &reset,
                 const std::function<void()> &build);

/**
 * The closed-loop driver: @p lanes threads each take the next op index
 * from a shared counter and run @p op on it until @p seconds have
 * passed (or @p max_ops ops were taken), then finish the op in hand.
 * Returns per-op latency, wall and process CPU of the phase. @p op
 * returns false when the op failed or its output was wrong.
 */
struct LoopResult
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencyMs;    ///< indexed by op, for ops < attempted
    std::vector<char> ok;             ///< indexed by op
};
LoopResult runClosedLoop(unsigned lanes, double seconds,
                         std::uint64_t max_ops,
                         const std::function<bool(std::uint64_t op,
                                                  unsigned lane)> &op);

/** Copy a LoopResult's accounting into @p out. */
void absorb(Outcome &out, const LoopResult &loop, unsigned threads);

/** Workload names in the order the paper lists them. */
const std::vector<std::string> &kernels();

/** The Figure 8 job set for @p kernel: baseline, mapping, nospec, spec. */
std::vector<ds::runner::Job> fig8Jobs(const std::string &kernel);

/**
 * Mean over mapping-only / accel-nospec / accel-spec of |ln(measured
 * geomean speedup / paper's 1.00, 1.23, 1.42)|. @p result_of maps a
 * Figure 8 job to its result.
 */
double fig8Gap(const std::function<const ds::sim::RunResult &(
                   const ds::runner::Job &)> &result_of);

/**
 * Execute @p job straight through. With spans on, the calls runner::
 * execute hides (makeWorkload, SimInput::make, Simulation) are made one
 * by one under their own spans; the result is the same.
 */
ds::sim::RunResult executeJob(const ds::runner::Job &job);

/**
 * Simulated work done inside `sim.run` spans (cycles and committed
 * instructions actually simulated there), for sim.ns_per_cycle and
 * sim.ns_per_inst.
 */
void noteSimWork(std::uint64_t cycles, std::uint64_t insts);
std::uint64_t simWorkCycles();
std::uint64_t simWorkInsts();

/** executeJob over @p jobs on @p lanes threads; results in job order. */
std::vector<ds::sim::RunResult>
runReferences(const std::vector<ds::runner::Job> &jobs, unsigned lanes);

/** Add @p result's deterministic simulator counts into @p into. */
void addSimCounters(std::map<std::string, std::uint64_t> &into,
                    const ds::sim::RunResult &result);

/** Derive the ooo/core/fabric/memory per-layer metrics from counts. */
void simLayerMetrics(const std::map<std::string, std::uint64_t> &counts,
                     MetricMap &layers);

/** The report bytes `POST /run` or `dynaspam run` give for @p o. */
std::string renderRun(const ds::runner::JobOutcome &o);
/** The report bytes `POST /sweep` gives for @p outcomes. */
std::string renderSweep(const std::string &name,
                        const std::vector<ds::runner::JobOutcome> &outcomes);

/**
 * Compare @p counters with the record of an earlier run of the same
 * workload on the same sources (@p source_digest) in @p state_dir,
 * creating it when absent. Other sources start a record of their own,
 * so a deliberate model change is not read as drift.
 * @return empty when they agree, otherwise a description of the drift
 */
std::string checkCounterRecord(const std::string &state_dir,
                               const std::string &workload,
                               const std::string &source_digest,
                               const std::map<std::string, std::uint64_t>
                                   &counters);

/** Workload entry points. */
Outcome runSimulate(const Options &opt);
Outcome runSweepFork(const Options &opt);
Outcome runServeMixed(const Options &opt);
Outcome runClusterMixed(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
