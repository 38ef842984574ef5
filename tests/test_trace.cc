/**
 * @file
 * Tests for the event-tracing layer (src/trace): the zero-cost
 * contract (an unattached or fully-filtered sink buffers nothing and
 * allocates nothing), timing non-perturbation (stat reports are
 * byte-identical with and without a sink), Chrome-JSON validity via
 * the repo's own parser, Konata header/retire structure, and the
 * headline determinism guarantee — env-driven trace files are
 * byte-identical whether the runner used 1 worker or 8.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "runner/runner.hh"
#include "trace/trace.hh"

using namespace dynaspam;
using runner::Job;
using sim::SystemMode;

namespace fs = std::filesystem;

namespace
{

/** Runner options with @p jobs workers and result cache @p cache_dir
 *  (empty: no cache); everything else at its default. */
runner::RunnerOptions
runnerOptions(unsigned jobs, std::string cache_dir = {})
{
    runner::RunnerOptions options;
    options.jobs = jobs;
    options.cacheDir = std::move(cache_dir);
    return options;
}

/** Fresh unique directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<unsigned> next{0};
        path_ = (fs::temp_directory_path() /
                 ("dynaspam-test-" + tag + "-" + std::to_string(getpid()) +
                  "-" + std::to_string(next++)))
                    .string();
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** RAII environment variable: set on construction, restore on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

const std::vector<Job> &
smallSweep()
{
    static const std::vector<Job> jobs = {
        Job{"BP", SystemMode::BaselineOoo, 32, 1, 1},
        Job{"BP", SystemMode::AccelSpec, 32, 1, 1},
        Job{"PF", SystemMode::BaselineOoo, 32, 1, 1},
        Job{"PF", SystemMode::AccelSpec, 32, 1, 1},
    };
    return jobs;
}

} // namespace

// --- Zero-cost contract --------------------------------------------------

TEST(TraceSink, UntouchedSinkHoldsNoHeap)
{
    trace::TraceSink sink;
    EXPECT_EQ(sink.eventCount(), 0u);
    EXPECT_EQ(sink.instCount(), 0u);
    EXPECT_EQ(sink.markCount(), 0u);
    EXPECT_EQ(sink.bufferedBytes(), 0u);
}

TEST(TraceSink, WindowFilterDropsEventsWithoutAllocating)
{
    // A window past the end of the run: every hook still fires, but
    // nothing may be buffered — and since filtering happens before the
    // push, the vectors must never have grown.
    trace::TraceSink::Options window;
    window.beginCycle = std::numeric_limits<Cycle>::max() - 1;
    trace::TraceSink sink(window);

    sim::RunResult res =
        runner::execute(Job{"BP", SystemMode::AccelSpec, 32, 1, 1}, &sink);
    EXPECT_GT(res.instsTotal, 0u);
    EXPECT_EQ(sink.eventCount(), 0u);
    EXPECT_EQ(sink.bufferedBytes(), 0u);
}

TEST(TraceSink, WindowKeepsOnlyOverlappingEvents)
{
    trace::TraceSink::Options window;
    window.beginCycle = 100;
    window.endCycle = 200;
    trace::TraceSink sink(window);

    trace::InstEvent inside;
    inside.fetch = 150;
    inside.retire = 160;
    sink.instRetired(inside);

    trace::InstEvent before;
    before.fetch = 10;
    before.retire = 20;
    sink.instRetired(before);

    trace::InstEvent straddling;
    straddling.fetch = 90;
    straddling.retire = 110;
    sink.instRetired(straddling);

    sink.mark(trace::Mark::TCacheHit, 50);   // outside
    sink.mark(trace::Mark::TCacheHit, 150);  // inside
    sink.span(trace::Mark::Invocation, 190, 250);  // straddles the end

    EXPECT_EQ(sink.instCount(), 2u);
    EXPECT_EQ(sink.markCount(), 2u);
}

// --- Non-perturbation ----------------------------------------------------

TEST(TraceRunner, AttachedSinkDoesNotPerturbResults)
{
    for (SystemMode mode :
         {SystemMode::BaselineOoo, SystemMode::AccelSpec}) {
        const Job job{"BFS", mode, 32, 1, 1};
        const sim::RunResult plain = runner::execute(job, nullptr);
        trace::TraceSink sink;
        const sim::RunResult traced = runner::execute(job, &sink);
        // Byte-identical serialized reports: tracing observed the run
        // without changing a single cycle or statistic.
        EXPECT_EQ(runner::resultToJson(plain).dump(2),
                  runner::resultToJson(traced).dump(2))
            << "tracing perturbed " << job.key();
        if (trace::compiledIn()) {
            EXPECT_GT(sink.eventCount(), 0u);
        }
    }
}

// --- Rendering -----------------------------------------------------------

TEST(TraceSink, ChromeJsonParsesAndHasPipelineSpans)
{
    if (!trace::compiledIn())
        GTEST_SKIP() << "trace hooks compiled out";

    trace::TraceSink sink;
    runner::execute(Job{"BFS", SystemMode::AccelSpec, 32, 1, 1}, &sink);
    ASSERT_GT(sink.instCount(), 0u);
    ASSERT_GT(sink.markCount(), 0u);

    std::ostringstream os;
    sink.writeChromeJson(os);
    const json::Value doc = json::Value::parse(os.str());

    const json::Array &events = doc.at("traceEvents").asArray();
    ASSERT_FALSE(events.empty());

    std::size_t host_spans = 0, invocation_spans = 0, counters = 0;
    for (const json::Value &ev : events) {
        const std::string &ph = ev.at("ph").asString();
        if (ph == "X" && ev.at("pid").asUint() == 0) {
            host_spans++;
            // Every pipeline span carries its program counter.
            EXPECT_NO_THROW(ev.at("args").at("pc").asUint());
        }
        if (ph == "X" && ev.at("pid").asUint() == 1 &&
            ev.at("name").asString() == "invocation") {
            invocation_spans++;
        }
        if (ph == "C")
            counters++;
    }
    EXPECT_GT(host_spans, 0u);
    // accel-spec offloads traces: the control plane must show
    // invocation spans and in-flight FIFO counter samples.
    EXPECT_GT(invocation_spans, 0u);
    EXPECT_GT(counters, 0u);
}

TEST(TraceSink, KonataLogHasHeaderAndRetires)
{
    if (!trace::compiledIn())
        GTEST_SKIP() << "trace hooks compiled out";

    trace::TraceSink sink;
    runner::execute(Job{"BP", SystemMode::BaselineOoo, 32, 1, 1}, &sink);

    std::ostringstream os;
    sink.writeKonata(os);
    const std::string log = os.str();
    EXPECT_EQ(log.rfind("Kanata\t0004\n", 0), 0u) << "missing header";
    EXPECT_NE(log.find("\nI\t"), std::string::npos) << "no inst records";
    EXPECT_NE(log.find("\nR\t"), std::string::npos) << "no retirements";
}

// --- Determinism across worker counts ------------------------------------

TEST(TraceRunner, WorkerCountDoesNotChangeTraceBytes)
{
    if (!trace::compiledIn())
        GTEST_SKIP() << "trace hooks compiled out";

    TempDir serial_dir("trace-serial");
    TempDir parallel_dir("trace-parallel");
    ScopedEnv on("DYNASPAM_TRACE", "1");

    {
        ScopedEnv dir("DYNASPAM_TRACE_DIR", serial_dir.path().c_str());
        runner::Runner r(runnerOptions(1));
        r.runAll(smallSweep());
    }
    {
        ScopedEnv dir("DYNASPAM_TRACE_DIR", parallel_dir.path().c_str());
        runner::Runner r(runnerOptions(8));
        r.runAll(smallSweep());
    }

    for (const Job &job : smallSweep()) {
        const std::string stem = runner::traceFileStem(job);
        for (const char *suffix : {".trace.json", ".trace.json.kanata"}) {
            const std::string name = stem + suffix;
            const std::string a = slurp(serial_dir.path() + "/" + name);
            const std::string b = slurp(parallel_dir.path() + "/" + name);
            EXPECT_FALSE(a.empty()) << name;
            EXPECT_EQ(a, b) << name << " differs across worker counts";
        }
    }
}

TEST(TraceRunner, EnvUntracedRunWritesNoFiles)
{
    TempDir dir("trace-off");
    ScopedEnv off("DYNASPAM_TRACE", nullptr);
    ScopedEnv where("DYNASPAM_TRACE_DIR", dir.path().c_str());

    runner::execute(Job{"BP", SystemMode::BaselineOoo, 32, 1, 1});
    EXPECT_TRUE(fs::is_empty(dir.path()));
}
