/**
 * @file
 * `serve_mixed` and `cluster_mixed`: one seeded request stream, sent
 * closed-loop to an in-process serve::Server, or to an in-process
 * cluster::Coordinator with two in-process Workers over loopback. The
 * client waits for each reply before sending again, like the scripts
 * and the explore driver that call /run and /sweep. The client plus the
 * server's job threads (or the workers) stay within the host's CPU
 * count.
 *
 * A round of 253 requests holds, in seeded order:
 *   154 warm POST /sweep  the whole Figure 8 sweep (44 cache hits each)
 *    44 warm POST /run    each Figure 8 job once (result-cache hit)
 *    22 cold POST /run    two unique baseline-ooo specs per kernel
 *    11 GET /results/<h>  one Figure 8 job per kernel
 *    11 GET /metrics
 *    11 malformed bodies  expected 400
 * so the work of a round is the same for every seed. No measured
 * caller mix exists; the ratios follow the callers in the repository
 * where they say something and are assumed where they do not:
 *   - cached : cold /run+/sweep = 90 : 10 (198 : 22), bench_serve's
 *     default --cached-pct;
 *   - the sweep body is the whole Figure 8 sweep that the CI cluster
 *     smoke posts and `dynaspam sweep --figure 8` runs;
 *   - the 7 : 2 split of cached requests into /sweep and /run, and one
 *     /results, /metrics and malformed request per kernel and round,
 *     are assumed.
 *
 * Every 200 body must equal, byte for byte, the in-process runner's
 * rendering of that spec. Set-up computes the Figure 8 results once,
 * stores them into the front end's result cache(s) and renders the
 * expected bytes. A cold spec differs from its kernel's baseline-ooo job
 * only in fields the baseline never reads (fabric count, trace length),
 * so its expected bytes come from the same result.
 */

#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness.hh"
#include "http_client.hh"
#include "spans.hh"

#include "cluster/coordinator.hh"
#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "runner/result_cache.hh"
#include "serve/http.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

using ds::runner::Job;
using ds::runner::JobOutcome;

enum class Cls : std::uint8_t
{
    RunWarm,
    SweepWarm,
    RunCold,
    ResultsGet,
    MetricsGet,
    Malformed,
};
constexpr std::size_t kClasses = 6;
const char *const kClassNames[kClasses] = {
    "run_warm", "sweep_warm", "run_cold", "results_get", "metrics_get",
    "malformed"};

/** Whole-figure sweeps per kernel in one round (154 of 253 requests). */
constexpr std::uint32_t kSweepsPerKernel = 14;
/** Unique cold /run specs per kernel in one round (22 of 253). */
constexpr std::uint32_t kColdPerKernel = 2;

/** Bodies every front end must refuse with 400. */
const char *const kMalformed[] = {
    "{\"workload\": \"BFS\", \"mode\": ",
    "{\"workload\": \"no-such-kernel\"}",
    "{\"workload\": \"BFS\", \"num_fabrics\": 0}",
    "[1, 2, 3]",
    "{\"workload\": \"BFS\", \"colour\": \"red\"}",
};
constexpr std::size_t kMalformedCount =
    sizeof(kMalformed) / sizeof(kMalformed[0]);

struct Request
{
    Cls cls = Cls::RunWarm;
    std::uint32_t index = 0;    ///< fig8 job, kernel or malformed body
                                ///< (unused for the whole-figure sweep)
    std::uint32_t unique = 0;   ///< cold spec id
};

std::string
specBody(const Job &job)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << job.workload << "\", \"mode\": \""
       << ds::sim::modeName(job.mode) << "\", \"trace_length\": "
       << job.traceLength << ", \"num_fabrics\": " << job.numFabrics
       << ", \"scale\": " << job.scale << "}";
    return os.str();
}

/** The whole Figure 8 sweep over every kernel, as the CI smoke posts
 *  it. */
std::string
sweepBody()
{
    return "{\"sweep\": \"fig8\", \"trace_length\": 32}";
}

/** A cold spec: the kernel's baseline with a fabric count and trace
 *  length no other request of the run uses. */
Job
coldJob(const std::string &kernel, std::uint32_t unique)
{
    return Job{kernel, ds::sim::SystemMode::BaselineOoo,
               16 + unique / 63, 2 + unique % 63, 1};
}

/** Sum of every sample of @p name in a Prometheus text body. */
double
scrape(const std::string &text, const std::string &name)
{
    double sum = 0.0;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t end = line.find_first_of("{ ");
        if (line.compare(0, end, name) != 0 || end != name.size())
            continue;
        sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
    return sum;
}

/** One front end under test: a Server, or a Coordinator + Workers. */
class FrontEnd
{
  public:
    virtual ~FrontEnd() = default;
    virtual unsigned port() const = 0;
};

class ServerFront : public FrontEnd
{
  public:
    ServerFront(const std::string &cache_dir, unsigned jobs)
    {
        ds::serve::ServerOptions o;
        o.port = 0;
        o.jobs = jobs;
        o.cacheDir = cache_dir;
        o.verbose = false;
        server = std::make_unique<ds::serve::Server>(o);
        server->start();
    }
    ~ServerFront() override
    {
        server->beginDrain();
        server->waitUntilDrained();
    }
    unsigned port() const override { return server->port(); }

  private:
    std::unique_ptr<ds::serve::Server> server;
};

class ClusterFront : public FrontEnd
{
  public:
    explicit ClusterFront(const std::vector<std::string> &cache_dirs)
    {
        ds::cluster::CoordinatorOptions co;
        co.httpPort = 0;
        co.workerPort = 0;
        co.workerSlots = unsigned(cache_dirs.size());
        co.verbose = false;
        coordinator = std::make_unique<ds::cluster::Coordinator>(co);
        coordinator->start();
        for (const std::string &dir : cache_dirs) {
            ds::cluster::WorkerOptions wo;
            wo.connectPort = coordinator->workerPort();
            wo.cacheDir = dir;
            wo.verbose = false;
            workers.push_back(std::make_unique<ds::cluster::Worker>(wo));
        }
        for (auto &w : workers)
            threads.emplace_back([&w] { w->run(); });
        // Enrollment is a loopback handshake; wait for it without
        // sleeping in coarse steps.
        while (coordinator->metrics().value(
                   "dynaspam_cluster_workers_connected") <
               double(workers.size()))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ~ClusterFront() override
    {
        coordinator->beginDrain();
        coordinator->waitUntilDrained();
        for (std::thread &t : threads)
            t.join();
    }
    unsigned port() const override { return coordinator->httpPort(); }

  private:
    std::unique_ptr<ds::cluster::Coordinator> coordinator;
    std::vector<std::unique_ptr<ds::cluster::Worker>> workers;
    std::vector<std::thread> threads;
};

/** Set-up products kept for the timed phase. */
struct Setup
{
    std::vector<Job> jobs;                     ///< fig8, canonical order
    std::vector<ds::sim::RunResult> refs;      ///< per job
    std::vector<std::string> runWarm;          ///< expected, per job
    std::string sweepWarm;                     ///< expected, whole figure
    std::vector<std::unique_ptr<ScratchDir>> dirs;
    std::unique_ptr<FrontEnd> front;
};

Outcome
runServing(const Options &opt, bool cluster)
{
    Outcome out;
    const unsigned lanes = hostLanes();
    // One closed-loop caller: with two, a sweep often waited behind the
    // other caller's cold simulation on a single-threaded worker.
    const unsigned clients = 1;
    const unsigned serverJobs = std::max(1u, lanes - clients);
    const std::vector<std::string> &names = kernels();
    const char *layer = cluster ? "cluster." : "serve.";
    const std::string tag = cluster ? "cluster_mixed" : "serve_mixed";

    Setup setup;
    for (const std::string &k : names)
        for (const Job &job : fig8Jobs(k))
            setup.jobs.push_back(job);

    auto reset = [&] {
        setup.front.reset();
        setup.dirs.clear();
    };
    auto build = [&] {
        const unsigned shards = cluster ? 2 : 1;
        for (unsigned s = 0; s < shards; s++)
            setup.dirs.push_back(std::make_unique<ScratchDir>(
                opt.stateDir + "/" + tag + "-cache-" + std::to_string(s)));

        setup.refs = runReferences(setup.jobs, lanes);
        for (const auto &dir : setup.dirs) {
            const ds::runner::ResultCache cache(dir->path());
            for (std::size_t j = 0; j < setup.jobs.size(); j++) {
                spans::Scope span("runner.result_cache_store");
                cache.store(setup.jobs[j], setup.refs[j]);
            }
        }
        setup.runWarm.clear();
        for (std::size_t j = 0; j < setup.jobs.size(); j++) {
            spans::Scope span("runner.report_render");
            setup.runWarm.push_back(
                renderRun(JobOutcome{setup.jobs[j], setup.refs[j], true}));
        }
        {
            spans::Scope span("runner.report_render");
            std::vector<JobOutcome> outs;
            for (std::size_t j = 0; j < setup.jobs.size(); j++)
                outs.push_back(JobOutcome{setup.jobs[j], setup.refs[j], true});
            setup.sweepWarm = renderSweep("fig8", outs);
        }

        if (cluster)
            setup.front = std::make_unique<ClusterFront>(
                std::vector<std::string>{setup.dirs[0]->path(),
                                         setup.dirs[1]->path()});
        else
            setup.front = std::make_unique<ServerFront>(
                setup.dirs[0]->path(), serverJobs);

        // Send every distinct warm request once, so the timed phase
        // starts with the front end's own state warm.
        HttpClient client(setup.front->port());
        std::string body;
        for (std::size_t j = 0; j < setup.jobs.size(); j++)
            if (client.exchange(httpRequest("POST", "/run",
                                            specBody(setup.jobs[j])),
                                body) != 200 ||
                body != setup.runWarm[j])
                out.fail(tag + ": set-up /run for " + setup.jobs[j].key() +
                         " differs from the in-process rendering");
        if (client.exchange(httpRequest("POST", "/sweep", sweepBody()),
                            body) != 200 ||
            body != setup.sweepWarm)
            out.fail(tag + ": set-up /sweep differs from the in-process "
                           "rendering");
    };
    repeatSetup(out, opt.smoke, reset, build);

    // The seeded stream: fixed class counts per round, seeded order and
    // seeded picks inside each class.
    Rng rng(opt.seed);
    const std::size_t rounds = opt.smoke ? 1 : 1024;
    std::vector<Request> stream;
    std::size_t roundSize = 0;
    std::uint32_t unique = 0;
    for (std::size_t round = 0; round < rounds; round++) {
        std::vector<Request> batch;
        for (std::uint32_t j = 0; j < setup.jobs.size(); j++)
            batch.push_back({Cls::RunWarm, j, 0});
        for (std::uint32_t k = 0; k < names.size(); k++) {
            for (std::uint32_t n = 0; n < kSweepsPerKernel; n++)
                batch.push_back({Cls::SweepWarm, 0, 0});
            for (std::uint32_t n = 0; n < kColdPerKernel; n++)
                batch.push_back({Cls::RunCold, k, unique++});
            batch.push_back(
                {Cls::ResultsGet, std::uint32_t(k * 4 + rng.below(4)), 0});
            batch.push_back({Cls::MetricsGet, 0, 0});
            batch.push_back(
                {Cls::Malformed, std::uint32_t(rng.below(kMalformedCount)), 0});
        }
        rng.shuffle(batch);
        roundSize = batch.size();
        stream.insert(stream.end(), batch.begin(), batch.end());
    }

    // Cold results: the kernel's baseline-ooo reference.
    auto baselineOf = [&](std::uint32_t k) -> const ds::sim::RunResult & {
        return setup.refs[k * 4];
    };
    auto wireOf = [&](const Request &q) {
        switch (q.cls) {
        case Cls::RunWarm:
            return httpRequest("POST", "/run", specBody(setup.jobs[q.index]));
        case Cls::SweepWarm:
            return httpRequest("POST", "/sweep", sweepBody());
        case Cls::RunCold:
            return httpRequest("POST", "/run",
                               specBody(coldJob(names[q.index], q.unique)));
        case Cls::ResultsGet:
            return httpRequest("GET",
                               "/results/" + setup.jobs[q.index].hashHex(),
                               "");
        case Cls::MetricsGet:
            return httpRequest("GET", "/metrics", "");
        case Cls::Malformed:
            break;
        }
        return httpRequest("POST", q.index % 2 ? "/sweep" : "/run",
                           kMalformed[q.index]);
    };

    std::vector<std::unique_ptr<HttpClient>> conns;
    for (unsigned c = 0; c < clients; c++)
        conns.push_back(std::make_unique<HttpClient>(setup.front->port()));
    std::vector<std::uint8_t> opStatus(stream.size(), 0);
    std::mutex errMutex;

    auto op = [&](std::uint64_t i, unsigned lane) {
        const Request &q = stream[i];
        const std::string wire = wireOf(q);
        std::string body;
        int status;
        {
            spans::Scope span(std::string(layer) +
                              kClassNames[std::size_t(q.cls)]);
            status = conns[lane]->exchange(wire, body);
        }
        bool good = false;
        std::string cold;
        switch (q.cls) {
        case Cls::RunWarm:
            good = status == 200 && body == setup.runWarm[q.index];
            break;
        case Cls::SweepWarm:
            good = status == 200 && body == setup.sweepWarm;
            break;
        case Cls::RunCold:
            cold = renderRun(JobOutcome{coldJob(names[q.index], q.unique),
                                        baselineOf(q.index), false});
            good = status == 200 && body == cold;
            break;
        case Cls::ResultsGet:
            // The coordinator does not serve /results (its results live
            // in the workers' shard caches) and answers 404; a 200 from
            // either front end must be the cached rendering.
            good = (status == 200 && body == setup.runWarm[q.index]) ||
                   (cluster && status == 404);
            break;
        case Cls::MetricsGet:
            good = status == 200 &&
                   body.find("dynaspam_http_requests_total") !=
                       std::string::npos;
            break;
        case Cls::Malformed:
            good = status == 400;
            break;
        }
        opStatus[i] = std::uint8_t(status == 429 || status == 503 ? 1 : 0);

        if (spans::enabled()) {
            // Replay, under spans, the public calls the front end makes
            // for this request: parse it, load warm results from the
            // cache, render the report; on the cluster also the batch
            // and result frames.
            ds::serve::HttpRequest parsed;
            std::size_t consumed = 0;
            {
                spans::Scope span("serve.parse");
                ds::serve::parseHttpRequest(wire, 1 << 20, parsed, consumed);
            }
            std::vector<Job> jobs;
            if (q.cls == Cls::RunWarm)
                jobs = {setup.jobs[q.index]};
            else if (q.cls == Cls::SweepWarm)
                jobs = setup.jobs;
            if (!jobs.empty()) {
                const ds::runner::ResultCache cache(setup.dirs[0]->path());
                std::vector<JobOutcome> outs;
                for (const Job &job : jobs) {
                    spans::Scope span("runner.result_cache_load");
                    auto cached = cache.load(job);
                    if (!cached)
                        return false;
                    outs.push_back(JobOutcome{job, std::move(*cached), true});
                }
                std::string replay;
                {
                    spans::Scope span("runner.report_render");
                    replay = q.cls == Cls::RunWarm ? renderRun(outs.front())
                                                   : renderSweep("fig8", outs);
                }
                good = good && replay == body;
                if (cluster) {
                    // The workers' pre-rendered entry fragments.
                    std::vector<ds::cluster::RawEntry> fragments;
                    {
                        spans::Scope span("runner.report_render");
                        for (const JobOutcome &o : outs)
                            fragments.push_back(
                                {true, ds::runner::sweepEntryJson(o).dumpAt(
                                           ds::cluster::kReportIndent,
                                           ds::cluster::kEntryFragmentDepth)});
                    }
                    std::string batch, result;
                    {
                        spans::Scope span("cluster.frame_encode");
                        ds::json::Array specs;
                        for (const Job &job : jobs)
                            specs.push_back(ds::runner::jobToJson(job));
                        ds::json::Object payload;
                        payload.emplace("id", std::uint64_t(i));
                        payload.emplace("jobs", std::move(specs));
                        batch = ds::cluster::encodeFrame(
                            ds::cluster::FrameType::Batch,
                            ds::json::Value(std::move(payload)).dump());
                        result = ds::cluster::encodeFrame(
                            ds::cluster::FrameType::ResultRaw,
                            ds::cluster::encodeResultRaw(i, fragments));
                    }
                    spans::Scope span("cluster.frame_decode");
                    ds::cluster::Frame frame;
                    std::size_t used = 0;
                    std::uint64_t id = 0;
                    std::vector<ds::cluster::RawEntry> entries;
                    good = good &&
                           ds::cluster::decodeFrame(batch, frame, used) ==
                               ds::cluster::DecodeOutcome::Ok &&
                           ds::cluster::decodeFrame(result, frame, used) ==
                               ds::cluster::DecodeOutcome::Ok &&
                           ds::cluster::decodeResultRaw(frame.payload, id,
                                                        entries) &&
                           entries.size() == outs.size();
                }
            }
        }
        if (!good) {
            std::lock_guard<std::mutex> lock(errMutex);
            if (out.errors.size() < 8)
                out.errors.push_back(
                    tag + ": " + kClassNames[std::size_t(q.cls)] +
                    " request got status " + std::to_string(status) +
                    " or a body that differs from the in-process rendering");
        }
        return good;
    };

    const LoopResult loop = runClosedLoop(
        clients, opt.smoke ? 1e9 : opt.seconds,
        opt.smoke ? std::uint64_t(roundSize) : stream.size(), op);
    absorb(out, loop, clients + (cluster ? 2 : serverJobs));

    // What the front end counted must match the requests it answered,
    // set-up's warm-up pass (every job by /run, then one sweep) included.
    auto cacheHitsOf = [&](Cls cls) -> std::uint64_t {
        return cls == Cls::RunWarm     ? 1
               : cls == Cls::SweepWarm ? setup.jobs.size()
                                       : 0;
    };
    std::uint64_t expHits = 2 * setup.jobs.size();
    std::uint64_t expMisses = 0, rejects = 0;
    for (std::uint64_t i = 0; i < loop.attempted; i++) {
        const Request &q = stream[i];
        rejects += opStatus[i];
        expHits += cacheHitsOf(q.cls);
        if (q.cls == Cls::RunCold) {
            expMisses += 1;
            if (loop.ok[i])
                out.committedInsts += baselineOf(q.index).instsTotal;
        }
    }
    std::string metrics;
    HttpClient scraper(setup.front->port());
    if (scraper.exchange(httpRequest("GET", "/metrics", ""), metrics) != 200)
        out.fail(tag + ": final /metrics scrape failed");
    const double hits = scrape(metrics, "dynaspam_cache_hits_total");
    const double misses = scrape(metrics, "dynaspam_cache_misses_total");
    if (hits != double(expHits) || misses != double(expMisses))
        out.fail(tag + ": /metrics counts " + std::to_string(hits) +
                 " cache hits / " + std::to_string(misses) +
                 " misses, the requests imply " + std::to_string(expHits) +
                 " / " + std::to_string(expMisses));

    auto resultOf = [&](const Job &job) -> const ds::sim::RunResult & {
        for (std::size_t j = 0; j < setup.jobs.size(); j++)
            if (setup.jobs[j] == job)
                return setup.refs[j];
        throw std::logic_error("job outside the fig8 set");
    };
    out.fig8Gap = fig8Gap(resultOf);

    // Work of one round, the same for every seed.
    for (std::size_t k = 0; k < names.size(); k++)
        addSimCounters(out.counters, baselineOf(std::uint32_t(k)));
    for (std::size_t i = 0; i < roundSize; i++) {
        const Cls cls = stream[i].cls;
        out.counters[std::string("requests.") +
                     kClassNames[std::size_t(cls)]]++;
        out.counters["server.cache_hits"] += cacheHitsOf(cls);
        out.counters["server.jobs_executed"] += cls == Cls::RunCold ? 1 : 0;
    }
    simLayerMetrics(out.counters, out.layers);

    out.layers[std::string(layer) + "rejects"] = {double(rejects), "count"};
    const double lookups = hits + misses;
    out.layers["runner.result_cache_hit_ratio"] = {
        lookups > 0 ? hits / lookups : 0.0, "ratio"};
    if (cluster) {
        out.layers["cluster.reassignments"] = {
            scrape(metrics, "dynaspam_cluster_batch_retries_total"),
            "count"};
        out.layers["cluster.worker_warmups"] = {
            scrape(metrics, "dynaspam_cluster_worker_warmups"), "count"};
    }
    return out;
}

} // namespace

Outcome
runServeMixed(const Options &opt)
{
    return runServing(opt, false);
}

Outcome
runClusterMixed(const Options &opt)
{
    return runServing(opt, true);
}

} // namespace perfbench
