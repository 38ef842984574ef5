/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload {simulate|sweep_fork|serve_mixed|cluster_mixed}
 *             --seed N --seconds S --trace {0|1} [--smoke]
 *             [--state-dir DIR] [--git-commit SHA] [--source-digest HEX]
 *
 * Prints one detail line (`perfbench-detail: {...}`: host fingerprint,
 * work counters, error rate, traced overhead) and, last, the result
 * line `{"correct", "attempted", "failed", "metrics"}`. With --trace 0
 * the metrics are the end-to-end ones; with --trace 1 spans are on, the
 * metrics are the per-layer ones, and the span file (Chrome trace-event
 * JSON) plus a self-time table are written under the state directory.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hh"
#include "spans.hh"

#include "common/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
namespace json = dynaspam::json;

namespace
{

/** Mean duration per call of these spans becomes `<span>_ms`. */
const char *const kSpanMetrics[] = {
    "workloads.make",
    "sim.input_make",
    "sim.run",
    "sim.warm",
    "sim.snapshot",
    "sim.restore",
    "sim.serialize",
    "sim.deserialize",
    "runner.run_all",
    "runner.snapshot_cache_load",
    "runner.snapshot_cache_store",
    "runner.result_cache_load",
    "runner.result_cache_store",
    "runner.report_render",
    "serve.parse",
    "cluster.frame_encode",
    "cluster.frame_decode",
};

/** Median duration of these request spans becomes `<span>_ms`. */
const char *const kRequestSpans[] = {
    "run_warm", "run_cold", "sweep_warm", "results_get", "metrics_get",
};

/** Per-layer metrics only some workloads produce; zero elsewhere. */
const std::pair<const char *, const char *> kLayerDefaults[] = {
    {"sim.snapshot_bytes", "B"},
    {"runner.warmups", "count"},
    {"runner.snapshot_hit_ratio", "ratio"},
    {"runner.result_cache_hit_ratio", "ratio"},
    {"serve.rejects", "count"},
    {"cluster.rejects", "count"},
    {"cluster.reassignments", "count"},
    {"cluster.worker_warmups", "count"},
};

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

json::Value
toJson(const MetricMap &metrics)
{
    json::Object o;
    for (const auto &kv : metrics) {
        json::Object m;
        m.emplace("value", kv.second.value);
        m.emplace("unit", kv.second.unit);
        o.emplace(kv.first, std::move(m));
    }
    return json::Value(std::move(o));
}

MetricMap
endToEnd(const Outcome &out)
{
    MetricMap m;
    const double ops = double(out.attempted);
    m["setup_s"] = {median(out.setupSeconds), "s"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    m["sim_kips"] = {double(out.committedInsts) / 1e3 / out.cpuSeconds,
                     "kinst/CPU-s"};
    m["cpu_ms_per_op"] = {out.cpuSeconds * 1e3 / ops, "ms"};
    m["ops_per_s"] = {ops / out.wallSeconds, "1/s"};
    m["op_p50_ms"] = {quantile(out.latencyMs, 0.50), "ms"};
    m["op_p99_ms"] = {quantile(out.latencyMs, 0.99), "ms"};
    m["fig8_gap"] = {out.fig8Gap, "ratio"};
    return m;
}

MetricMap
perLayer(const Outcome &out)
{
    std::map<std::string, spans::Row> rows;
    for (spans::Row &r : spans::table())
        rows[r.name] = std::move(r);
    auto rowOf = [&](const std::string &name) {
        auto it = rows.find(name);
        return it == rows.end() ? spans::Row{} : it->second;
    };

    MetricMap m = out.layers;
    for (const char *name : kSpanMetrics) {
        const spans::Row row = rowOf(name);
        m[std::string(name) + "_ms"] = {
            row.count ? row.totalMs / double(row.count) : 0.0, "ms"};
    }
    for (const char *layer : {"serve.", "cluster."})
        for (const char *req : kRequestSpans) {
            const std::string name = std::string(layer) + req;
            m[name + "_ms"] = {median(rowOf(name).durationsMs), "ms"};
        }
    const double runNs = rowOf("sim.run").totalMs * 1e6;
    m["sim.ns_per_cycle"] = {
        simWorkCycles() ? runNs / double(simWorkCycles()) : 0.0, "ns"};
    m["sim.ns_per_inst"] = {
        simWorkInsts() ? runNs / double(simWorkInsts()) : 0.0, "ns"};
    m["runner.cpu_utilization"] = {
        out.cpuSeconds / (out.wallSeconds * double(out.threads)), "ratio"};
    for (const auto &[name, unit] : kLayerDefaults)
        m.emplace(name, Metric{0.0, unit});
    return m;
}

/**
 * Traced minus untraced on each end-to-end metric, against the last
 * untraced run of this workload recorded in the state directory.
 */
json::Value
tracingOverhead(const std::string &path, const MetricMap &traced)
{
    std::ifstream is(path);
    if (!is)
        return json::Value("no untraced run recorded yet");
    std::stringstream buf;
    buf << is.rdbuf();
    const json::Value base = json::Value::parse(buf.str());
    json::Object o;
    for (const auto &kv : traced) {
        const json::Value *b = base.find(kv.first);
        if (!b)
            continue;
        const double untraced = b->at("value").asDouble();
        json::Object row;
        row.emplace("untraced", untraced);
        row.emplace("traced", kv.second.value);
        row.emplace("delta", kv.second.value - untraced);
        o.emplace(kv.first, std::move(row));
    }
    return json::Value(std::move(o));
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--state-dir DIR]\n"
                 "                 [--git-commit SHA] "
                 "[--source-digest HEX]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::stoull(value);
        else if (flag == "--seconds")
            opt.seconds = std::stod(value);
        else if (flag == "--trace")
            opt.trace = value == "1";
        else if (flag == "--state-dir")
            opt.stateDir = value;
        else if (flag == "--git-commit")
            opt.gitCommit = value;
        else if (flag == "--source-digest")
            opt.sourceDigest = value;
        else
            return usage();
    }
    spans::enable(opt.trace);

    Outcome out;
    if (opt.workload == "simulate")
        out = runSimulate(opt);
    else if (opt.workload == "sweep_fork")
        out = runSweepFork(opt);
    else if (opt.workload == "serve_mixed")
        out = runServeMixed(opt);
    else if (opt.workload == "cluster_mixed")
        out = runClusterMixed(opt);
    else
        return usage();

    const std::string drift =
        checkCounterRecord(opt.stateDir, opt.workload, opt.sourceDigest,
                           out.counters);
    if (!drift.empty())
        out.fail(drift);

    const MetricMap e2e = endToEnd(out);
    const std::string base = opt.stateDir + "/" + opt.workload;
    json::Object detail;
    if (opt.trace) {
        const std::string spanFile = base + ".spans.json";
        const std::string tableFile = base + ".self_time.txt";
        if (!spans::writeChromeTrace(spanFile) ||
            !spans::writeTable(tableFile))
            out.fail("cannot write " + spanFile + " or " + tableFile);
        detail.emplace("span_file", spanFile);
        detail.emplace("self_time_table", tableFile);
        detail.emplace("tracing_overhead",
                       tracingOverhead(base + ".untraced.json", e2e));
    } else {
        std::ofstream os(base + ".untraced.json");
        toJson(e2e).write(os, 2);
    }
    const MetricMap metrics = opt.trace ? perLayer(out) : e2e;

    bool finite = true;
    for (const auto &kv : metrics)
        finite = finite && std::isfinite(kv.second.value);
    if (!finite || out.fig8Gap < 0.0)
        out.fail("a metric is not finite or fig8_gap was not computed");

    json::Object host;
    host.emplace("nproc", std::uint64_t(hostLanes()));
    host.emplace("cpu_model", cpuModel());
    host.emplace("compiler", std::string("gcc ") + __VERSION__);
    host.emplace("build_type", PERFBENCH_BUILD_TYPE);
    host.emplace("git_commit", opt.gitCommit);
    host.emplace("source_digest", opt.sourceDigest);
    host.emplace("seed", opt.seed);
    json::Object counters;
    for (const auto &kv : out.counters)
        counters.emplace(kv.first, kv.second);
    json::Array setups, errors, deciles;
    for (double s : out.setupSeconds)
        setups.emplace_back(s);
    for (int d = 1; d < 10; d++)
        deciles.emplace_back(quantile(out.latencyMs, d / 10.0));
    for (const std::string &e : out.errors)
        errors.emplace_back(e);
    detail.emplace("workload", opt.workload);
    detail.emplace("host", std::move(host));
    detail.emplace("error_rate", out.attempted ? double(out.failed) /
                                                     double(out.attempted)
                                               : 1.0);
    detail.emplace("ops_with_latency", std::uint64_t(out.latencyMs.size()));
    detail.emplace("op_latency_deciles_ms", std::move(deciles));
    detail.emplace("setup_s_each", std::move(setups));
    detail.emplace("work_counters_per_round", std::move(counters));
    detail.emplace("end_to_end", toJson(e2e));
    detail.emplace("errors", std::move(errors));
    std::printf("perfbench-detail: %s\n",
                json::Value(std::move(detail)).dump().c_str());

    json::Object result;
    // `failed` also counts whole-run checks (set-up bytes, /metrics,
    // the counter record); report it as a share of the ops attempted.
    result.emplace("correct", out.failed == 0 && out.attempted > 0);
    result.emplace("attempted", out.attempted);
    result.emplace("failed", std::min(out.failed, out.attempted));
    result.emplace("metrics", toJson(metrics));
    std::printf("%s\n", json::Value(std::move(result)).dump().c_str());
    return 0;
}
