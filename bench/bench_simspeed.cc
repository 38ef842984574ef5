/**
 * @file
 * Simulator-throughput benchmark: committed kilo-instructions per
 * CPU-second (KIPS) of the simulating thread, per workload, host-only
 * (baseline-ooo) and fabric-enabled (accel-spec).
 *
 * This is the repo's first *simulator speed* trajectory (all other
 * benches report simulated cycles, which are wall-time independent).
 * It exists so cycle-engine optimizations have a measurable target and
 * so CI can gate on throughput regressions.
 *
 *   bench_simspeed [--scale N] [--repeat N] [--workloads a,b,c]
 *                  [--out FILE] [--baseline FILE] [--tolerance FRAC]
 *
 * Each (workload, mode) point is simulated --repeat times (default 3)
 * with the result cache disabled; the median and interquartile range of
 * the runs are reported. KIPS counts *committed program instructions*
 * (result.instsTotal) against the CPU time the calling thread spends in
 * the whole runner::execute call (functional pass + timing pass), read
 * from CLOCK_THREAD_CPUTIME_ID: time the thread waits for a core on a
 * busy host is not charged, so the figure tracks the simulator's own
 * cost rather than its neighbours'.
 *
 * With --baseline, the emitted report is compared against a previously
 * checked-in report: the run fails (exit 1) if the geomean KIPS of
 * either mode drops more than --tolerance (default 0.25) below the
 * baseline. Per-workload deltas are printed but do not gate, since
 * single-point timings on shared CI hosts are noisy.
 *
 * Report schema: see EXPERIMENTS.md ("Simulator-throughput benchmark").
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "runner/job.hh"

using namespace dynaspam;
using runner::Job;
using sim::SystemMode;

namespace
{

/** CPU time consumed so far by the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Quantile @p q of ascending @p sorted, interpolating linearly. */
double
quantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - double(lo));
}

/** One timed simulation point: the median and interquartile range of
 *  its runs. */
struct Point
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double seconds = 0.0;       ///< median thread CPU seconds
    double secondsIqr = 0.0;
    double kips = 0.0;          ///< median
    double kipsIqr = 0.0;
};

Point
timePoint(const Job &job, unsigned repeat)
{
    Point point;
    std::vector<double> seconds, kips;
    for (unsigned i = 0; i < repeat; i++) {
        const double t0 = threadCpuSeconds();
        sim::RunResult res = runner::execute(job);
        const double secs = threadCpuSeconds() - t0;
        point.insts = res.instsTotal;
        point.cycles = res.cycles;
        seconds.push_back(secs);
        kips.push_back(secs > 0.0 ? double(res.instsTotal) / 1e3 / secs
                                  : 0.0);
    }
    std::sort(seconds.begin(), seconds.end());
    std::sort(kips.begin(), kips.end());
    point.seconds = quantile(seconds, 0.5);
    point.secondsIqr = quantile(seconds, 0.75) - quantile(seconds, 0.25);
    point.kips = quantile(kips, 0.5);
    point.kipsIqr = quantile(kips, 0.75) - quantile(kips, 0.25);
    return point;
}

json::Value
pointToJson(const Point &p)
{
    json::Object o;
    o["insts"] = p.insts;
    o["cycles"] = p.cycles;
    o["seconds"] = p.seconds;
    o["seconds_iqr"] = p.secondsIqr;
    o["kips"] = p.kips;
    o["kips_iqr"] = p.kipsIqr;
    return o;
}

double
geomeanKips(const json::Value &report, const char *mode)
{
    std::vector<double> vals;
    for (const auto &[name, modes] : report.at("workloads").asObject())
        vals.push_back(modes.at(mode).at("kips").asDouble());
    return geomean(vals);
}

int
usage()
{
    std::fprintf(stderr,
        "usage: bench_simspeed [--scale N] [--repeat N]\n"
        "                      [--workloads a,b,c] [--out FILE]\n"
        "                      [--baseline FILE] [--tolerance FRAC]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = 1;
    unsigned repeat = 3;
    double tolerance = 0.25;
    std::string out = "BENCH_simspeed.json";
    std::string baseline;
    std::vector<std::string> names = workloads::allWorkloadNames();

    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing value for ", flag);
            return argv[i];
        };
        if (flag == "--scale")
            scale = unsigned(std::stoul(value()));
        else if (flag == "--repeat")
            repeat = unsigned(std::stoul(value()));
        else if (flag == "--out")
            out = value();
        else if (flag == "--baseline")
            baseline = value();
        else if (flag == "--tolerance")
            tolerance = std::stod(value());
        else if (flag == "--workloads") {
            names.clear();
            std::stringstream ss(value());
            std::string item;
            while (std::getline(ss, item, ','))
                if (!item.empty())
                    names.push_back(
                        workloads::canonicalWorkloadName(item));
        } else {
            return usage();
        }
    }
    if (repeat == 0 || names.empty())
        return usage();

    std::printf("simspeed: scale %u, median (IQR) of %u run%s per point, "
                "thread CPU time\n",
                scale, repeat, repeat == 1 ? "" : "s");
    std::printf("%-6s %14s %20s %14s %20s\n", "bench", "host insts",
                "host KIPS", "fabric insts", "fabric KIPS");
    bench::rule(6);

    json::Object workloads_json;
    std::vector<double> host_kips, fabric_kips;
    for (const std::string &name : names) {
        const Point host =
            timePoint(Job{name, SystemMode::BaselineOoo, 32, 1, scale},
                      repeat);
        const Point fabric =
            timePoint(Job{name, SystemMode::AccelSpec, 32, 1, scale},
                      repeat);
        host_kips.push_back(host.kips);
        fabric_kips.push_back(fabric.kips);

        json::Object modes;
        modes["host"] = pointToJson(host);
        modes["fabric"] = pointToJson(fabric);
        workloads_json[name] = std::move(modes);

        std::printf("%-6s %14llu %10.1f (%7.1f) %14llu %10.1f (%7.1f)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(host.insts), host.kips,
                    host.kipsIqr,
                    static_cast<unsigned long long>(fabric.insts),
                    fabric.kips, fabric.kipsIqr);
    }
    bench::rule(6);

    json::Object report_obj;
    report_obj["schema_version"] = 2u;
    report_obj["name"] = "simspeed";
    report_obj["clock"] = "thread-cpu";
    report_obj["scale"] = scale;
    report_obj["repeat"] = repeat;
    report_obj["workloads"] = std::move(workloads_json);
    json::Object geo;
    geo["host_kips"] = geomean(host_kips);
    geo["fabric_kips"] = geomean(fabric_kips);
    report_obj["geomean"] = std::move(geo);
    const json::Value report{std::move(report_obj)};

    std::printf("%-6s %14s %10.1f %9s %14s %10.1f %9s (geomean)\n", "geo",
                "", geomean(host_kips), "", "", geomean(fabric_kips), "");

    {
        std::ofstream os(out);
        if (!os)
            fatal("cannot write ", out);
        report.write(os, 2);
        os << "\n";
    }
    std::printf("report written to %s\n", out.c_str());

    if (baseline.empty())
        return 0;

    // --- Regression gate against the checked-in baseline ---
    std::ifstream is(baseline);
    if (!is)
        fatal("cannot read baseline ", baseline);
    std::stringstream buf;
    buf << is.rdbuf();
    const json::Value base = json::Value::parse(buf.str());

    int failed = 0;
    for (const char *mode : {"host", "fabric"}) {
        const double base_geo = geomeanKips(base, mode);
        // A non-positive baseline would make the floor 0 (or NaN) and
        // wave every regression through; a baseline file like that is
        // corrupt, so fail loudly instead of gating against nothing.
        if (!(base_geo > 0.0)) {
            fatal("baseline ", baseline, " has non-positive ", mode,
                  " geomean ", base_geo, " — regenerate it");
        }
        const double cur_geo = geomeanKips(report, mode);
        const double floor = base_geo * (1.0 - tolerance);
        const bool ok = cur_geo >= floor;
        std::printf("gate: %-6s geomean %10.1f KIPS vs baseline %10.1f "
                    "(floor %10.1f, tol %.0f%%)  %s\n",
                    mode, cur_geo, base_geo, floor, tolerance * 100.0,
                    ok ? "ok" : "REGRESSION");
        if (!ok)
            failed = 1;
    }
    return failed;
}
