#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>

#include "common/json.hh"

namespace perfbench::spans
{
namespace
{

struct Record
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    unsigned tid = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

std::atomic<bool> on{false};
std::atomic<std::uint64_t> nextId{1};
std::atomic<unsigned> nextTid{1};

std::mutex recordsMutex;
std::vector<Record> records;    // guarded by recordsMutex

thread_local std::vector<std::uint64_t> openSpans;
thread_local unsigned threadTid = 0;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<Record>
snapshotRecords()
{
    std::lock_guard<std::mutex> lock(recordsMutex);
    return records;
}

} // namespace

void
enable(bool enable_spans)
{
    on.store(enable_spans);
}

bool
enabled()
{
    return on.load(std::memory_order_relaxed);
}

Scope::Scope(std::string span_name)
{
    if (!enabled())
        return;
    name = std::move(span_name);
    id = nextId.fetch_add(1);
    parent = openSpans.empty() ? 0 : openSpans.back();
    openSpans.push_back(id);
    startNs = nowNs();
}

Scope::~Scope()
{
    if (id == 0)
        return;
    const std::int64_t endNs = nowNs();
    openSpans.pop_back();
    if (threadTid == 0)
        threadTid = nextTid.fetch_add(1);
    std::lock_guard<std::mutex> lock(recordsMutex);
    records.push_back(
        Record{std::move(name), id, parent, threadTid, startNs, endNs});
}

std::vector<Row>
table()
{
    const std::vector<Record> all = snapshotRecords();
    // Children run on their parent's thread, nested and one after the
    // other, so the time they cover is the sum of their durations.
    std::map<std::uint64_t, std::int64_t> childNs;
    for (const Record &r : all)
        if (r.parent)
            childNs[r.parent] += r.endNs - r.startNs;

    std::map<std::string, Row> rows;
    for (const Record &r : all) {
        Row &row = rows[r.name];
        row.name = r.name;
        const double durMs = double(r.endNs - r.startNs) / 1e6;
        auto it = childNs.find(r.id);
        const double childMs =
            it == childNs.end() ? 0.0 : double(it->second) / 1e6;
        row.count++;
        row.totalMs += durMs;
        row.selfMs += durMs - childMs;
        row.durationsMs.push_back(durMs);
    }
    std::vector<Row> out;
    for (auto &kv : rows)
        out.push_back(std::move(kv.second));
    std::sort(out.begin(), out.end(), [](const Row &a, const Row &b) {
        return a.selfMs > b.selfMs;
    });
    return out;
}

bool
writeChromeTrace(const std::string &path)
{
    const std::vector<Record> all = snapshotRecords();
    std::int64_t origin = 0;
    if (!all.empty()) {
        origin = all.front().startNs;
        for (const Record &r : all)
            origin = std::min(origin, r.startNs);
    }
    dynaspam::json::Array events;
    events.reserve(all.size());
    for (const Record &r : all) {
        dynaspam::json::Object args;
        args.emplace("id", r.id);
        args.emplace("parent", r.parent);
        dynaspam::json::Object ev;
        ev.emplace("name", r.name);
        ev.emplace("cat", r.name.substr(0, r.name.find('.')));
        ev.emplace("ph", "X");
        ev.emplace("pid", std::uint64_t(1));
        ev.emplace("tid", std::uint64_t(r.tid));
        ev.emplace("ts", double(r.startNs - origin) / 1e3);
        ev.emplace("dur", double(r.endNs - r.startNs) / 1e3);
        ev.emplace("args", std::move(args));
        events.emplace_back(std::move(ev));
    }
    dynaspam::json::Object doc;
    doc.emplace("traceEvents", std::move(events));
    doc.emplace("displayTimeUnit", "ms");
    std::ofstream os(path);
    if (!os)
        return false;
    dynaspam::json::Value(std::move(doc)).write(os, 0);
    os << "\n";
    return bool(os);
}

bool
writeTable(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "%-36s %10s %14s %14s %10s\n", "span", "count",
                 "total_ms", "self_ms", "self_%");
    double allSelf = 0.0;
    const std::vector<Row> rows = table();
    for (const Row &r : rows)
        allSelf += r.selfMs;
    for (const Row &r : rows)
        std::fprintf(f, "%-36s %10llu %14.3f %14.3f %9.2f%%\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.count), r.totalMs,
                     r.selfMs,
                     allSelf > 0.0 ? 100.0 * r.selfMs / allSelf : 0.0);
    return std::fclose(f) == 0;
}

} // namespace perfbench::spans
