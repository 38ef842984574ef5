#include "runner/file_store.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/interrupt.hh"
#include "common/logging.hh"

namespace dynaspam::runner::file_store
{

namespace fs = std::filesystem;

std::optional<std::string>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
touch(const std::string &path)
{
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

void
write(const std::string &dir, const std::string &path,
      const std::string &bytes, const char *what)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        warn(what, ": cannot create ", dir, ": ", ec.message());
        return;
    }

    // Unique temp name per writer so concurrent stores never interleave;
    // rename() is atomic within a filesystem.
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp." << ::getpid() << "."
             << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp_path = tmp_name.str();

    // Register the temp file so a SIGINT that lands mid-write unlinks
    // it instead of stranding writer litter in the cache directory.
    const int cleanup = interrupt::registerCleanupFile(tmp_path.c_str());
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (!out) {
            warn(what, ": cannot write ", tmp_path);
            interrupt::unregisterCleanupFile(cleanup);
            return;
        }
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    fs::rename(tmp_path, path, ec);
    interrupt::unregisterCleanupFile(cleanup);
    if (ec) {
        warn(what, ": rename to ", path, " failed: ", ec.message());
        fs::remove(tmp_path, ec);
    }
}

CacheGcStats
gc(const std::string &dir, const std::string &suffix,
   const std::function<bool(const std::string &)> &valid,
   std::uint64_t max_bytes)
{
    CacheGcStats stats;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return stats;    // absent directory: nothing to collect

    struct Entry
    {
        std::string path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> live;

    for (const fs::directory_entry &de : it) {
        if (!de.is_regular_file(ec) || ec)
            continue;
        const std::string path = de.path().string();
        const std::string name = de.path().filename().string();
        const std::uint64_t size = de.file_size(ec);
        if (ec)
            continue;

        // Writer litter from crashed/killed processes. Fresh temp files
        // (younger than the grace window) belong to live writers racing
        // this gc and must survive, or the racing store would lose its
        // file mid-write and strand the writer.
        if (name.find(".tmp.") != std::string::npos) {
            const fs::file_time_type mtime = de.last_write_time(ec);
            if (ec)
                continue;
            const auto age = fs::file_time_type::clock::now() - mtime;
            if (age < std::chrono::seconds(kCacheTmpGraceSeconds))
                continue;
            if (fs::remove(path, ec))
                stats.tmpRemoved++;
            continue;
        }
        if (name.size() < suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;

        stats.scanned++;
        stats.bytesBefore += size;

        const std::optional<std::string> bytes = slurp(path);
        if (!bytes || !valid(*bytes)) {
            if (fs::remove(path, ec))
                stats.staleEvicted++;
            continue;
        }
        live.push_back(Entry{path, size, de.last_write_time(ec)});
    }

    std::uint64_t total = 0;
    for (const Entry &e : live)
        total += e.size;

    if (max_bytes && total > max_bytes) {
        // Oldest mtime first; loads touch entries on every hit, so
        // this is true least-recently-used order. Path is the
        // tie-breaker to keep eviction deterministic for equal mtimes.
        std::sort(live.begin(), live.end(),
                  [](const Entry &a, const Entry &b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.path < b.path;
                  });
        for (const Entry &e : live) {
            if (total <= max_bytes)
                break;
            if (fs::remove(e.path, ec)) {
                stats.lruEvicted++;
                total -= e.size;
            }
        }
    }
    stats.bytesAfter = total;
    return stats;
}

} // namespace dynaspam::runner::file_store
