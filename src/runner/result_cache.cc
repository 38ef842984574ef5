#include "runner/result_cache.hh"

#include <filesystem>
#include <sstream>

#include "common/logging.hh"
#include "runner/file_store.hh"
#include "runner/report.hh"

namespace dynaspam::runner
{

namespace fs = std::filesystem;

using file_store::slurp;
using file_store::touch;

ResultCache::ResultCache(std::string dir_, std::string epoch_)
    : dir(std::move(dir_)), epoch(std::move(epoch_))
{
}

std::string
ResultCache::pathFor(const Job &job) const
{
    return (fs::path(dir) / (job.hashHex() + ".json")).string();
}

std::optional<std::pair<Job, sim::RunResult>>
ResultCache::readEntry(const std::string &path, const Job *expected) const
{
    std::optional<std::string> text = slurp(path);
    if (!text)
        return std::nullopt;
    try {
        json::Value doc = json::Value::parse(*text);
        if (doc.at("epoch").asString() != epoch)
            return std::nullopt;
        Job job = expected ? *expected : jobFromJson(doc.at("job"));
        if (doc.at("key").asString() != job.key())
            return std::nullopt;
        sim::RunResult result = resultFromJson(doc.at("result"));
        touch(path);
        return std::make_pair(std::move(job), std::move(result));
    } catch (const FatalError &) {
        // Corrupt or stale-schema entry: fall back to simulation.
        return std::nullopt;
    }
}

std::optional<sim::RunResult>
ResultCache::load(const Job &job) const
{
    if (!enabled())
        return std::nullopt;
    auto entry = readEntry(pathFor(job), &job);
    if (!entry)
        return std::nullopt;
    return std::move(entry->second);
}

std::optional<std::pair<Job, sim::RunResult>>
ResultCache::loadByHash(const std::string &hash_hex) const
{
    // The stem is attacker-adjacent (it arrives in a URL); only a
    // 16-char lowercase hex string may touch the filesystem.
    if (!enabled() || hash_hex.size() != 16 ||
        hash_hex.find_first_not_of("0123456789abcdef") != std::string::npos)
        return std::nullopt;
    return readEntry((fs::path(dir) / (hash_hex + ".json")).string(),
                     nullptr);
}

void
ResultCache::store(const Job &job, const sim::RunResult &result) const
{
    if (!enabled())
        return;

    json::Object doc;
    doc.emplace("epoch", epoch);
    doc.emplace("key", job.key());
    doc.emplace("job", jobToJson(job));
    doc.emplace("result", resultToJson(result));
    std::ostringstream os;
    json::Value(std::move(doc)).write(os, 2);
    os << "\n";
    file_store::write(dir, pathFor(job), os.str(), "result cache");
}

CacheGcStats
ResultCache::gc(std::uint64_t max_bytes) const
{
    if (!enabled())
        return {};
    return file_store::gc(
        dir, ".json",
        [this](const std::string &text) {
            try {
                return json::Value::parse(text).at("epoch").asString() ==
                       epoch;
            } catch (const FatalError &) {
                return false;
            }
        },
        max_bytes);
}

} // namespace dynaspam::runner
