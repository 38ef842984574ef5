/**
 * @file
 * Configuration cache implementation.
 */

#include "core/configcache.hh"

#include "common/logging.hh"

namespace dynaspam::core
{

ConfigCache::ConfigCache(const ConfigCacheParams &p)
    : params(p)
{
    if (!p.entries)
        fatal("configuration cache must have at least one entry");
    entries.resize(p.entries);
    const unsigned max_counter = bits::counterMax(p.counterBits);
    if (p.offloadThreshold > max_counter)
        fatal("offload threshold ", p.offloadThreshold,
              " exceeds counter range ", max_counter);
}

ConfigCache::InsertOutcome
ConfigCache::insert(std::uint64_t key, fabric::FabricConfig config)
{
    InsertOutcome outcome;
    Entry &entry = entries[indexOf(key)];
    if (entry.valid && entry.key != key) {
        statEvictions++;
        outcome.evicted = true;
        outcome.evictedKey = entry.key;
    }
    entry.valid = true;
    entry.key = key;
    entry.counter = 0;
    entry.config =
        std::make_shared<const fabric::FabricConfig>(std::move(config));
    statInsertions++;
    return outcome;
}

std::shared_ptr<const fabric::FabricConfig>
ConfigCache::find(std::uint64_t key) const
{
    const Entry &entry = entries[indexOf(key)];
    if (entry.valid && entry.key == key)
        return entry.config;
    return nullptr;
}

bool
ConfigCache::recordPrediction(std::uint64_t key)
{
    lookups++;
    if (params.clearInterval && lookups % params.clearInterval == 0) {
        for (Entry &entry : entries)
            entry.counter = 0;
    }

    Entry &entry = entries[indexOf(key)];
    if (!entry.valid || entry.key != key)
        return false;
    const unsigned max_counter = bits::counterMax(params.counterBits);
    if (entry.counter < max_counter)
        entry.counter++;
    return entry.counter >= params.offloadThreshold;
}

void
ConfigCache::penalize(std::uint64_t key)
{
    Entry &entry = entries[indexOf(key)];
    if (entry.valid && entry.key == key)
        entry.counter = 0;
}

bool
ConfigCache::readyToOffload(std::uint64_t key) const
{
    const Entry &entry = entries[indexOf(key)];
    return entry.valid && entry.key == key &&
           entry.counter >= params.offloadThreshold;
}

} // namespace dynaspam::core
