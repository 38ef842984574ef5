/**
 * @file
 * The DynaSpAM controller: implements the three-phase framework of
 * Section 3 (trace detection, trace mapping, trace offloading) by
 * attaching to the host OOO pipeline's TraceHooks interface.
 *
 * Detection: T-Cache trained by committed conditional branches.
 * Mapping: when fetch meets a hot trace that is not yet mapped, the
 * controller validates the predicted path, holds dispatch for a pipeline
 * drain, and installs the resource-aware priority policy; the finished
 * placement is stored in the configuration cache.
 * Offloading: once a mapped trace's saturation counter reaches the
 * threshold, invocations run on a spatial fabric as fat atomic ROB
 * entries. Multiple fabrics are managed with an LRU policy, and the
 * configuration lifetime of each fabric is tracked for Table 5.
 */

#ifndef DYNASPAM_CORE_CONTROLLER_HH
#define DYNASPAM_CORE_CONTROLLER_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/configcache.hh"
#include "core/mapping_policy.hh"
#include "core/session.hh"
#include "core/tcache.hh"
#include "core/walker.hh"
#include "fabric/fabric.hh"
#include "isa/trace.hh"
#include "memory/cache.hh"
#include "ooo/bpred.hh"
#include "ooo/hooks.hh"
#include "ooo/storesets.hh"

namespace dynaspam::trace
{
class TraceSink;
} // namespace dynaspam::trace

namespace dynaspam::core
{

/** Which mapping algorithm drives the trace-mapping phase. */
enum class MapperKind : std::uint8_t
{
    ResourceAware,  ///< the paper's contribution (Algorithms 1-3)
    NaiveOrder,     ///< CCA/DIF-style in-order baseline
};

/** DynaSpAM framework configuration. */
struct DynaSpamParams
{
    /** Preset trace length in instructions (paper sweeps 16-40). */
    unsigned traceLength = 32;

    /** Enable offloading (false = "mapping only" configuration). */
    bool enableOffload = true;

    /** Number of on-chip fabrics (Table 5 evaluates 1, 2, 4, 8). */
    unsigned numFabrics = 1;

    MapperKind mapper = MapperKind::ResourceAware;

    /**
     * Minimum cycles between mapping phases. Each mapping drains the
     * pipeline back-end, so unbounded re-mapping of thrashing trace sets
     * (evicted from the 16-entry configuration cache and re-detected)
     * would swamp branchy programs; rate-limiting reconfiguration is
     * the stated intent of the paper's periodic counter clearing.
     */
    Cycle mappingCooldown = 1500;

    TCacheParams tcache;
    ConfigCacheParams configCache;
    fabric::FabricParams fabricParams;
};

/** Framework statistics (feeds Figure 7 and Table 5). */
struct DynaSpamStats
{
    std::uint64_t tracesConsidered = 0;     ///< hot-trace fetch hits
    std::uint64_t mappingsStarted = 0;
    std::uint64_t mappingsCompleted = 0;
    std::uint64_t mappingsAborted = 0;
    std::uint64_t mappingsDiscarded = 0;    ///< completed but invalid
    std::uint64_t offloadsIssued = 0;
    std::uint64_t invocationsCommitted = 0;
    std::uint64_t invocationsSquashed = 0;     ///< at-fault squashes
    std::uint64_t invocationsCollateral = 0;   ///< swept by older squashes
    std::uint64_t hotNotMapped = 0;        ///< hot but no config yet
    std::uint64_t offloadBelowThreshold = 0;
    std::uint64_t offloadSuppressed = 0;
    std::uint64_t instsOffloaded = 0;       ///< committed via the fabric
    std::uint64_t reconfigurations = 0;

    std::uint64_t distinctMappedTraces = 0;
    std::uint64_t distinctOffloadedTraces = 0;

    /** Sum/count of invocations-per-configuration (Table 5 lifetime). */
    std::uint64_t lifetimeSum = 0;
    std::uint64_t lifetimeCount = 0;

    double
    avgConfigLifetime() const
    {
        return lifetimeCount ? double(lifetimeSum) / double(lifetimeCount)
                             : 0.0;
    }

    bool operator==(const DynaSpamStats &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("tracesConsidered", tracesConsidered);
        v("mappingsStarted", mappingsStarted);
        v("mappingsCompleted", mappingsCompleted);
        v("mappingsAborted", mappingsAborted);
        v("mappingsDiscarded", mappingsDiscarded);
        v("offloadsIssued", offloadsIssued);
        v("invocationsCommitted", invocationsCommitted);
        v("invocationsSquashed", invocationsSquashed);
        v("invocationsCollateral", invocationsCollateral);
        v("hotNotMapped", hotNotMapped);
        v("offloadBelowThreshold", offloadBelowThreshold);
        v("offloadSuppressed", offloadSuppressed);
        v("instsOffloaded", instsOffloaded);
        v("reconfigurations", reconfigurations);
        v("distinctMappedTraces", distinctMappedTraces);
        v("distinctOffloadedTraces", distinctOffloadedTraces);
        v("lifetimeSum", lifetimeSum);
        v("lifetimeCount", lifetimeCount);
    }
};

/**
 * Divergence detector for forked-sweep warmup (the shared-prefix phase
 * of runner fork groups). The warmup simulation runs under one
 * representative configuration of a group of jobs that differ only in
 * knobs the prefix never consults; the controller raises `fired` at the
 * FIRST decision point whose outcome depends on a knob that differs
 * within the group. Everything simulated from the preceding safe
 * snapshot onwards is then discarded, so the guard only detects — it
 * never alters behaviour.
 */
struct WarmupGuard
{
    /** Which knobs differ among the group's jobs. */
    bool offloadDiverges = false;       ///< DynaSpamParams::enableOffload
    bool memSpecDiverges = false;       ///< FabricParams::memorySpeculation
    bool mapperDiverges = false;        ///< DynaSpamParams::mapper
    bool numFabricsDiverges = false;    ///< DynaSpamParams::numFabrics

    /** Set at the first consult of a divergent knob. */
    bool fired = false;
};

/**
 * Mutable controller state of its own; the T-Cache, configuration
 * cache, fabrics and mapping policy keep theirs (see
 * DynaSpamController::SavedState).
 */
struct DynaSpamControllerState
{
    /** Pending offload: config, key and record count, from fetch until
     *  commit or squash. The fabric is selected when the invocation
     *  starts, not at fetch, so queued invocations of the previous
     *  configuration are not killed by an early reconfiguration. */
    struct PendingInvocation
    {
        fabric::SharedConfig config;
        std::uint64_t key = 0;
        std::uint32_t numRecords = 0;
        /** Pool index of the fabric that executed it (set at
         *  offloadStart); -1 = not started yet. */
        int startedOnIdx = -1;

        bool operator==(const PendingInvocation &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("config", config);
            v("key", key);
            v("numRecords", numRecords);
            v("startedOnIdx", startedOnIdx);
        }
    };

    /**
     * Pending offloads keyed by the invocation's first trace record:
     * a flat vector of (key, invocation) pairs in ascending key order.
     * Fetch appends (keys grow in fetch order), commit removes from the
     * front and squash-refetch cuts the back, so the vector's capacity
     * is reused and lookups are a binary search. Sorted pairs encode
     * exactly like a hashed map, whose entries the snapshot writer
     * emits sorted by key.
     */
    class PendingTable
    {
      public:
        using Entry = std::pair<SeqNum, PendingInvocation>;

        bool empty() const { return entries.empty(); }
        std::size_t size() const { return entries.size(); }
        auto begin() const { return entries.begin(); }
        auto end() const { return entries.end(); }

        PendingInvocation *
        find(SeqNum key)
        {
            auto it = lowerBound(key);
            return it != entries.end() && it->first == key ? &it->second
                                                           : nullptr;
        }

        /** Insert or overwrite the entry of @p key. */
        void
        assign(SeqNum key, PendingInvocation inv)
        {
            auto it = lowerBound(key);
            if (it != entries.end() && it->first == key)
                it->second = std::move(inv);
            else
                entries.emplace(it, key, std::move(inv));
        }

        void
        erase(SeqNum key)
        {
            auto it = lowerBound(key);
            if (it != entries.end() && it->first == key)
                entries.erase(it);
        }

        /** Drop every entry whose key is @p key or later. */
        void
        eraseFrom(SeqNum key)
        {
            while (!entries.empty() && entries.back().first >= key)
                entries.pop_back();
        }

        bool operator==(const PendingTable &) const = default;

        /** Keys ascend strictly (checked on decode). */
        bool
        wellFormed() const
        {
            return std::adjacent_find(entries.begin(), entries.end(),
                                      [](const Entry &a, const Entry &b) {
                                          return !(a.first < b.first);
                                      }) == entries.end();
        }

        template <class V>
        void
        fields(V &v)
        {
            v("entries", entries);
        }

      private:
        std::vector<Entry>::iterator
        lowerBound(SeqNum key)
        {
            return std::lower_bound(
                entries.begin(), entries.end(), key,
                [](const Entry &e, SeqNum k) { return e.first < k; });
        }

        std::vector<Entry> entries;
    };

    /** The mapping session of the phase in progress, if one is open. */
    std::optional<MappingSession> session;
    bool mappingInProgress = false;
    std::uint64_t mappingKey = 0;
    Cycle lastMappingStart = 0;

    PendingTable pending;

    /** After a squash at this record, execute it on the host once. */
    std::unordered_set<SeqNum> suppressed;

    std::unordered_set<std::uint64_t> mappedKeys;
    std::unordered_set<std::uint64_t> offloadedKeys;
    /** Traces whose mapping failed: don't retry them (an infeasible
     *  schedule stays infeasible while the trace shape is stable). */
    std::unordered_set<std::uint64_t> failedKeys;

    DynaSpamStats dstats;

    bool operator==(const DynaSpamControllerState &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("session", session);
        v("mappingInProgress", mappingInProgress);
        v("mappingKey", mappingKey);
        v("lastMappingStart", lastMappingStart);
        v("pending", pending);
        v("suppressed", suppressed);
        v("mappedKeys", mappedKeys);
        v("offloadedKeys", offloadedKeys);
        v("failedKeys", failedKeys);
        v("dstats", dstats);
    }
};

/**
 * The controller. One instance per simulated program run; attach with
 * OooCpu::setHooks().
 */
class DynaSpamController : public ooo::TraceHooks,
                           private DynaSpamControllerState
{
  public:
    /**
     * @param params framework configuration
     * @param trace oracle trace of the program under simulation
     * @param bpred the host pipeline's branch predictor (peeked at fetch)
     * @param store_sets host memory dependence predictor (shared with
     *                   the fabric LDST units)
     * @param hierarchy data cache for fabric memory operations
     */
    DynaSpamController(const DynaSpamParams &params,
                       const isa::DynamicTrace &trace,
                       ooo::BranchPredictor &bpred,
                       ooo::StoreSetPredictor &store_sets,
                       mem::MemoryHierarchy &hierarchy);

    // --- TraceHooks ------------------------------------------------------
    ooo::FetchDirective beforeFetch(SeqNum trace_idx, Cycle now) override;
    void mappingStarted(SeqNum trace_idx, Cycle now) override;
    void mappingFinished(SeqNum trace_idx, Cycle now) override;
    void mappingAborted(SeqNum trace_idx, Cycle now) override;
    void offloadStart(SeqNum trace_idx, std::uint32_t num_records, Cycle now,
                      const std::vector<Cycle> &live_in_ready,
                      Cycle mem_safe,
                      ooo::InvocationResult &result) override;
    void invocationCommitted(SeqNum trace_idx, Cycle now) override;
    void invocationSquashed(SeqNum trace_idx, Cycle now,
                            bool at_fault) override;
    void onCommitControl(InstAddr pc, bool taken, SeqNum trace_idx,
                         Cycle now) override;

    // --- Inspection ------------------------------------------------------
    const DynaSpamStats &stats() const { return dstats; }
    const TCache &tcache() const { return tCache; }
    const ConfigCache &configCache() const { return cfgCache; }
    const fabric::FabricParams &fabricConfigParams() const
    {
        return params.fabricParams;
    }
    const std::vector<std::unique_ptr<fabric::Fabric>> &fabrics() const
    {
        return fabricPool;
    }

    /** The policy installed into the pipeline during mapping phases.
     *  Stable for the controller's lifetime; pipeline snapshot restore
     *  rebinds its saved policy pointers to this object. */
    ooo::SelectPolicy *mappingPolicy() { return policy.get(); }

    /**
     * Attach an event-trace sink (nullptr detaches). Propagates to
     * every fabric in the pool, which sample FIFO occupancy into it.
     */
    void setTraceSink(trace::TraceSink *sink);

    /**
     * Close out lifetime statistics: counts the final configuration of
     * every fabric as one lifetime sample. Call once after the run.
     */
    void finalizeStats();

    /** Export statistics under "dynaspam." into @p registry. */
    void exportStats(StatRegistry &registry) const;

    /** Attach a forked-sweep warmup divergence guard (nullptr detaches).
     *  Pure detection: the attached guard never changes behaviour. */
    void setWarmupGuard(WarmupGuard *g) { guard = g; }

    /**
     * Complete mutable controller state for simulator snapshots.
     * Restore requires a controller built over the same trace with the
     * same T-Cache/ConfigCache/fabric parameters; numFabrics may differ
     * between saver and restorer ONLY while every fabric beyond the
     * smaller pool is still in its freshly-constructed state (the
     * forked-sweep warmup guard fires before a second fabric is ever
     * selected, which guarantees exactly that).
     */
    struct SavedState : DynaSpamControllerState
    {
        TCache::State tcache;
        ConfigCache::State configCache;
        std::vector<fabric::Fabric::State> fabrics;
        MappingPolicyBase::State policy;

        bool operator==(const SavedState &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("tcache", tcache);
            v("configCache", configCache);
            v("fabrics", fabrics);
            v("policy", policy);
            DynaSpamControllerState::fields(v);
        }

        /** Every started invocation names a saved fabric (checked on
         *  decode). */
        bool
        wellFormed() const
        {
            for (const auto &entry : pending) {
                const int idx = entry.second.startedOnIdx;
                if (idx < -1 || idx >= int(fabrics.size()))
                    return false;
            }
            return true;
        }
    };

    /** Capture the full controller state into @p out. */
    void save(SavedState &out) const;

    /** Restore a previously saved state (see SavedState for the
     *  geometry requirements). */
    void restore(const SavedState &in);

    /** @p in has this controller's T-Cache and config-cache sizes and
     *  starts no invocation beyond its fabric pool (restore() needs
     *  that). */
    bool fits(const SavedState &in) const;

  private:
    /** Check the predicted-path walk against the oracle records. */
    bool walkMatchesOracle(const TraceWalk &walk, SeqNum trace_idx) const;

    /** Pick a fabric for @p config: loaded > free > LRU; reconfigures
     *  the victim when needed (charging configuration latency).
     *  @return its index in the pool */
    std::size_t
    selectFabric(const std::shared_ptr<const fabric::FabricConfig> &config,
                 Cycle now);

    DynaSpamParams params;
    const isa::DynamicTrace &trace;
    ooo::BranchPredictor &bpred;
    ooo::StoreSetPredictor &storeSets;
    mem::MemoryHierarchy &hierarchy;

    TCache tCache;
    ConfigCache cfgCache;
    std::vector<std::unique_ptr<fabric::Fabric>> fabricPool;

    std::unique_ptr<MappingPolicyBase> policy;

    trace::TraceSink *tsink = nullptr;
    WarmupGuard *guard = nullptr;

    /** Reused across calls: the live-out registers an Offload directive
     *  views, and the fabric's outcome of offloadStart(). */
    std::vector<RegIndex> directiveLiveOuts;
    fabric::FabricExecResult execScratch;
};

} // namespace dynaspam::core

#endif // DYNASPAM_CORE_CONTROLLER_HH
