/**
 * @file
 * Dataflow execution timing model of the spatial fabric.
 *
 * One Fabric instance models one on-chip fabric: it holds at most one
 * active configuration (reconfiguration costs cycles and is tracked for
 * the configuration-lifetime statistics), executes invocations in
 * dataflow order with stripe-boundary routing latencies, supports
 * pipelined back-to-back invocations through the global bus, and runs
 * its LDST units against the data cache with store-set memory dependence
 * speculation.
 */

#ifndef DYNASPAM_FABRIC_FABRIC_HH
#define DYNASPAM_FABRIC_FABRIC_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "fabric/config.hh"
#include "fabric/params.hh"
#include "isa/trace.hh"
#include "memory/cache.hh"
#include "ooo/storesets.hh"

namespace dynaspam::trace
{
class TraceSink;
} // namespace dynaspam::trace

namespace dynaspam::fabric
{

/** Timing outcome of one invocation on the fabric. */
struct FabricExecResult
{
    bool squashed = false;

    /** Why the invocation squashed (valid when squashed). */
    enum class SquashCause : std::uint8_t
    {
        None,
        BranchMismatch,     ///< a branch left the mapped trace path
        MemoryViolation,    ///< speculative load bypassed an aliasing store
    };
    SquashCause cause = SquashCause::None;

    /** When all live-outs/branch results/stores were delivered, or when
     *  the squash condition was detected. */
    Cycle completeCycle = 0;

    /** Ready-at-host cycles, parallel to FabricConfig::liveOuts. */
    std::vector<Cycle> liveOutReady;

    /** One record per store the invocation performed. */
    struct StoreEvent
    {
        Addr addr = 0;
        Cycle completeCycle = 0;
        InstAddr pc = 0;
    };
    /** Store events (empty when squashed) — lets the host pipeline
     *  detect younger loads that speculatively bypassed them. */
    std::vector<StoreEvent> storeEvents;
};

/** Event counts for energy accounting and the evaluation figures. */
struct FabricStats
{
    std::uint64_t invocations = 0;
    std::uint64_t squashedInvocations = 0;
    std::uint64_t peOps = 0;
    std::uint64_t datapathHops = 0;
    std::uint64_t fifoPushes = 0;
    std::uint64_t busTransfers = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t memViolations = 0;
    /** Sum over invocations of stripesUsed (for gated leakage). */
    std::uint64_t activeStripeInvocations = 0;

    bool operator==(const FabricStats &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("invocations", invocations);
        v("squashedInvocations", squashedInvocations);
        v("peOps", peOps);
        v("datapathHops", datapathHops);
        v("fifoPushes", fifoPushes);
        v("busTransfers", busTransfers);
        v("dcacheAccesses", dcacheAccesses);
        v("reconfigurations", reconfigurations);
        v("memViolations", memViolations);
        v("activeStripeInvocations", activeStripeInvocations);
    }
};

/** Recently completed stores, for cross-invocation memory-order
 *  violation detection. */
struct RecentStore
{
    Addr addr = 0;
    Cycle completeCycle = 0;
    InstAddr pc = 0;
    SeqNum seq = 0;

    bool operator==(const RecentStore &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("addr", addr);
        v("completeCycle", completeCycle);
        v("pc", pc);
        v("seq", seq);
    }
};

/**
 * Pipelining state of one fabric: everything an invocation changes, and
 * so exactly what ROB-squash rollback restores.
 */
struct FabricPipeState
{
    SharedConfig current;
    Cycle configReadyCycle = 0;
    Cycle lastUse = 0;

    /** Per-instruction completion cycles of the previous invocation of
     *  the current config (for PE structural pipelining). */
    std::vector<Cycle> prevInstComplete;
    /** Previous invocation's internal live-out completion times, for
     *  direct global-bus forwarding on back-to-back invocations. */
    std::vector<Cycle> prevLiveOutInternal;
    SeqNum prevTraceEndIdx = 0;     ///< record index just after previous
                                    ///< invocation (back-to-back check)

    /** Completion cycles of recent invocations: models live-in/live-out
     *  FIFO depth back-pressure on pipelined execution. */
    std::deque<Cycle> inflightWindow;

    std::deque<RecentStore> recentStores;

    /** Completion of the newest memory op, persisted across invocations
     *  for the strict ordering of the no-speculation configuration. */
    Cycle lastMemCompletePersist = 0;

    std::uint64_t invocationsOnConfig = 0;

    bool operator==(const FabricPipeState &) const = default;

    /** The per-instruction and per-live-out completion vectors match the
     *  loaded configuration (checked on decode). */
    bool
    wellFormed() const
    {
        return !current ||
               (prevInstComplete.size() == current->insts.size() &&
                prevLiveOutInternal.size() == current->liveOuts.size());
    }

    template <class V>
    void
    fields(V &v)
    {
        v("current", current);
        v("configReadyCycle", configReadyCycle);
        v("lastUse", lastUse);
        v("prevInstComplete", prevInstComplete);
        v("prevLiveOutInternal", prevLiveOutInternal);
        v("prevTraceEndIdx", prevTraceEndIdx);
        v("inflightWindow", inflightWindow);
        v("recentStores", recentStores);
        v("lastMemCompletePersist", lastMemCompletePersist);
        v("invocationsOnConfig", invocationsOnConfig);
    }
};

/**
 * Complete mutable fabric state: the live pipelining state, one
 * rollback copy of it per in-flight invocation, and the statistics.
 */
struct FabricState : FabricPipeState
{
    /** Keyed by the invocation's first trace record. */
    std::map<SeqNum, FabricPipeState> snapshots;

    FabricStats fstats;

    bool operator==(const FabricState &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        FabricPipeState::fields(v);
        v("snapshots", snapshots);
        v("fstats", fstats);
    }
};

/**
 * One physical fabric instance.
 */
class Fabric : private FabricState
{
  public:
    /**
     * @param params geometry/timing
     * @param hierarchy data cache for LDST units
     * @param store_sets memory dependence predictor shared with the host
     */
    Fabric(const FabricParams &params, mem::MemoryHierarchy &hierarchy,
           ooo::StoreSetPredictor &store_sets);

    /**
     * Load @p config into the fabric, replacing the current one.
     * @param now cycle the reconfiguration starts
     * @return cycle at which the fabric is ready to execute
     */
    Cycle configure(std::shared_ptr<const FabricConfig> config, Cycle now);

    /** @return true if @p key is the currently loaded configuration. */
    bool hasConfig(std::uint64_t key) const
    {
        return current && current->key == key;
    }

    /** @return true when any configuration is loaded. */
    bool configured() const { return current != nullptr; }

    /** @return the loaded configuration (must be configured()). */
    const FabricConfig &config() const { return *current; }

    /**
     * Execute one invocation of the loaded configuration.
     *
     * @param trace oracle trace (for addresses and branch outcomes)
     * @param trace_idx first oracle record of this invocation
     * @param live_in_arrival host-side ready cycle per live-in, parallel
     *                        to config().liveIns
     * @param mem_safe earliest cycle fabric memory ops may access memory
     * @param now cycle the invocation is requested
     */
    FabricExecResult execute(const isa::DynamicTrace &trace,
                             SeqNum trace_idx,
                             const std::vector<Cycle> &live_in_arrival,
                             Cycle mem_safe, Cycle now);

    /**
     * The invocation dispatched from @p trace_idx committed: its effects
     * on the fabric's pipelining state are final (drops its snapshot and
     * all older ones).
     */
    void noteCommitted(SeqNum trace_idx);

    /**
     * The invocation dispatched from @p trace_idx was squashed in the
     * ROB: rewind the fabric's pipelining state to just before its
     * execute() call, discarding it and everything younger. No-op if the
     * invocation never executed here.
     */
    void rollback(SeqNum trace_idx);

    const FabricStats &stats() const { return fstats; }
    const FabricParams &parameters() const { return params; }

    /** Invocations executed since the last reconfiguration. */
    std::uint64_t invocationsSinceConfigure() const
    {
        return invocationsOnConfig;
    }

    /** Last cycle this fabric was used (for LRU across fabrics). */
    Cycle lastUseCycle() const { return lastUse; }

    /** Attach an event-trace sink (nullptr detaches): samples the
     *  in-flight FIFO occupancy as a counter track. */
    void setTraceSink(trace::TraceSink *sink) { tsink = sink; }

    /** Export statistics under "<prefix>." into @p registry. */
    void exportStats(StatRegistry &registry,
                     const std::string &prefix = "fabric") const;

    using State = FabricState;

    void save(State &out) const { out = *this; }
    void restore(const State &in) { State::operator=(in); }

  private:
    FabricParams params;
    mem::MemoryHierarchy &hierarchy;
    ooo::StoreSetPredictor &storeSets;

    trace::TraceSink *tsink = nullptr;
};

} // namespace dynaspam::fabric

#endif // DYNASPAM_FABRIC_FABRIC_HH
