/**
 * @file
 * Cycle-level out-of-order superscalar CPU timing model.
 *
 * Timing-directed, oracle-functional: the CPU consumes a pre-computed
 * DynamicTrace (resolved branch outcomes and effective addresses) and
 * simulates the pipeline cycle by cycle — fetch with branch prediction,
 * rename onto a unified physical register file, dispatch into ROB/IQ/LSQ,
 * wakeup-select issue with a pluggable priority policy, functional-unit
 * timing, store-set memory dependence speculation with violation squash
 * and replay, and in-order commit.
 *
 * Branch mispredictions are modelled as front-end stalls until the branch
 * resolves plus a redirect penalty (wrong-path instructions do not execute,
 * which is the standard approximation in trace-driven simulation). Memory
 * order violations squash and replay the oracle trace from the violating
 * load.
 */

#ifndef DYNASPAM_OOO_CPU_HH
#define DYNASPAM_OOO_CPU_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/trace.hh"
#include "memory/cache.hh"
#include "ooo/bpred.hh"
#include "ooo/dyninst.hh"
#include "ooo/hooks.hh"
#include "ooo/params.hh"
#include "ooo/policy.hh"
#include "ooo/storesets.hh"

namespace dynaspam::check
{
class OooAuditor;
class FaultInjector;
} // namespace dynaspam::check

namespace dynaspam::trace
{
class TraceSink;
} // namespace dynaspam::trace

namespace dynaspam::ooo
{

/**
 * Observer of architectural commits and cycle boundaries. Installed by
 * the verification layer (src/check) in checked runs; a null observer
 * costs one predictable branch per commit/cycle.
 */
class CommitObserver
{
  public:
    virtual ~CommitObserver() = default;

    /** Oracle records [first_idx, first_idx+count) committed atomically.
     *  @p via_fabric marks fat trace-invocation (ROB') commits. */
    virtual void onCommit(SeqNum first_idx, std::uint32_t count,
                          bool via_fabric, Cycle now) = 0;

    /** All pipeline stages of cycle @p now have run. */
    virtual void onCycleEnd(Cycle now) = 0;
};

/** Aggregate timing/energy-relevant event counts for one simulation. */
struct PipelineStats
{
    std::uint64_t cycles = 0;
    std::uint64_t fetchedInsts = 0;
    std::uint64_t renamedInsts = 0;
    std::uint64_t dispatchedInsts = 0;
    std::uint64_t issuedInsts = 0;
    std::uint64_t committedInsts = 0;   ///< program insts (incl. offloaded)
    std::uint64_t committedOnHost = 0;  ///< committed via the host back-end
    std::uint64_t squashedInsts = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t memOrderViolations = 0;
    std::uint64_t regReads = 0;
    std::uint64_t regWrites = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t iqWakeups = 0;
    std::uint64_t fuOps[unsigned(isa::FuType::NUM_FU_TYPES)] = {};
    std::uint64_t loadForwards = 0;
    std::uint64_t icacheAccesses = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t robWrites = 0;
    std::uint64_t robReads = 0;
    std::uint64_t invocationsCommitted = 0;
    std::uint64_t invocationsSquashed = 0;
    std::uint64_t mappingInstsExecuted = 0;

    bool operator==(const PipelineStats &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("cycles", cycles);
        v("fetchedInsts", fetchedInsts);
        v("renamedInsts", renamedInsts);
        v("dispatchedInsts", dispatchedInsts);
        v("issuedInsts", issuedInsts);
        v("committedInsts", committedInsts);
        v("committedOnHost", committedOnHost);
        v("squashedInsts", squashedInsts);
        v("branchMispredicts", branchMispredicts);
        v("memOrderViolations", memOrderViolations);
        v("regReads", regReads);
        v("regWrites", regWrites);
        v("bypasses", bypasses);
        v("iqWakeups", iqWakeups);
        v("fuOps", fuOps);
        v("loadForwards", loadForwards);
        v("icacheAccesses", icacheAccesses);
        v("dcacheAccesses", dcacheAccesses);
        v("robWrites", robWrites);
        v("robReads", robReads);
        v("invocationsCommitted", invocationsCommitted);
        v("invocationsSquashed", invocationsSquashed);
        v("mappingInstsExecuted", mappingInstsExecuted);
    }
};

/**
 * Mutable pipeline state of the OOO CPU: everything a snapshot saves
 * besides the branch and store-set predictors (see OooCpu::SavedState).
 * Construction-time configuration (parameters, FU offsets, front-end
 * capacity), the attached hooks/observer/sink, the externally owned
 * mapping policy pointer and reusable scratch stay in OooCpu.
 */
struct OooCpuState
{
    // --- Front-end entry awaiting rename ---
    struct FrontEndInst
    {
        SeqNum traceIdx = 0;
        Cycle readyAtRename = 0;    ///< models fetch/decode latency
        bool mispredicted = false;
        bool predictedTaken = false;
        RasCheckpoint rasCp;        ///< RAS state before this fetch
        bool mappingInst = false;   ///< part of a trace being mapped
        bool firstMappingInst = false;
        bool lastMappingInst = false;
        // Trace invocation pseudo-op (RobKind::TraceInvoke) fields.
        bool isInvocation = false;
        std::uint32_t numRecords = 0;
        std::vector<RegIndex> liveIns;
        std::vector<RegIndex> liveOuts;
        bool hasStores = false;

        bool operator==(const FrontEndInst &) const = default;

        /** Back to the default value, keeping the live-register
         *  vectors' capacity (the front end reuses its ring slots). */
        void
        reset()
        {
            std::vector<RegIndex> ins = std::move(liveIns);
            std::vector<RegIndex> outs = std::move(liveOuts);
            *this = FrontEndInst{};
            ins.clear();
            outs.clear();
            liveIns = std::move(ins);
            liveOuts = std::move(outs);
        }

        template <class V>
        void
        fields(V &v)
        {
            v("traceIdx", traceIdx);
            v("readyAtRename", readyAtRename);
            v("mispredicted", mispredicted);
            v("predictedTaken", predictedTaken);
            v("rasCp", rasCp);
            v("mappingInst", mappingInst);
            v("firstMappingInst", firstMappingInst);
            v("lastMappingInst", lastMappingInst);
            v("isInvocation", isInvocation);
            v("numRecords", numRecords);
            v("liveIns", liveIns);
            v("liveOuts", liveOuts);
            v("hasStores", hasStores);
        }
    };

    /** Per-invocation rename/issue bookkeeping. */
    struct InvocationState
    {
        std::vector<RegIndex> liveInPhys;
        std::vector<RegIndex> liveOutArch;
        std::vector<RegIndex> liveOutPhys;
        std::vector<RegIndex> liveOutPrevPhys;
        bool hasStores = false;
        bool resolved = false;
        InvocationResult result;

        bool operator==(const InvocationState &) const = default;

        /** Back to the default value, keeping the vectors' capacity. */
        void
        reset()
        {
            liveInPhys.clear();
            liveOutArch.clear();
            liveOutPhys.clear();
            liveOutPrevPhys.clear();
            hasStores = false;
            resolved = false;
            result.squashed = false;
            result.completeCycle = 0;
            result.liveOutReady.clear();
            result.storeEvents.clear();
        }

        template <class V>
        void
        fields(V &v)
        {
            v("liveInPhys", liveInPhys);
            v("liveOutArch", liveOutArch);
            v("liveOutPhys", liveOutPhys);
            v("liveOutPrevPhys", liveOutPrevPhys);
            v("hasStores", hasStores);
            v("resolved", resolved);
            v("result", result);
        }
    };

    /**
     * Age-ordered slab of in-flight invocation states. Invocations
     * allocate at dispatch (strictly increasing seq), retire from the
     * front (in-order commit) and squash from the back, so a ring of
     * (seq, state) pairs serves: O(1) at both ends, contiguous
     * iteration, and a slot's vectors keep their capacity for the next
     * invocation dispatched into it.
     */
    class InvocationTable
    {
      public:
        using Entry = std::pair<SeqNum, InvocationState>;

        bool empty() const { return slots.empty(); }
        std::size_t size() const { return slots.size(); }
        auto begin() { return slots.begin(); }
        auto end() { return slots.end(); }
        auto begin() const { return slots.begin(); }
        auto end() const { return slots.end(); }

        InvocationState *
        find(SeqNum seq)
        {
            for (Entry &e : slots) {
                if (e.first == seq)
                    return &e.second;
                if (e.first > seq)
                    break;
            }
            return nullptr;
        }

        std::size_t
        count(SeqNum seq) const
        {
            for (const Entry &e : slots) {
                if (e.first == seq)
                    return 1;
                if (e.first > seq)
                    break;
            }
            return 0;
        }

        /** Append the state of invocation @p seq, default-valued but
         *  reusing a retired slot's capacity. */
        InvocationState &
        emplace(SeqNum seq)
        {
            Entry &slot = slots.push_back_reuse();
            slot.first = seq;
            slot.second.reset();
            return slot.second;
        }

        void
        erase(SeqNum seq)
        {
            if (!slots.empty() && slots.front().first == seq) {
                slots.pop_front();
            } else if (!slots.empty() && slots.back().first == seq) {
                slots.pop_back();
            } else {
                for (std::size_t i = 0; i < slots.size(); i++) {
                    if (slots[i].first == seq) {
                        slots.erase(i);
                        return;
                    }
                }
            }
        }

        bool operator==(const InvocationTable &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("slots", slots);
        }

      private:
        Ring<Entry> slots;
    };

    /** Scheduler entry whose sources are all known (see below). */
    struct PendingWakeup
    {
        Cycle readyCycle = 0;   ///< max source-ready cycle, may be future
        SeqNum seq = 0;

        bool operator==(const PendingWakeup &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("readyCycle", readyCycle);
            v("seq", seq);
        }
    };

    /** Post-commit store buffer entry: recently committed stores remain
     *  visible for store-to-load forwarding while they drain. */
    struct RetiredStore
    {
        Addr addr = 0;
        Cycle dataReady = 0;
        SeqNum seq = 0;

        bool operator==(const RetiredStore &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("addr", addr);
            v("dataReady", dataReady);
            v("seq", seq);
        }
    };

    Cycle curCycle = 0;
    SeqNum nextSeq = 1;             ///< 0 reserved as "no instruction"
    SeqNum fetchIdx = 0;            ///< next oracle record to fetch
    SeqNum commitIdx = 0;           ///< next oracle record to commit
    Cycle fetchResumeCycle = 0;     ///< fetch blocked until this cycle
    bool fetchBlockedOnBranch = false;  ///< waiting for mispredict resolve
    Addr lastFetchBlock = ~Addr(0);

    Ring<FrontEndInst> frontEnd;

    // Rename state.
    std::vector<RegIndex> rat;              ///< arch -> phys
    std::vector<RegIndex> freeList;
    std::vector<Cycle> physReadyCycle;      ///< CYCLE_INVALID = not ready

    // Back-end structures.
    Ring<DynInst> rob;                      ///< contiguous seq numbers
    std::vector<SeqNum> iq;                 ///< membership set, unordered
    Ring<SeqNum> loadQueue;                 ///< age-ordered
    Ring<SeqNum> storeQueue;                ///< age-ordered
    InvocationTable invocations;

    /**
     * Wakeup-driven scheduler state. Dispatch either enqueues an
     * instruction on pendingByType (all source values known) or parks
     * it on its producers' consumer lists; the last producer to issue
     * moves it to pending, and issueStage drains matured pending
     * entries into readyByType before selecting. The select loop thus
     * touches only ready instructions instead of rescanning the whole
     * IQ once per FU slot — cost scales with activity, not capacity.
     * Selection order is made irrelevant by the explicit
     * (score, oldest-seq) tie-break, so reports stay byte-identical
     * to the scan-based engine.
     */
    std::vector<std::vector<SeqNum>> readyByType;       ///< per FU type
    std::vector<std::vector<PendingWakeup>> pendingByType;
    std::vector<std::vector<SeqNum>> regConsumers;      ///< per phys reg
    std::size_t readyCount = 0;
    std::size_t pendingCount = 0;

    /** Per-cycle cache of the oldest incomplete store's seq (used by
     *  the no-speculation load-readiness rule). CYCLE_INVALID = stale. */
    Cycle sqBoundCycle = CYCLE_INVALID;
    SeqNum sqBound = 0;

    /** Post-commit store buffer, oldest first. */
    Ring<RetiredStore> storeBuffer;
    static constexpr std::size_t storeBufferEntries = 16;

    // FU pool: busy-until cycle per unit, grouped by type.
    std::vector<std::vector<Cycle>> fuBusyUntil;

    // Mapping-phase state. Fetch marks trace records; the first trace
    // instruction stalls in rename until the back-end drains; the policy
    // is active from first dispatch until last trace-instruction issue.
    bool mappingActive = false;
    SeqNum mappingTraceIdx = 0;
    /** The mapping policy selects instead of oldest-first. */
    bool mappingPolicyActive = false;
    /** A directed mapping phase will install the mapping policy at its
     *  first trace instruction's dispatch. */
    bool mappingPolicyPending = false;
    std::uint32_t mappingFetchRemaining = 0;  ///< records left to mark
    std::uint32_t mappingDispatchRemaining = 0; ///< marked, not dispatched
    std::uint32_t mappingIssueRemaining = 0;  ///< dispatched, not issued
    std::uint32_t mappingCommitRemaining = 0; ///< dispatched, not committed

    PipelineStats pstats;

    bool operator==(const OooCpuState &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("curCycle", curCycle);
        v("nextSeq", nextSeq);
        v("fetchIdx", fetchIdx);
        v("commitIdx", commitIdx);
        v("fetchResumeCycle", fetchResumeCycle);
        v("fetchBlockedOnBranch", fetchBlockedOnBranch);
        v("lastFetchBlock", lastFetchBlock);
        v("frontEnd", frontEnd);
        v("rat", rat);
        v("freeList", freeList);
        v("physReadyCycle", physReadyCycle);
        v("rob", rob);
        v("iq", iq);
        v("loadQueue", loadQueue);
        v("storeQueue", storeQueue);
        v("invocations", invocations);
        v("readyByType", readyByType);
        v("pendingByType", pendingByType);
        v("regConsumers", regConsumers);
        v("readyCount", readyCount);
        v("pendingCount", pendingCount);
        v("sqBoundCycle", sqBoundCycle);
        v("sqBound", sqBound);
        v("storeBuffer", storeBuffer);
        v("fuBusyUntil", fuBusyUntil);
        v("mappingActive", mappingActive);
        v("mappingTraceIdx", mappingTraceIdx);
        v("mappingPolicyActive", mappingPolicyActive);
        v("mappingPolicyPending", mappingPolicyPending);
        v("mappingFetchRemaining", mappingFetchRemaining);
        v("mappingDispatchRemaining", mappingDispatchRemaining);
        v("mappingIssueRemaining", mappingIssueRemaining);
        v("mappingCommitRemaining", mappingCommitRemaining);
        v("pstats", pstats);
    }

    /**
     * Every register index is in range: the RAT covers the
     * architectural registers, each physical index (RAT, free list,
     * ROB, invocations) names an entry of physReadyCycle or is
     * REG_INVALID, and architectural indices stay below NUM_ARCH_REGS.
     * The ROB's seqs are contiguous, the IQ and LSQ name ROB entries
     * and the store buffer holds at most storeBufferEntries. Checked on
     * decode, since the pipeline indexes with these unchecked.
     */
    bool wellFormed() const;
};

/**
 * The out-of-order CPU. One instance simulates one complete program run
 * over a given oracle trace.
 */
class OooCpu : private OooCpuState
{
  public:
    /**
     * @param params pipeline configuration (Table 4 defaults)
     * @param trace oracle dynamic trace to simulate
     * @param hierarchy cache hierarchy (timing only)
     */
    OooCpu(const OooParams &params, const isa::DynamicTrace &trace,
           mem::MemoryHierarchy &hierarchy);
    ~OooCpu();

    OooCpu(const OooCpu &) = delete;
    OooCpu &operator=(const OooCpu &) = delete;

    /** Attach the DynaSpAM controller (nullptr detaches). */
    void setHooks(TraceHooks *hooks) { traceHooks = hooks; }

    /** Attach a commit/cycle observer (nullptr detaches). Used by the
     *  verification layer for golden-model lockstep and auditing. */
    void setCommitObserver(CommitObserver *obs) { observer = obs; }

    /** Attach an event-trace sink (nullptr detaches). The sink records
     *  one event per committed or squashed ROB entry, from timestamps
     *  the pipeline tracks anyway — attaching it cannot perturb timing. */
    void setTraceSink(trace::TraceSink *sink) { tsink = sink; }

    /**
     * Replace the issue-select policy for the whole run (ablation and
     * test use; DynaSpAM installs its policy per mapping phase through
     * the hooks instead). Pass nullptr to restore oldest-first.
     */
    void
    setSelectPolicyForTesting(SelectPolicy *policy)
    {
        mappingPolicy = policy;
        mappingPolicyActive = policy != nullptr;
    }

    /** Run until the whole trace commits. @return total cycles. */
    Cycle run();

    /** Advance one cycle (exposed for unit tests). */
    void tick();

    /** @return true when every oracle record has committed. */
    bool done() const { return commitIdx >= trace.size(); }

    Cycle now() const { return curCycle; }
    const PipelineStats &stats() const { return pstats; }
    BranchPredictor &branchPredictor() { return bpred; }
    StoreSetPredictor &storeSetPredictor() { return storeSets; }
    const OooParams &config() const { return params; }

    /** Export statistics into @p registry under the "ooo." prefix. */
    void exportStats(StatRegistry &registry) const;

    /** Dump pipeline occupancy and control state (debugging aid). */
    void dumpState(std::ostream &os) const;

  private:
    /** The invariant auditors inspect pipeline internals directly. */
    friend class dynaspam::check::OooAuditor;
    /** The fault-injection self-test seeds violations directly. */
    friend class dynaspam::check::FaultInjector;

    // Stage functions, called in reverse pipeline order each tick.
    void commitStage();
    void executeStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    // Helpers.
    DynInst &robAt(SeqNum seq);
    const DynInst *robFind(SeqNum seq) const;
    bool isInstReady(const DynInst &inst) const;
    bool olderStoresAllComplete(const DynInst &load) const;
    void issueLoad(DynInst &load);
    void issueStore(DynInst &store);
    void checkViolations(const DynInst &store);
    void squashFrom(SeqNum seq, SeqNum resume_trace_idx, Cycle restart);
    void abortActiveMapping();
    void startReadyInvocations();
    Cycle physReady(RegIndex phys) const;

    /** The issue-select policy in force this cycle. */
    SelectPolicy *
    selectPolicy()
    {
        return mappingPolicyActive ? mappingPolicy : &defaultPolicy;
    }

    // Wakeup-driven scheduler (see the readyByType block in OooCpuState).
    void scheduleAtDispatch(DynInst &d);
    void wakeConsumers(RegIndex phys);
    void drainPendingWakeups();
    void scrubSchedulerForSquash(SeqNum bound);
    bool loadMemoryReady(const DynInst &load);
    SeqNum incompleteStoreBound();

    /** Issue @p d on unit @p unit of FU type @p type. @return false when
     *  the issue squashed @p d itself, so the cycle's selection is void. */
    bool issueInst(DynInst &d, unsigned type, unsigned unit);
    /** Oldest-first selection for a passive policy: one pass over the
     *  ready list of @p type. @return false as issueInst. */
    bool issueOldestFirst(unsigned type, unsigned &issued_total);

    // Reference walks over the whole ROB for the DYNASPAM_CHECK
    // cross-checks of the age-ordered LSQ scans.
    const DynInst *referenceForwardingStore(const DynInst &load) const;
    SeqNum referenceViolator(const DynInst &store) const;
    std::pair<SeqNum, InstAddr>
    referenceInvocationVictim(SeqNum inv_seq,
                              const InvocationResult &result) const;

    OooParams params;
    const isa::DynamicTrace &trace;
    mem::MemoryHierarchy &hierarchy;

    BranchPredictor bpred;
    StoreSetPredictor storeSets;
    OldestFirstPolicy defaultPolicy;
    /** Externally owned policy of the mapping phases (the DynaSpAM
     *  controller's); set from fetch directives, rebound by restore(). */
    SelectPolicy *mappingPolicy = nullptr;
    TraceHooks *traceHooks = nullptr;
    CommitObserver *observer = nullptr;
    trace::TraceSink *tsink = nullptr;

    std::size_t frontEndCap;
    unsigned fuTypeOffsets[unsigned(isa::FuType::NUM_FU_TYPES)] = {};

    /** Reused live-in arrival scratch for startReadyInvocations(). */
    std::vector<Cycle> arrivalScratch;
    /** Reused candidate scratch for issueOldestFirst(). */
    std::vector<SeqNum> selectScratch;

  public:
    /**
     * Complete mutable CPU state for simulator snapshots: the pipeline
     * state plus both predictors'. restore() requires a CPU built over
     * the same trace with the same OooParams. DynInst pointer members
     * stay valid because both sides reference the same immutable
     * Program/DynamicTrace.
     */
    struct SavedState : OooCpuState
    {
        BranchPredictor::State bpred;
        StoreSetPredictor::State storeSets;

        bool operator==(const SavedState &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("bpred", bpred);
            v("storeSets", storeSets);
            OooCpuState::fields(v);
        }

        /** OooCpuState::wellFormed(), and every RAS checkpoint depth
         *  fits the saved stack (checked on decode). */
        bool wellFormed() const;
    };

    /** Capture the full CPU state into @p out (reuses capacity). */
    void save(SavedState &out) const;

    /**
     * Restore a previously saved state. @p mapping_policy is the
     * externally-owned policy the pipeline selects with while the saved
     * state has a mapping policy pending or active (the DynaSpAM
     * controller's resource-aware policy); may be null otherwise.
     */
    void restore(const SavedState &in, SelectPolicy *mapping_policy);

    /** @p in has this CPU's register-file, FU-pool and predictor table
     *  sizes (restore() needs them), and its ROB, LSQ and front-end
     *  occupancy fits this CPU's capacities. */
    bool fits(const SavedState &in) const;
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_CPU_HH
