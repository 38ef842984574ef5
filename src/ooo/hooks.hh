/**
 * @file
 * Integration surface between the host OOO pipeline and the DynaSpAM
 * trace controller (src/core). The pipeline is fully functional with no
 * hooks installed; DynaSpAM attaches through this interface to observe
 * branch commits (trace detection), steer fetch (mapping / offloading),
 * and execute fat atomic trace invocations on the spatial fabric.
 */

#ifndef DYNASPAM_OOO_HOOKS_HH
#define DYNASPAM_OOO_HOOKS_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace dynaspam::ooo
{

class SelectPolicy;

/** What fetch should do with the upcoming oracle records. */
struct FetchDirective
{
    enum class Kind : std::uint8_t
    {
        Normal,         ///< fetch the record as an ordinary instruction
        BeginMapping,   ///< next N records are trace instructions to map
        Offload,        ///< next N records run on the fabric as one
                        ///< fat atomic invocation
    };

    Kind kind = Kind::Normal;
    std::uint32_t numRecords = 0;

    /** BeginMapping: resource-aware policy to install during mapping. */
    SelectPolicy *policy = nullptr;

    /** Offload: architectural live-in/live-out registers of the trace.
     *  Views into the hooks' storage, valid until the next
     *  beforeFetch() call; fetch copies them. */
    std::span<const RegIndex> liveIns;
    std::span<const RegIndex> liveOuts;

    /** Offload: the trace contains store instructions. Younger host loads
     *  conservatively wait for the invocation to resolve. */
    bool hasStores = false;
};

/** Outcome of a fabric trace invocation, computed by the offload engine. */
struct InvocationResult
{
    /**
     * True when the invocation must be squashed: a branch inside the trace
     * resolved off the mapped path, or a memory-order violation occurred.
     */
    bool squashed = false;

    /**
     * Cycle at which the invocation finished: all live-outs, branch
     * results and stores delivered (or the squash was detected).
     */
    Cycle completeCycle = 0;

    /**
     * Ready cycle for each live-out architectural register, parallel to
     * FetchDirective::liveOuts. Empty when squashed.
     */
    std::vector<Cycle> liveOutReady;

    /** Stores the invocation performed: (address, pc). The pipeline uses
     *  these to catch younger host loads that speculatively read the
     *  locations before the invocation wrote them. */
    std::vector<std::pair<Addr, InstAddr>> storeEvents;

    bool operator==(const InvocationResult &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("squashed", squashed);
        v("completeCycle", completeCycle);
        v("liveOutReady", liveOutReady);
        v("storeEvents", storeEvents);
    }
};

/**
 * Callbacks implemented by the DynaSpAM controller. All methods have
 * benign defaults so partial implementations (and the plain baseline,
 * which installs no hooks at all) work.
 */
class TraceHooks
{
  public:
    virtual ~TraceHooks() = default;

    /**
     * Fetch is about to process the oracle record at @p trace_idx.
     * Consulted once per record (and again after squash-replay).
     */
    virtual FetchDirective
    beforeFetch(SeqNum trace_idx, Cycle now)
    {
        (void)trace_idx;
        (void)now;
        return {};
    }

    /** The first trace instruction dispatched; mapping is underway. */
    virtual void mappingStarted(SeqNum trace_idx, Cycle now)
    {
        (void)trace_idx;
        (void)now;
    }

    /** Every trace instruction completed writeback; mapping succeeded. */
    virtual void mappingFinished(SeqNum trace_idx, Cycle now)
    {
        (void)trace_idx;
        (void)now;
    }

    /** A squash removed in-flight trace instructions; mapping aborted. */
    virtual void mappingAborted(SeqNum trace_idx, Cycle now)
    {
        (void)trace_idx;
        (void)now;
    }

    /**
     * All live-in values of the invocation dispatched at @p trace_idx are
     * (or will be) available; execute it on the fabric.
     *
     * @param trace_idx first oracle record of the invocation
     * @param num_records records covered by the invocation
     * @param now cycle the pipeline delivers the request
     * @param live_in_ready per-live-in value arrival cycles, parallel to
     *                      the directive's liveIns vector
     * @param mem_safe cycle by which all older host-pipeline stores have
     *                 completed; fabric memory operations must not access
     *                 memory earlier
     * @param result receives the invocation's timing and squash outcome;
     *               arrives default-valued, its vectors possibly with
     *               capacity to reuse
     */
    virtual void
    offloadStart(SeqNum trace_idx, std::uint32_t num_records, Cycle now,
                 const std::vector<Cycle> &live_in_ready, Cycle mem_safe,
                 InvocationResult &result)
    {
        (void)trace_idx;
        (void)num_records;
        (void)live_in_ready;
        (void)mem_safe;
        result.completeCycle = now + 1;
    }

    /** The invocation committed atomically at ROB head. */
    virtual void invocationCommitted(SeqNum trace_idx, Cycle now)
    {
        (void)trace_idx;
        (void)now;
    }

    /**
     * The invocation was squashed.
     * @param at_fault true when the invocation itself squashed (branch
     *        mismatch or memory violation) — the host must execute its
     *        records; false when it was collateral damage of an older
     *        squash and may be re-offloaded on replay.
     */
    virtual void invocationSquashed(SeqNum trace_idx, Cycle now,
                                    bool at_fault)
    {
        (void)trace_idx;
        (void)now;
        (void)at_fault;
    }

    /** A control instruction committed; used for T-Cache training. */
    virtual void
    onCommitControl(InstAddr pc, bool taken, SeqNum trace_idx, Cycle now)
    {
        (void)pc;
        (void)taken;
        (void)trace_idx;
        (void)now;
    }
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_HOOKS_HH
