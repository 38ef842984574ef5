/**
 * @file
 * Mapping session: the status tables of the mapping generator
 * (Section 4.2) and the placement record a FabricConfig is built from.
 *
 * A session lives for the duration of one trace-mapping phase. It holds:
 *  - ProdTable: physical register -> producing instruction location (CAM)
 *  - ReuseSet: per stripe boundary, the physical registers whose values
 *    sit in that boundary's pass registers
 *  - OverallUsage: per-boundary pass-register (datapath) occupancy
 *  - the Live-Out/Last-Used tracking that stops propagating killed values
 *  - the scheduling frontier index and per-PE allocation of the frontier
 */

#ifndef DYNASPAM_CORE_SESSION_HH
#define DYNASPAM_CORE_SESSION_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "fabric/config.hh"
#include "fabric/params.hh"
#include "isa/trace.hh"
#include "ooo/dyninst.hh"

namespace dynaspam::core
{

/** One placed instruction, recorded at issue time. */
struct Placement
{
    std::uint32_t traceOffset = 0;  ///< position within the trace
    fabric::PeId pe;
    fabric::OperandRoute src1;
    fabric::OperandRoute src2;

    bool operator==(const Placement &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("traceOffset", traceOffset);
        v("pe", pe);
        v("src1", src1);
        v("src2", src2);
    }
};

/**
 * The mapping generator's working state for one trace. Entirely
 * value-semantic: a plain copy is a deep snapshot, and the fabric
 * geometry travels with it so the state stands alone.
 */
struct MappingSessionState
{
    struct ProdEntry
    {
        std::uint16_t instIdx = 0xffff;     ///< index into `order`
        std::uint8_t stripe = 0;

        bool operator==(const ProdEntry &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("instIdx", instIdx);
            v("stripe", stripe);
        }
    };

    fabric::FabricParams params;
    SeqNum startIdx = 0;
    std::uint32_t traceLen = 0;
    std::uint64_t traceKey = 0;

    unsigned frontierStripe = 0;
    bool scheduleFailed = false;
    std::vector<bool> peAllocated;      ///< frontier-stripe allocation

    /// ProdTable: physical register -> producer location.
    std::unordered_map<RegIndex, ProdEntry> prodTable;

    /// ReuseSet per boundary: boundary b feeds stripe b.
    std::vector<std::unordered_set<RegIndex>> reuseSet;

    /// OverallUsage: allocated pass registers per boundary.
    std::vector<unsigned> boundaryUsage;

    /// Values produced in the current frontier stripe (phys regs).
    std::vector<RegIndex> producedThisStripe;

    /// Killed values (arch reg redefined): stop propagating them.
    std::unordered_set<RegIndex> deadPhys;
    std::unordered_map<RegIndex, RegIndex> archLatestPhys;

    /// Live-in FIFO assignment: phys reg -> FIFO index; arch per slot.
    std::unordered_map<RegIndex, std::uint16_t> liveInSlot;
    std::vector<RegIndex> liveInArch;

    /// Placement record, in issue order; traceOffset gives program order.
    std::vector<Placement> order;
    /// destArch per placement (for live-out computation).
    std::vector<RegIndex> destArchOf;
    /// opcode and pc per placement.
    std::vector<isa::Opcode> opOf;
    std::vector<InstAddr> pcOf;

    std::uint64_t statHops = 0;
    std::uint64_t statReuse = 0;

    bool operator==(const MappingSessionState &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("params", params);
        v("startIdx", startIdx);
        v("traceLen", traceLen);
        v("traceKey", traceKey);
        v("frontierStripe", frontierStripe);
        v("scheduleFailed", scheduleFailed);
        v("peAllocated", peAllocated);
        v("prodTable", prodTable);
        v("reuseSet", reuseSet);
        v("boundaryUsage", boundaryUsage);
        v("producedThisStripe", producedThisStripe);
        v("deadPhys", deadPhys);
        v("archLatestPhys", archLatestPhys);
        v("liveInSlot", liveInSlot);
        v("liveInArch", liveInArch);
        v("order", order);
        v("destArchOf", destArchOf);
        v("opOf", opOf);
        v("pcOf", pcOf);
        v("statHops", statHops);
        v("statReuse", statReuse);
    }

    /** The per-stripe tables match the geometry (checked on decode). */
    bool
    wellFormed() const
    {
        const std::size_t boundaries = std::size_t(params.numStripes) + 1;
        return params.numStripes > 0 && params.pesPerStripe() > 0 &&
               peAllocated.size() == params.pesPerStripe() &&
               reuseSet.size() == boundaries &&
               boundaryUsage.size() == boundaries &&
               frontierStripe <= params.numStripes;
    }
};

/**
 * The mapping generator's working state for one trace.
 */
class MappingSession : private MappingSessionState
{
  public:
    /** An empty session (the target of a snapshot decode). */
    MappingSession() = default;

    /**
     * @param params fabric geometry
     * @param trace_idx first oracle record of the trace being mapped
     * @param num_records trace length in records
     * @param key T-Cache key of the trace
     */
    MappingSession(const fabric::FabricParams &params, SeqNum trace_idx,
                   std::uint32_t num_records, std::uint64_t key);

    // --- Frontier management -------------------------------------------

    unsigned frontier() const { return frontierStripe; }
    bool failed() const { return scheduleFailed; }
    void markFailed() { scheduleFailed = true; }

    /**
     * Advance the scheduling frontier to the next stripe: produced values
     * latch into the next boundary's pass registers, and still-live older
     * values propagate while capacity remains (the Live-Out Table /
     * Last-Used-Location behaviour). Fails the schedule when the frontier
     * leaves the fabric.
     */
    void advanceFrontier();

    /** @return true when PE @p index of the frontier stripe is free. */
    bool peFree(unsigned index) const { return !peAllocated.at(index); }

    // --- Priority generation (Algorithm 2) ------------------------------

    /**
     * Score placing @p inst on frontier PE @p pe_index, per Table 2:
     * 3 = needs two live-in ports and the PE has them; 2 = both operands
     * reusable from pass registers; 1 = one reusable, one routable;
     * 0 = all routable; -1 = infeasible.
     */
    int priorityScore(unsigned pe_index, const ooo::DynInst &inst) const;

    // --- Table update (Algorithm 3) -------------------------------------

    /**
     * Record that @p inst was issued to frontier PE @p pe_index: update
     * ProdTable, allocate routing datapaths, assign live-in FIFO slots.
     */
    void recordSelection(unsigned pe_index, const ooo::DynInst &inst,
                         SeqNum mapping_trace_idx);

    // --- Config construction ---------------------------------------------

    std::uint32_t placedCount() const { return std::uint32_t(order.size()); }
    std::uint32_t numRecords() const { return traceLen; }
    SeqNum traceIdx() const { return startIdx; }
    std::uint64_t key() const { return traceKey; }

    /**
     * Build the final FabricConfig once every trace instruction has been
     * placed. Returns nullopt when the schedule failed, not all records
     * were placed, or the live-in/live-out counts exceed the FIFOs.
     *
     * @param trace oracle trace (for branch path outcomes)
     */
    std::optional<fabric::FabricConfig>
    buildConfig(const isa::DynamicTrace &trace) const;

    // Aggregate routing-quality metrics (for the mapper ablation bench).
    std::uint64_t totalHops() const { return statHops; }
    std::uint64_t reuseHits() const { return statReuse; }

    /** Sessions are value-semantic: a plain copy is a deep snapshot, and
     *  member-wise equality is the snapshot-diff criterion. */
    bool operator==(const MappingSession &) const = default;

    using MappingSessionState::fields;
    using MappingSessionState::wellFormed;

  private:
    /** Number of live-in ports a PE at @p stripe offers. */
    unsigned inputPorts(unsigned stripe) const { return stripe == 0 ? 2 : 1; }

    /** Classify one operand for scoring/routing. */
    struct OperandClass
    {
        enum Kind { Unused, LiveIn, Reuse, Route, Infeasible } kind = Unused;
        std::uint16_t producerIdx = 0xffff;
        std::uint16_t hops = 0;
    };
    OperandClass classifyOperand(RegIndex phys) const;
};

} // namespace dynaspam::core

#endif // DYNASPAM_CORE_SESSION_HH
