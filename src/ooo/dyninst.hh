/**
 * @file
 * In-flight dynamic instruction state shared by the pipeline stages.
 */

#ifndef DYNASPAM_OOO_DYNINST_HH
#define DYNASPAM_OOO_DYNINST_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/inst.hh"
#include "isa/trace.hh"
#include "ooo/bpred.hh"

namespace dynaspam::ooo
{

/** Kind of a reorder-buffer entry. */
enum class RobKind : std::uint8_t
{
    Inst,           ///< ordinary dynamic instruction
    TraceInvoke,    ///< DynaSpAM fat atomic trace invocation (uses ROB')
};

/**
 * One in-flight dynamic instruction (a ROB entry). Identified by a unique
 * sequence number; carries the trace index it was fetched from so squash
 * and replay can re-fetch the same oracle records.
 */
struct DynInst
{
    SeqNum seq = 0;             ///< unique per in-flight instance
    SeqNum traceIdx = 0;        ///< index into the oracle DynamicTrace
    InstAddr pc = 0;
    const isa::StaticInst *inst = nullptr;
    const isa::DynRecord *record = nullptr;

    RobKind kind = RobKind::Inst;
    /** For TraceInvoke entries: how many oracle records this covers. */
    std::uint32_t traceLen = 0;
    /** For TraceInvoke entries: handle into the offload engine. */
    std::uint32_t invocationId = 0;

    // Rename state.
    RegIndex destPhys = REG_INVALID;
    RegIndex prevPhys = REG_INVALID;    ///< previous mapping of dest
    RegIndex src1Phys = REG_INVALID;
    RegIndex src2Phys = REG_INVALID;

    // Pipeline timestamps.
    Cycle fetchCycle = CYCLE_INVALID;
    Cycle dispatchCycle = CYCLE_INVALID;
    Cycle issueCycle = CYCLE_INVALID;
    Cycle completeCycle = CYCLE_INVALID;

    // Status flags.
    bool inIq = false;          ///< waiting in the issue queue
    /** Source registers whose values are still unknown. While non-zero
     *  the instruction sits on the producers' consumer lists; the last
     *  producer to issue moves it onto the scheduler's pending queue. */
    std::uint8_t waitCount = 0;
    bool issued = false;
    bool completed = false;
    bool mispredicted = false;  ///< branch direction/target mispredicted
    bool predictedTaken = false;
    /** RAS state before this instruction was fetched; a squash restores
     *  the stack to the oldest squashed entry's checkpoint. */
    RasCheckpoint rasCp;

    // Memory state.
    bool addrReady = false;     ///< effective address computed
    SeqNum dependsOnStore = 0;  ///< store-set predicted producer (seq)
    /** Store that forwarded this load's value (0 = value from cache). */
    SeqNum forwardedFromSeq = 0;

    // Mapping-phase state.
    bool mappingInst = false;       ///< trace instruction being mapped
    bool lastMappingInst = false;   ///< last instruction of the trace

    bool isLoad() const { return inst && inst->isLoad(); }
    bool isStore() const { return inst && inst->isStore(); }
    bool isControl() const { return inst && inst->isControl(); }

    /** Pointer members compare by identity, which is value equality for
     *  snapshot purposes: both sides of a snapshot diff reference the
     *  same immutable Program/DynamicTrace instance. */
    bool operator==(const DynInst &) const = default;

    /** Every member except the inst/record pointers, which are derived
     *  from traceIdx and kind (and rebound that way on decode). */
    template <class V>
    void
    fields(V &v)
    {
        v("seq", seq);
        v("traceIdx", traceIdx);
        v("pc", pc);
        v("kind", kind);
        v("traceLen", traceLen);
        v("invocationId", invocationId);
        v("destPhys", destPhys);
        v("prevPhys", prevPhys);
        v("src1Phys", src1Phys);
        v("src2Phys", src2Phys);
        v("fetchCycle", fetchCycle);
        v("dispatchCycle", dispatchCycle);
        v("issueCycle", issueCycle);
        v("completeCycle", completeCycle);
        v("inIq", inIq);
        v("waitCount", waitCount);
        v("issued", issued);
        v("completed", completed);
        v("mispredicted", mispredicted);
        v("predictedTaken", predictedTaken);
        v("rasCp", rasCp);
        v("addrReady", addrReady);
        v("dependsOnStore", dependsOnStore);
        v("forwardedFromSeq", forwardedFromSeq);
        v("mappingInst", mappingInst);
        v("lastMappingInst", lastMappingInst);
    }
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_DYNINST_HH
