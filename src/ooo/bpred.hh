/**
 * @file
 * Tournament branch predictor with BTB and return-address stack,
 * configured per the paper's Table 4 (4K-entry BTB, 16-entry RAS).
 *
 * Direction prediction combines a local 2-bit-counter table with a gshare
 * global predictor through a chooser table. The predictor also exposes its
 * *speculative* view of the next branches along a predicted path, which the
 * DynaSpAM fetch stage uses to build T-Cache indices (Section 3.1).
 */

#ifndef DYNASPAM_OOO_BPRED_HH
#define DYNASPAM_OOO_BPRED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace dynaspam::ooo
{

/** Configuration of the tournament predictor. */
struct BPredParams
{
    std::size_t localEntries = 2048;    ///< local 2-bit counter table
    std::size_t globalEntries = 4096;   ///< gshare table
    std::size_t chooserEntries = 4096;  ///< tournament chooser
    unsigned historyBits = 12;          ///< global history length
    std::size_t btbEntries = 4096;      ///< branch target buffer
    std::size_t rasEntries = 16;        ///< return address stack
};

/**
 * Snapshot of the return-address stack taken before a prediction, so a
 * squash can undo the speculative pushes/pops of the discarded path.
 * Checkpointing only (depth, top value) matches real TOS-checkpoint
 * hardware: a pop-then-repush sequence that rotated entries out through
 * overflow is not fully reversible, which is the accepted approximation
 * (the stack below the top is usually untouched).
 */
struct RasCheckpoint
{
    std::size_t top = 0;    ///< valid-entry count at checkpoint time
    InstAddr tos = 0;       ///< value on top (0 when the stack was empty)

    bool operator==(const RasCheckpoint &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("top", top);
        v("tos", tos);
    }
};

/** Outcome of a branch prediction. */
struct BPrediction
{
    bool taken = false;             ///< predicted direction
    bool targetKnown = false;       ///< BTB (or RAS) supplied a target
    InstAddr target = 0;            ///< predicted target when targetKnown
};

struct BtbEntry
{
    InstAddr pc = INST_ADDR_INVALID;
    InstAddr target = 0;

    bool operator==(const BtbEntry &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("pc", pc);
        v("target", target);
    }
};

/**
 * Mutable predictor state: every counter table, the BTB, the RAS, both
 * history registers and the statistics. Table sizes are construction
 * parameters; restore() requires a predictor built with the same
 * BPredParams.
 */
struct BranchPredictorState
{
    std::vector<std::uint8_t> localTable;    ///< 2-bit counters
    std::vector<std::uint8_t> globalTable;   ///< 2-bit counters
    std::vector<std::uint8_t> chooserTable;  ///< 2-bit: >=2 prefers global

    std::vector<BtbEntry> btb;

    std::vector<InstAddr> ras;
    std::size_t rasTop = 0;     ///< number of valid entries

    std::uint64_t specHistory = 0;   ///< speculative global history
    std::uint64_t archHistory = 0;   ///< resolved global history

    std::uint64_t statLookups = 0;
    std::uint64_t statMispredicts = 0;

    bool operator==(const BranchPredictorState &) const = default;

    /** The stack depth fits the stack (checked on decode). */
    bool wellFormed() const { return rasTop <= ras.size(); }

    template <class V>
    void
    fields(V &v)
    {
        v("localTable", localTable);
        v("globalTable", globalTable);
        v("chooserTable", chooserTable);
        v("btb", btb);
        v("ras", ras);
        v("rasTop", rasTop);
        v("specHistory", specHistory);
        v("archHistory", archHistory);
        v("statLookups", statLookups);
        v("statMispredicts", statMispredicts);
    }
};

/**
 * Tournament predictor: local + gshare + chooser, with BTB and RAS.
 *
 * The predictor is consulted at fetch and trained at branch resolution.
 * Unconditional direct jumps/calls predict taken; their target is learned
 * through the BTB like any other branch. RET pops the RAS.
 */
class BranchPredictor : private BranchPredictorState
{
  public:
    explicit BranchPredictor(const BPredParams &params = BPredParams{});

    /**
     * Predict a control instruction at @p pc.
     * Updates speculative history and the RAS.
     * @param pc static instruction index of the branch
     * @param inst the control instruction
     * @return predicted direction and target
     */
    BPrediction predict(InstAddr pc, const isa::StaticInst &inst);

    /**
     * Pure lookup used by DynaSpAM's fetch stage to peek the predictions
     * for upcoming branches without perturbing any predictor state.
     */
    BPrediction peek(InstAddr pc, const isa::StaticInst &inst) const;

    /**
     * Like peek(), but predicting a conditional branch with an explicit
     * global history, so a trace walker can simulate the history shifts
     * of the branches it passes. RET lookups report no target (the walker
     * cannot track the speculative RAS).
     */
    BPrediction peekWithHistory(InstAddr pc, const isa::StaticInst &inst,
                                std::uint64_t history) const;

    /** Current speculative global history (walker seed). */
    std::uint64_t speculativeHistory() const { return specHistory; }

    /** Snapshot the RAS. The fetch stage captures one per instruction,
     *  *before* predict() runs for it, so a squash at that instruction
     *  can roll the stack back past its own push/pop. */
    RasCheckpoint
    rasCheckpoint() const
    {
        return {rasTop, rasTop ? ras[rasTop - 1] : 0};
    }

    /** Roll the RAS back to @p cp (squash recovery). Restores the depth
     *  and the top entry; see RasCheckpoint for the overflow caveat. */
    void
    restoreRas(const RasCheckpoint &cp)
    {
        rasTop = cp.top;
        if (rasTop)
            ras[rasTop - 1] = cp.tos;
    }

    /**
     * Train the predictor with the resolved outcome.
     * @param pc branch PC
     * @param inst the control instruction
     * @param taken resolved direction
     * @param target resolved target (for BTB fill)
     * @param mispredicted true when the earlier predict() was wrong;
     *                     restores the speculative global history
     */
    void update(InstAddr pc, const isa::StaticInst &inst, bool taken,
                InstAddr target, bool mispredicted);

    /**
     * Replace the most recent speculative-history bit. The fetch stage
     * calls this when it detects (via the oracle) that the direction it
     * just predicted was wrong and stalls — the hardware analog is the
     * history repair performed at branch resolution.
     */
    void
    fixupLastHistoryBit(bool taken)
    {
        specHistory = (specHistory & ~std::uint64_t(1)) | (taken ? 1 : 0);
    }

    std::uint64_t lookups() const { return statLookups; }
    std::uint64_t mispredicts() const { return statMispredicts; }

    using State = BranchPredictorState;

    void save(State &out) const { out = *this; }
    void restore(const State &in) { State::operator=(in); }

    /** @p in has this predictor's table sizes (restore() needs them). */
    bool
    fits(const State &in) const
    {
        return in.localTable.size() == localTable.size() &&
               in.globalTable.size() == globalTable.size() &&
               in.chooserTable.size() == chooserTable.size() &&
               in.btb.size() == btb.size() && in.ras.size() == ras.size();
    }

  private:
    static bool counterTaken(std::uint8_t c) { return c >= 2; }
    static std::uint8_t bump(std::uint8_t c, bool up);

    std::size_t localIndex(InstAddr pc) const;
    std::size_t globalIndex(InstAddr pc, std::uint64_t history) const;
    std::size_t chooserIndex(InstAddr pc) const;
    std::size_t btbIndex(InstAddr pc) const;

    bool predictDirection(InstAddr pc, std::uint64_t history) const;

    BPredParams params;
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_BPRED_HH
