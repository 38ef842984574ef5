/**
 * @file
 * Predicted-path trace walker.
 *
 * When the fetch unit receives a branch instruction, it retrieves the
 * predictions for the next three branches from the branch predictor to
 * build a T-Cache index, and — if the trace is hot — grabs instructions
 * until the fourth branch (Section 3.1), capped at the preset trace
 * length. This walker performs that lookahead over the *static* program
 * using predictor peeks only (no oracle knowledge), simulating the global
 * history shifts of the branches it passes.
 */

#ifndef DYNASPAM_CORE_WALKER_HH
#define DYNASPAM_CORE_WALKER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"
#include "ooo/bpred.hh"

namespace dynaspam::core
{

/** Result of walking the predicted path from a trace anchor branch. */
struct TraceWalk
{
    bool valid = false;

    /** T-Cache key: anchor PC plus first three predicted outcomes. */
    std::uint64_t key = 0;

    /** PCs of the trace extent, anchor first. */
    std::vector<InstAddr> pcs;

    /** Predicted directions, parallel to pcs (meaningful for branches). */
    std::vector<bool> predictedTaken;

    unsigned numCondBranches = 0;   ///< conditional branches in the extent
};

/** Result of the key-only prefix of a predicted-path walk. */
struct TraceKeyProbe
{
    bool valid = false;
    std::uint64_t key = 0;  ///< same key walkPredictedPath would produce
};

/**
 * Compute just the T-Cache key for the trace anchored at @p anchor_pc,
 * without materialising the extent vectors.
 *
 * This runs exactly the key-determining prefix of walkPredictedPath (the
 * walk up to the third conditional branch, with identical failure
 * conditions), so `probe.valid == walk.valid` and, when valid,
 * `probe.key == walk.key`. The fetch path keys the T-Cache and the
 * configuration cache with the probe and pays for the full walk only
 * where a mapping may start: walkPredictedPath always puts the anchor
 * into pcs, so the full walk can never turn invalid after the key
 * prefix succeeds.
 */
TraceKeyProbe probeTraceKey(const isa::Program &program,
                            const ooo::BranchPredictor &bpred,
                            InstAddr anchor_pc, unsigned max_len);

/**
 * Walk the predicted path starting at the conditional branch @p anchor_pc.
 *
 * The walk fails (valid == false) when it meets a RET (no walkable RAS),
 * a HALT, a predicted-taken branch with no BTB target, or fewer than
 * three conditional branches within a bounded lookahead.
 *
 * @param program static program
 * @param bpred predictor to peek (state is not modified)
 * @param anchor_pc PC of the anchor conditional branch
 * @param max_len trace length cap in instructions (paper: 16-40)
 */
TraceWalk walkPredictedPath(const isa::Program &program,
                            const ooo::BranchPredictor &bpred,
                            InstAddr anchor_pc, unsigned max_len);

} // namespace dynaspam::core

#endif // DYNASPAM_CORE_WALKER_HH
