/**
 * @file
 * Issue-unit selection policy interface.
 *
 * This is the microarchitectural hook the whole paper hinges on: the issue
 * unit's priority encoder consults a pluggable policy when it selects ready
 * instructions for functional units (Algorithm 1, Lines 7-12). The baseline
 * installs oldest-first; during a DynaSpAM mapping phase the mapping
 * generator installs its resource-aware policy, which scores each
 * (functional unit, instruction) pair and can veto infeasible placements.
 */

#ifndef DYNASPAM_OOO_POLICY_HH
#define DYNASPAM_OOO_POLICY_HH

#include <cstdint>

#include "common/types.hh"
#include "ooo/dyninst.hh"

namespace dynaspam::ooo
{

/**
 * A selection policy scores candidate (FU, instruction) pairs.
 *
 * Scores follow Table 2 of the paper: higher is better; a negative score
 * vetoes the placement. The host's own tie-break (oldest first) is applied
 * among equal-score candidates by the issue unit itself.
 */
class SelectPolicy
{
  public:
    virtual ~SelectPolicy() = default;

    /**
     * Score placing @p inst on functional unit @p fu_index (an index
     * within the FU pool, stable across cycles).
     * @return priority score; < 0 vetoes this pairing
     */
    virtual int score(unsigned fu_index, const DynInst &inst) = 0;

    /**
     * Notification that @p inst was selected for @p fu_index this cycle
     * (Algorithm 1 Line 13: UpdateTables).
     */
    virtual void selected(unsigned fu_index, const DynInst &inst) = 0;

    /**
     * Called once at the start of each scheduling cycle with the set of
     * FU indices participating this cycle. Lets the mapper advance the
     * scheduling frontier (returns false to pause issue, e.g. while
     * long-latency units drain at a frontier boundary).
     */
    virtual bool beginCycle(Cycle now) { (void)now; return true; }

    /**
     * A passive policy has no per-cycle or per-candidate side effects
     * and no preference: beginCycle always returns true, selected()
     * does nothing and score() returns 0 for every pairing, so select
     * is oldest-first. The issue unit may then skip scheduling cycles
     * with no ready candidates entirely and pick each FU type's oldest
     * candidates in one pass without scoring. Mapping policies are
     * stateful and must return false.
     */
    virtual bool passive() const { return false; }
};

/** Oldest-first policy: the host's default HostPriorityRule. */
class OldestFirstPolicy : public SelectPolicy
{
  public:
    int
    score(unsigned fu_index, const DynInst &inst) override
    {
        (void)fu_index;
        (void)inst;
        return 0;   // all feasible and equal; age tie-break decides
    }

    bool passive() const override { return true; }

    void
    selected(unsigned fu_index, const DynInst &inst) override
    {
        (void)fu_index;
        (void)inst;
    }
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_POLICY_HH
