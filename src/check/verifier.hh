/**
 * @file
 * The run-time verifier: one object per simulated run that owns the
 * golden-model lockstep checker and the invariant auditors, and drives
 * them from the pipeline's CommitObserver callbacks.
 *
 * Cadence: the pipeline auditors run every check::auditInterval()
 * cycles (default every cycle); the structure audits (T-Cache,
 * configuration cache and every cached fabric configuration) are much
 * heavier per pass and the structures only change on trains/inserts,
 * so they run structureStride times less often. The lockstep checker
 * is driven per commit and so is exact regardless of interval.
 */

#ifndef DYNASPAM_CHECK_VERIFIER_HH
#define DYNASPAM_CHECK_VERIFIER_HH

#include <cstdint>

#include "check/auditors.hh"
#include "check/check.hh"
#include "check/golden.hh"
#include "ooo/cpu.hh"

namespace dynaspam::core
{
class DynaSpamController;
} // namespace dynaspam::core

namespace dynaspam::check
{

/** The verifier's own counters (its auditors are stateless walkers). */
struct VerifierState
{
    std::uint64_t statAuditPasses = 0;
    std::uint64_t statStructurePasses = 0;

    bool operator==(const VerifierState &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("statAuditPasses", statAuditPasses);
        v("statStructurePasses", statStructurePasses);
    }
};

/** Drives all checkers for one OooCpu run. Attach with
 *  cpu.setCommitObserver(&verifier); call finish() after cpu.run(). */
class Verifier : public ooo::CommitObserver, private VerifierState
{
  public:
    /** Structure audits run every auditInterval() * structureStride
     *  cycles. */
    static constexpr std::uint64_t structureStride = 64;

    /**
     * @param cpu the pipeline under audit
     * @param trace the oracle trace the run commits
     * @param initial_memory starting data-memory image (for the golden
     *        model's private copy)
     * @param controller DynaSpAM controller, or nullptr for baseline
     *        runs (skips the structure audits)
     * @param sink violation destination
     */
    Verifier(const ooo::OooCpu &cpu, const isa::DynamicTrace &trace,
             const mem::FunctionalMemory &initial_memory,
             const core::DynaSpamController *controller,
             ViolationSink &sink);

    void onCommit(SeqNum first_idx, std::uint32_t count, bool via_fabric,
                  Cycle now) override;
    void onCycleEnd(Cycle now) override;

    /** End of run: the whole trace must have committed; final audit. */
    void finish(Cycle now);

    const LockstepChecker &lockstepChecker() const { return lockstep; }
    std::uint64_t auditPasses() const { return statAuditPasses; }
    std::uint64_t structurePasses() const { return statStructurePasses; }

    /** Complete verifier state: the lockstep checker's and its own. */
    struct SavedState : VerifierState
    {
        LockstepChecker::SavedState lockstep;

        bool operator==(const SavedState &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("lockstep", lockstep);
            VerifierState::fields(v);
        }
    };

    void
    save(SavedState &out) const
    {
        lockstep.save(out.lockstep);
        static_cast<VerifierState &>(out) = *this;
    }

    void
    restore(const SavedState &in)
    {
        lockstep.restore(in.lockstep);
        VerifierState::operator=(in);
    }

  private:
    void auditStructures(Cycle now);

    const ooo::OooCpu &cpu;
    const core::DynaSpamController *controller;
    ViolationSink &sink;

    LockstepChecker lockstep;
    OooAuditor oooAuditor;
    StructureAuditor structureAuditor;

    std::uint64_t interval;
};

} // namespace dynaspam::check

#endif // DYNASPAM_CHECK_VERIFIER_HH
