/**
 * @file
 * Snapshot round-trip auditor.
 *
 * The forked-sweep machinery relies on sim::Snapshot capturing the
 * COMPLETE mutable simulator state: a restore followed by a re-save
 * must reproduce the source snapshot exactly, or the fork will quietly
 * drift from the straight-through run. This auditor diffs two
 * snapshots with each component's operator== and names the first
 * mismatching member through a ViolationSink, by walking the
 * components' field lists (common/fields.hh), so a missed field shows
 * up as a named violation ("cpu.rob[3].issueCycle",
 * "controller.dstats.tracesConsidered", ...) instead of a mystery
 * byte-diff three layers up.
 *
 * Wired in two places: the runner's fork path re-saves every restored
 * fork and audits it against the warmup snapshot when checks are
 * enabled, and the fault-injection self-test seeds a corrupted restore
 * to prove the diff actually fires (FaultInjector::injectSnapshotFault).
 */

#ifndef DYNASPAM_CHECK_SNAPSHOT_AUDIT_HH
#define DYNASPAM_CHECK_SNAPSHOT_AUDIT_HH

#include "check/check.hh"
#include "common/types.hh"

namespace dynaspam::sim
{
struct Snapshot;
} // namespace dynaspam::sim

namespace dynaspam::check
{

/**
 * Compare @p got against @p expect component by component. Reports
 * one violation (auditor tag "snapshot") naming the path of the first
 * differing member for each top-level component that mismatches.
 * @param now cycle recorded in the violation
 * @return true when the snapshots are identical
 */
bool auditSnapshotRoundTrip(const sim::Snapshot &expect,
                            const sim::Snapshot &got, ViolationSink &sink,
                            Cycle now);

} // namespace dynaspam::check

#endif // DYNASPAM_CHECK_SNAPSHOT_AUDIT_HH
