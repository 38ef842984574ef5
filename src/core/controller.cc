/**
 * @file
 * DynaSpAM controller implementation.
 */

#include "core/controller.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "check/check.hh"
#include "common/logging.hh"
#include "trace/trace.hh"

namespace dynaspam::core
{

DynaSpamController::DynaSpamController(const DynaSpamParams &p,
                                       const isa::DynamicTrace &t,
                                       ooo::BranchPredictor &bp,
                                       ooo::StoreSetPredictor &ss,
                                       mem::MemoryHierarchy &h)
    : params(p), trace(t), bpred(bp), storeSets(ss), hierarchy(h),
      tCache(p.tcache), cfgCache(p.configCache)
{
    if (params.numFabrics == 0)
        fatal("DynaSpAM needs at least one fabric");
    for (unsigned i = 0; i < params.numFabrics; i++) {
        fabricPool.push_back(std::make_unique<fabric::Fabric>(
            params.fabricParams, hierarchy, storeSets));
    }
    const unsigned pes = params.fabricParams.pesPerStripe();
    if (params.mapper == MapperKind::ResourceAware)
        policy = std::make_unique<ResourceAwarePolicy>(pes);
    else
        policy = std::make_unique<NaiveOrderPolicy>(pes);
}

bool
DynaSpamController::walkMatchesOracle(const TraceWalk &walk,
                                      SeqNum trace_idx) const
{
    if (trace_idx + walk.pcs.size() > trace.size())
        return false;
    for (std::size_t i = 0; i < walk.pcs.size(); i++) {
        const isa::DynRecord &rec = trace[trace_idx + i];
        if (rec.pc != walk.pcs[i])
            return false;
        const isa::StaticInst &inst = trace.program().inst(rec.pc);
        if (inst.isControl() && rec.taken != walk.predictedTaken[i])
            return false;
    }
    return true;
}

std::size_t
DynaSpamController::selectFabric(
    const std::shared_ptr<const fabric::FabricConfig> &config, Cycle now)
{
    // Prefer a fabric already holding the configuration.
    for (std::size_t i = 0; i < fabricPool.size(); i++) {
        if (fabricPool[i]->hasConfig(config->key))
            return i;
    }

    // Configuration miss: from here on, which fabric is picked (a free
    // one vs. the LRU victim) depends on the pool size once any fabric
    // holds a configuration. The very first configure lands on pool[0]
    // for every pool size, so it is still prefix-invariant.
    if (guard && guard->numFabricsDiverges && !guard->fired) {
        for (auto &fab : fabricPool) {
            if (fab->configured()) {
                guard->fired = true;
                break;
            }
        }
    }

    // Otherwise an unconfigured fabric, else the LRU one.
    std::size_t victim_idx = fabricPool.size();
    for (std::size_t i = 0; i < fabricPool.size(); i++) {
        if (!fabricPool[i]->configured()) {
            victim_idx = i;
            break;
        }
    }
    if (victim_idx == fabricPool.size()) {
        victim_idx = 0;
        for (std::size_t i = 0; i < fabricPool.size(); i++) {
            if (fabricPool[i]->lastUseCycle() <
                fabricPool[victim_idx]->lastUseCycle())
                victim_idx = i;
        }
    }
    fabric::Fabric *victim = fabricPool[victim_idx].get();

    // Reconfigure the victim; its outgoing configuration's lifetime is a
    // Table 5 sample.
    if (victim->invocationsSinceConfigure() > 0) {
        dstats.lifetimeSum += victim->invocationsSinceConfigure();
        dstats.lifetimeCount++;
    }
    const Cycle ready = victim->configure(config, now);
    dstats.reconfigurations++;
    if (trace::compiledIn() && tsink)
        tsink->span(trace::Mark::Reconfigure, now, ready, config->key);
    return victim_idx;
}

ooo::FetchDirective
DynaSpamController::beforeFetch(SeqNum trace_idx, Cycle now)
{
    ooo::FetchDirective directive;

    // Everything in flight was fetched before this record, so a pending
    // offload at or past it was fetched on a path a squash cleared from
    // the front end, where no commit or squash hook will ever see it.
    pending.eraseFrom(trace_idx);

    // Only conditional branches anchor traces, so only they can carry a
    // suppression or an offload — bail before any hash probe otherwise.
    const isa::DynRecord &rec = trace[trace_idx];
    const isa::StaticInst &inst = trace.program().inst(rec.pc);
    if (!inst.isCondBranch())
        return directive;

    if (!suppressed.empty() && suppressed.count(trace_idx)) {
        dstats.offloadSuppressed++;
        // This record's invocation just squashed: run it on the host.
        // (The entry is consumed at commit, not here, because fetch can
        // be re-run after an unrelated squash.)
        return directive;
    }

    if (mappingInProgress)
        return directive;

    // Build the T-Cache index from the predictions for this and the next
    // two branches. The key-only probe avoids materialising the extent
    // vectors: probe.valid implies the full walk is valid, with the same
    // key (walker.hh), so only a mapping start below needs the walk.
    TraceKeyProbe probe = probeTraceKey(trace.program(), bpred, rec.pc,
                                        params.traceLength);
    if (!probe.valid || !tCache.isHot(probe.key))
        return directive;

    dstats.tracesConsidered++;
    if (trace::compiledIn() && tsink)
        tsink->mark(trace::Mark::TCacheHit, now, probe.key, trace_idx);

    auto config = cfgCache.find(probe.key);
    if (config) {
        const bool ready = cfgCache.recordPrediction(probe.key);
        // Offload decision point: with the counter saturated, the
        // outcome consults enableOffload, and an issued offload's fabric
        // timing consults memorySpeculation.
        if (guard && ready &&
            (guard->offloadDiverges ||
             (params.enableOffload && guard->memSpecDiverges))) {
            guard->fired = true;
        }
        if (!ready || !params.enableOffload) {
            dstats.offloadBelowThreshold++;
            return directive;
        }

        // Offload. The fabric is chosen when the invocation starts; a
        // stale config whose extent no longer matches the oracle path is
        // still dispatched — the path mismatch squashes in the fabric,
        // mirroring the hardware.
        directive.kind = ooo::FetchDirective::Kind::Offload;
        directive.numRecords = config->numRecords;
        directive.liveIns = config->liveIns;
        directiveLiveOuts.clear();
        for (const auto &lo : config->liveOuts)
            directiveLiveOuts.push_back(lo.arch);
        directive.liveOuts = directiveLiveOuts;
        directive.hasStores = config->hasStores;

        pending.assign(trace_idx, PendingInvocation{config, probe.key,
                                                    config->numRecords});
        dstats.offloadsIssued++;
        return directive;
    }

    // Not mapped yet: start a mapping phase if the predicted path holds
    // against the oracle (a mispredicted path would abort the mapping
    // anyway — Section 3.1). Traces that already failed to map are not
    // retried.
    dstats.hotNotMapped++;
    if (failedKeys.count(probe.key))
        return directive;
    if (now < lastMappingStart + params.mappingCooldown &&
        dstats.mappingsStarted > 0) {
        return directive;   // rate-limit reconfiguration pressure
    }
    const TraceWalk walk = walkPredictedPath(trace.program(), bpred, rec.pc,
                                             params.traceLength);
    DYNASPAM_CHECK(walk.valid && walk.key == probe.key,
                   "predicted-path walk at record ", trace_idx,
                   " disagrees with its key probe");
    if (!walkMatchesOracle(walk, trace_idx))
        return directive;
    if (walk.pcs.size() < 4)
        return directive;   // too short to be worth a configuration

    // Mapping begins: the session's schedule is driven by the installed
    // policy, so the mapper kind is consulted from here on.
    if (guard && guard->mapperDiverges)
        guard->fired = true;

    session.emplace(params.fabricParams, trace_idx,
                    std::uint32_t(walk.pcs.size()), walk.key);
    policy->arm(&*session, trace_idx);
    mappingInProgress = true;
    mappingKey = walk.key;
    lastMappingStart = now;

    directive.kind = ooo::FetchDirective::Kind::BeginMapping;
    directive.numRecords = std::uint32_t(walk.pcs.size());
    directive.policy = policy.get();
    // Counted at directive issue so aborts that fire before the first
    // trace instruction dispatches still balance the books.
    dstats.mappingsStarted++;
    return directive;
}

void
DynaSpamController::mappingStarted(SeqNum, Cycle)
{
}

void
DynaSpamController::mappingFinished(SeqNum trace_idx, Cycle now)
{
    if (!session)
        return;
    if (trace::compiledIn() && tsink) {
        tsink->span(trace::Mark::Mapping, lastMappingStart, now,
                    mappingKey, trace_idx);
    }
    auto config = session->buildConfig(trace);
    if (config) {
        const auto outcome = cfgCache.insert(mappingKey,
                                             std::move(*config));
        if (trace::compiledIn() && tsink) {
            if (outcome.evicted) {
                tsink->mark(trace::Mark::ConfigEvict, now,
                            outcome.evictedKey);
            }
            tsink->mark(trace::Mark::ConfigFill, now, mappingKey,
                        trace_idx);
        }
        if (mappedKeys.insert(mappingKey).second)
            dstats.distinctMappedTraces++;
        dstats.mappingsCompleted++;
    } else {
        dstats.mappingsDiscarded++;
        failedKeys.insert(mappingKey);
    }
    policy->disarm();
    session.reset();
    mappingInProgress = false;
}

void
DynaSpamController::mappingAborted(SeqNum trace_idx, Cycle now)
{
    if (!session)
        return;
    if (trace::compiledIn() && tsink) {
        tsink->span(trace::Mark::MappingAbort, lastMappingStart, now,
                    mappingKey, trace_idx);
    }
    dstats.mappingsAborted++;
    policy->disarm();
    session.reset();
    mappingInProgress = false;
}

void
DynaSpamController::offloadStart(SeqNum trace_idx, std::uint32_t num_records,
                                 Cycle now,
                                 const std::vector<Cycle> &live_in_ready,
                                 Cycle mem_safe, ooo::InvocationResult &result)
{
    PendingInvocation *inv = pending.find(trace_idx);
    if (!inv)
        panic("offloadStart for unknown invocation at ", trace_idx);

    const std::size_t fab = selectFabric(inv->config, now);
    inv->startedOnIdx = int(fab);
    fabric::FabricExecResult &fx = execScratch;
    fabricPool[fab]->execute(trace, trace_idx, live_in_ready, mem_safe, now,
                             fx);
    (void)num_records;
    if (trace::compiledIn() && tsink) {
        tsink->span(trace::Mark::Invocation, now, fx.completeCycle,
                    inv->key, trace_idx);
    }

    result.squashed = fx.squashed;
    result.completeCycle = fx.completeCycle;
    result.liveOutReady.assign(fx.liveOutReady.begin(),
                               fx.liveOutReady.end());
    result.storeEvents.clear();
    for (const auto &ev : fx.storeEvents)
        result.storeEvents.emplace_back(ev.addr, ev.pc);
}

void
DynaSpamController::invocationCommitted(SeqNum trace_idx, Cycle now)
{
    dstats.invocationsCommitted++;
    if (trace::compiledIn() && tsink)
        tsink->mark(trace::Mark::InvokeCommit, now, 0, trace_idx);
    if (PendingInvocation *inv = pending.find(trace_idx)) {
        dstats.instsOffloaded += inv->numRecords;
        offloadedKeys.insert(inv->key);
        if (inv->startedOnIdx >= 0)
            fabricPool[std::size_t(inv->startedOnIdx)]
                ->noteCommitted(trace_idx);
        pending.erase(trace_idx);
    }
}

void
DynaSpamController::invocationSquashed(SeqNum trace_idx, Cycle now,
                                       bool at_fault)
{
    if (trace::compiledIn() && tsink) {
        tsink->mark(trace::Mark::InvokeSquash, now, 0, trace_idx,
                    at_fault ? 1 : 0);
    }
    PendingInvocation *inv = pending.find(trace_idx);
    if (at_fault) {
        dstats.invocationsSquashed++;
        suppressed.insert(trace_idx);
        if (inv)
            cfgCache.penalize(inv->key);
    } else {
        dstats.invocationsCollateral++;
    }
    if (inv) {
        // Rewind the ghost effects this invocation left in the fabric's
        // pipelining state (squash notifications arrive youngest-first).
        if (inv->startedOnIdx >= 0)
            fabricPool[std::size_t(inv->startedOnIdx)]->rollback(trace_idx);
        pending.erase(trace_idx);
    }
}

void
DynaSpamController::onCommitControl(InstAddr pc, bool taken,
                                    SeqNum trace_idx, Cycle)
{
    const isa::StaticInst &inst = trace.program().inst(pc);
    if (inst.isCondBranch())
        tCache.commitBranch(pc, taken);
    // A suppressed record that has now committed on the host can be
    // offloaded again in the future.
    if (!suppressed.empty())
        suppressed.erase(trace_idx);
}

void
DynaSpamController::setTraceSink(trace::TraceSink *sink)
{
    tsink = sink;
    for (auto &fab : fabricPool)
        fab->setTraceSink(sink);
}

void
DynaSpamController::finalizeStats()
{
    for (auto &fab : fabricPool) {
        if (fab->invocationsSinceConfigure() > 0) {
            dstats.lifetimeSum += fab->invocationsSinceConfigure();
            dstats.lifetimeCount++;
        }
    }
    dstats.distinctOffloadedTraces = offloadedKeys.size();
}

void
DynaSpamController::save(SavedState &out) const
{
    tCache.save(out.tcache);
    cfgCache.save(out.configCache);
    out.fabrics.resize(fabricPool.size());
    for (std::size_t i = 0; i < fabricPool.size(); i++)
        fabricPool[i]->save(out.fabrics[i]);
    policy->save(out.policy);
    static_cast<DynaSpamControllerState &>(out) = *this;
}

void
DynaSpamController::restore(const SavedState &in)
{
    tCache.restore(in.tcache);
    cfgCache.restore(in.configCache);
    // Pool sizes may differ across a fork group (see SavedState docs);
    // fabrics beyond the common prefix are untouched on either side.
    const std::size_t n = std::min(in.fabrics.size(), fabricPool.size());
    for (std::size_t i = 0; i < n; i++)
        fabricPool[i]->restore(in.fabrics[i]);
    DynaSpamControllerState::operator=(in);
    policy->restore(in.policy, session ? &*session : nullptr);
}

bool
DynaSpamController::fits(const SavedState &in) const
{
    for (const auto &entry : in.pending) {
        if (entry.second.startedOnIdx >= int(fabricPool.size()))
            return false;
    }
    return tCache.fits(in.tcache) && cfgCache.fits(in.configCache);
}

void
DynaSpamController::exportStats(StatRegistry &reg) const
{
    reg.counter("dynaspam.tracesConsidered").inc(dstats.tracesConsidered);
    reg.counter("dynaspam.mappingsStarted").inc(dstats.mappingsStarted);
    reg.counter("dynaspam.mappingsCompleted").inc(dstats.mappingsCompleted);
    reg.counter("dynaspam.mappingsAborted").inc(dstats.mappingsAborted);
    reg.counter("dynaspam.mappingsDiscarded").inc(dstats.mappingsDiscarded);
    reg.counter("dynaspam.offloadsIssued").inc(dstats.offloadsIssued);
    reg.counter("dynaspam.invocationsCommitted")
        .inc(dstats.invocationsCommitted);
    reg.counter("dynaspam.invocationsSquashed")
        .inc(dstats.invocationsSquashed);
    reg.counter("dynaspam.reconfigurations").inc(dstats.reconfigurations);
    reg.counter("dynaspam.distinctMappedTraces")
        .inc(dstats.distinctMappedTraces);
    reg.counter("dynaspam.distinctOffloadedTraces")
        .inc(dstats.distinctOffloadedTraces);
    reg.counter("dynaspam.instsOffloaded").inc(dstats.instsOffloaded);
    for (std::size_t i = 0; i < fabricPool.size(); i++)
        fabricPool[i]->exportStats(reg, "fabric" + std::to_string(i));
}

} // namespace dynaspam::core
