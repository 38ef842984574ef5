/**
 * @file
 * Spatial fabric dataflow execution model implementation.
 */

#include "fabric/fabric.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace dynaspam::fabric
{

std::string
FabricConfig::toString() const
{
    std::ostringstream os;
    os << "config key=0x" << std::hex << key << std::dec << " records="
       << numRecords << " stripes=" << int(stripesUsed) << "\n";
    for (std::size_t i = 0; i < insts.size(); i++) {
        const MappedInst &mi = insts[i];
        os << "  [" << i << "] pc=" << mi.pc << " "
           << isa::opcodeName(mi.op) << " @s" << int(mi.pe.stripe) << ":p"
           << int(mi.pe.index) << "\n";
    }
    return os.str();
}

bool
FabricConfig::wellFormed() const
{
    auto arch_ok = [](RegIndex r) { return r < isa::NUM_ARCH_REGS; };
    auto route_ok = [this](const OperandRoute &r) {
        switch (r.kind) {
          case OperandRoute::Kind::None:
            return true;
          case OperandRoute::Kind::LiveIn:
            return r.liveInIdx < liveIns.size();
          case OperandRoute::Kind::PassReg:
          case OperandRoute::Kind::Routed:
            return r.producerIdx < insts.size();
        }
        return false;
    };
    for (const MappedInst &mi : insts) {
        if (!route_ok(mi.src1) || !route_ok(mi.src2) ||
            (mi.destArch != REG_INVALID && !arch_ok(mi.destArch)))
            return false;
    }
    for (const LiveOut &lo : liveOuts) {
        if (!arch_ok(lo.arch) || lo.producerIdx >= insts.size())
            return false;
    }
    return std::all_of(liveIns.begin(), liveIns.end(), arch_ok);
}

Fabric::Fabric(const FabricParams &p, mem::MemoryHierarchy &h,
               ooo::StoreSetPredictor &ss)
    : params(p), hierarchy(h), storeSets(ss)
{
    if (params.numStripes == 0 || params.pesPerStripe() == 0)
        fatal("fabric must have at least one stripe and one PE");
}

Cycle
Fabric::configure(std::shared_ptr<const FabricConfig> config, Cycle now)
{
    if (!config || !config->valid())
        fatal("attempt to configure fabric with an invalid config");
    if (config->stripesUsed > params.numStripes)
        fatal("config uses ", int(config->stripesUsed),
              " stripes but fabric has ", params.numStripes);

    if (current)
        fstats.reconfigurations++;
    current = std::move(config);
    invocationsOnConfig = 0;
    prevInstComplete.assign(current->insts.size(), 0);
    prevLiveOutInternal.assign(current->liveOuts.size(), 0);
    prevTraceEndIdx = 0;
    configReadyCycle = now + Cycle(current->stripesUsed) *
                                 params.configureCyclesPerStripe;
    lastUse = now;
    return configReadyCycle;
}

void
Fabric::noteCommitted(SeqNum trace_idx)
{
    // Commits arrive in program order: everything at or before this
    // invocation is final.
    while (!snapshots.empty() && snapshots.front().first <= trace_idx)
        snapshots.pop_front();
}

void
Fabric::rollback(SeqNum trace_idx)
{
    std::size_t i = snapshots.size();
    while (i > 0 && snapshots[i - 1].first > trace_idx)
        i--;
    if (i == 0 || snapshots[i - 1].first != trace_idx)
        return;     // never executed here (or already rolled back)
    static_cast<FabricPipeState &>(*this) = snapshots[i - 1].second;
    while (snapshots.size() >= i)
        snapshots.pop_back();
}

void
Fabric::execute(const isa::DynamicTrace &trace, SeqNum trace_idx,
                const std::vector<Cycle> &live_in_arrival, Cycle mem_safe,
                Cycle now, FabricExecResult &result)
{
    if (!current)
        panic("Fabric::execute without a configuration");
    if (live_in_arrival.size() != current->liveIns.size())
        panic("live-in arrival count mismatch");

    // Capture the pipelining state so a ROB squash of this invocation
    // can rewind its ghost effects. Invocations usually start in trace
    // order, so the copy lands at the young end; an older one that
    // starts late moves down to its key's place.
    std::size_t at = snapshots.size();
    while (at > 0 && snapshots[at - 1].first > trace_idx)
        at--;
    if (at > 0 && snapshots[at - 1].first == trace_idx) {
        snapshots[at - 1].second = static_cast<const FabricPipeState &>(*this);
    } else {
        auto &slot = snapshots.push_back_reuse();
        slot.first = trace_idx;
        slot.second = static_cast<const FabricPipeState &>(*this);
        for (std::size_t i = snapshots.size() - 1; i > at; i--)
            std::swap(snapshots[i], snapshots[i - 1]);
    }

    result.squashed = false;
    result.cause = FabricExecResult::SquashCause::None;
    result.completeCycle = 0;
    result.liveOutReady.clear();
    result.storeEvents.clear();
    const FabricConfig &cfg = *current;
    const std::size_t n = cfg.insts.size();

    // Base start: request time, configuration done, and FIFO-depth
    // back-pressure (at most fifoDepth invocations overlap in flight).
    Cycle start = std::max(now, configReadyCycle);
    if (inflightWindow.size() >= params.fifoDepth)
        start = std::max(start,
                         inflightWindow[inflightWindow.size() -
                                        params.fifoDepth]);

    // Live-in arrival at the fabric input ports. Back-to-back invocations
    // of the same trace forward dependent live-outs directly over the
    // global bus, skipping the trip through the host register file.
    const bool back_to_back =
        invocationsOnConfig > 0 && trace_idx == prevTraceEndIdx;
    std::vector<Cycle> &arrival = arrivalScratch;
    arrival.resize(live_in_arrival.size());
    for (std::size_t i = 0; i < arrival.size(); i++) {
        arrival[i] = live_in_arrival[i] + params.globalBusLatency;
        if (back_to_back) {
            for (std::size_t o = 0; o < cfg.liveOuts.size(); o++) {
                if (cfg.liveOuts[o].arch == cfg.liveIns[i]) {
                    arrival[i] = std::min(
                        arrival[i],
                        prevLiveOutInternal[o] + params.globalBusLatency);
                    break;
                }
            }
        }
        fstats.busTransfers++;
        fstats.fifoPushes++;
    }

    std::vector<Cycle> &complete = completeScratch;
    complete.assign(n, 0);
    // PE occupancy per instruction: loads occupy their LDST unit only
    // for issue/address generation — the reservation buffer (Figure 4)
    // holds in-flight misses so responses can return out of order and
    // later invocations' loads can issue meanwhile (memory-level
    // parallelism, as in the host pipeline).
    std::vector<Cycle> &occupy = occupyScratch;
    occupy.assign(n, 0);
    // Without memory speculation, memory operations execute in strict
    // program order — including across invocations.
    Cycle last_mem_complete =
        params.memorySpeculation ? 0 : lastMemCompletePersist;
    Cycle last_event = start;
    bool squashed = false;
    std::size_t executed = n;

    // Stores of this invocation, for intra-trace violation detection.
    std::vector<PendingStore> &invStores = storesScratch;
    invStores.clear();

    for (std::size_t i = 0; i < n; i++) {
        const MappedInst &mi = cfg.insts[i];
        const isa::DynRecord &rec = trace[trace_idx + i];
        const SeqNum pseudo_seq = ooo::FABRIC_SEQ_FLAG | (trace_idx + i + 1);

        Cycle ready = start;
        for (const OperandRoute *route : {&mi.src1, &mi.src2}) {
            switch (route->kind) {
              case OperandRoute::Kind::None:
                break;
              case OperandRoute::Kind::LiveIn:
                ready = std::max(ready, arrival.at(route->liveInIdx));
                break;
              case OperandRoute::Kind::PassReg:
                ready = std::max(ready, complete.at(route->producerIdx));
                break;
              case OperandRoute::Kind::Routed:
                ready = std::max(ready,
                                 complete.at(route->producerIdx) +
                                     Cycle(route->hops) * params.hopLatency);
                fstats.datapathHops += route->hops;
                break;
            }
        }

        // Structural pipelining: the PE must have finished this slot's
        // operation from the previous invocation.
        ready = std::max(ready, prevInstComplete[i]);

        const unsigned lat = isa::opLatency(mi.opClass());
        Cycle done;

        if (mi.isLoad || mi.isStore) {
            ready = std::max(ready, mem_safe);
            if (!params.memorySpeculation) {
                // Strict program order among memory operations.
                ready = std::max(ready, last_mem_complete);
            }

            if (mi.isLoad) {
                if (params.memorySpeculation) {
                    // Store-set gate: wait for the predicted producer.
                    SeqNum dep = storeSets.lookupDependence(mi.pc);
                    if (dep != 0) {
                        for (const PendingStore &ps : invStores) {
                            if (ps.seq == dep) {
                                ready = std::max(ready, ps.completeCycle);
                                break;
                            }
                        }
                        // Dependences on stores outside this invocation
                        // are covered by mem_safe / recentStores below.
                        for (const RecentStore &rs : recentStores) {
                            if (rs.seq == dep)
                                ready = std::max(ready, rs.completeCycle);
                        }
                    }
                }
                fstats.dcacheAccesses++;
                auto access = hierarchy.dataAccess(rec.effAddr, false);
                done = ready + lat + access.latency;

                if (params.memorySpeculation) {
                    // Violation: an older store (this or the previous
                    // invocation) to the same address completes after
                    // this load started executing.
                    auto violates = [&](Addr a, Cycle c) {
                        return a == rec.effAddr && c > ready;
                    };
                    const PendingStore *bad = nullptr;
                    for (const PendingStore &ps : invStores) {
                        if (violates(ps.addr, ps.completeCycle)) {
                            bad = &ps;
                            break;
                        }
                    }
                    if (!bad) {
                        for (const RecentStore &rs : recentStores) {
                            if (violates(rs.addr, rs.completeCycle)) {
                                storeSets.recordViolation(mi.pc, rs.pc);
                                squashed = true;
                                result.cause = FabricExecResult::
                                    SquashCause::MemoryViolation;
                                last_event =
                                    std::max(last_event, rs.completeCycle);
                                break;
                            }
                        }
                    } else {
                        storeSets.recordViolation(mi.pc, bad->pc);
                        squashed = true;
                        result.cause =
                            FabricExecResult::SquashCause::MemoryViolation;
                        last_event =
                            std::max(last_event, bad->completeCycle);
                    }
                    if (squashed) {
                        fstats.memViolations++;
                        executed = i + 1;
                        complete[i] = done;
                        break;
                    }
                }
            } else {
                done = ready + lat;
                invStores.push_back({rec.effAddr, done, mi.pc, pseudo_seq});
                if (params.memorySpeculation)
                    storeSets.dispatchStore(mi.pc, pseudo_seq);
                // Stores drain to the cache when the invocation commits.
                fstats.dcacheAccesses++;
                hierarchy.dataAccess(rec.effAddr, true);
            }
            last_mem_complete = std::max(last_mem_complete, done);
        } else {
            done = ready + lat;
        }

        complete[i] = done;
        // Functional units are pipelined (one new operation per cycle)
        // except the iterative dividers; loads hand off to the
        // reservation buffer after address generation.
        {
            const isa::OpClass cls = mi.opClass();
            const bool unpipelined = cls == isa::OpClass::IntDiv ||
                                     cls == isa::OpClass::FloatDiv;
            occupy[i] = unpipelined ? done : ready + 1;
        }
        fstats.peOps++;
        last_event = std::max(last_event, done);

        if (mi.isBranch) {
            if (rec.taken != mi.expectedTaken) {
                // The oracle path leaves the mapped trace: squash when
                // this branch result reaches the ROB'.
                squashed = true;
                result.cause = FabricExecResult::SquashCause::BranchMismatch;
                executed = i + 1;
                break;
            }
            // Branch results are shipped to the ROB' over the bus.
            fstats.busTransfers++;
        }
    }

    // Update structural state for pipelining (loads free their PE at
    // issue; the reservation buffer carries the outstanding access).
    for (std::size_t i = 0; i < n; i++) {
        prevInstComplete[i] =
            i < executed ? occupy[i] : std::max(last_event, start);
    }
    lastMemCompletePersist = std::max(lastMemCompletePersist,
                                      last_mem_complete);

    if (squashed) {
        result.squashed = true;
        result.completeCycle = last_event + params.globalBusLatency;
        fstats.invocations++;
        fstats.squashedInvocations++;
        fstats.activeStripeInvocations += cfg.stripesUsed;
        invocationsOnConfig++;
        prevTraceEndIdx = 0;    // no back-to-back chaining after a squash
        lastUse = result.completeCycle;
        inflightWindow.push_back(result.completeCycle);
        if (inflightWindow.size() > 2 * params.fifoDepth)
            inflightWindow.pop_front();
        if (trace::compiledIn() && tsink) {
            tsink->counter(trace::Mark::FifoLevel, now,
                           inflightWindow.size());
        }
        // Squashed stores never drained; retire their LFST registrations.
        for (const PendingStore &ps : invStores)
            storeSets.retireStore(ps.pc, ps.seq);
        return;
    }

    // Deliver live-outs to the host over the global bus.
    result.liveOutReady.resize(cfg.liveOuts.size());
    Cycle complete_all = last_event;
    for (std::size_t o = 0; o < cfg.liveOuts.size(); o++) {
        Cycle internal = complete.at(cfg.liveOuts[o].producerIdx);
        prevLiveOutInternal[o] = internal;
        result.liveOutReady[o] = internal + params.globalBusLatency;
        complete_all = std::max(complete_all, result.liveOutReady[o]);
        fstats.busTransfers++;
        fstats.fifoPushes++;
    }
    result.completeCycle = complete_all;

    // Remember this invocation's stores for cross-invocation violation
    // detection, and report them to the host for its own load-bypass
    // checks. LFST registrations deliberately persist so a load in the
    // *next* invocation still sees its predicted producer (each new
    // dispatch of the same store PC re-registers, keeping them fresh).
    for (const PendingStore &ps : invStores) {
        recentStores.push_back({ps.addr, ps.completeCycle, ps.pc, ps.seq});
        result.storeEvents.push_back({ps.addr, ps.completeCycle, ps.pc});
    }
    while (recentStores.size() > 64)
        recentStores.pop_front();

    fstats.invocations++;
    fstats.activeStripeInvocations += cfg.stripesUsed;
    invocationsOnConfig++;
    prevTraceEndIdx = trace_idx + cfg.numRecords;
    lastUse = result.completeCycle;
    inflightWindow.push_back(result.completeCycle);
    if (inflightWindow.size() > 2 * params.fifoDepth)
        inflightWindow.pop_front();
    if (trace::compiledIn() && tsink)
        tsink->counter(trace::Mark::FifoLevel, now, inflightWindow.size());
}

void
Fabric::exportStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.counter(prefix + ".invocations").inc(fstats.invocations);
    reg.counter(prefix + ".squashedInvocations")
        .inc(fstats.squashedInvocations);
    reg.counter(prefix + ".peOps").inc(fstats.peOps);
    reg.counter(prefix + ".datapathHops").inc(fstats.datapathHops);
    reg.counter(prefix + ".fifoPushes").inc(fstats.fifoPushes);
    reg.counter(prefix + ".busTransfers").inc(fstats.busTransfers);
    reg.counter(prefix + ".dcacheAccesses").inc(fstats.dcacheAccesses);
    reg.counter(prefix + ".reconfigurations").inc(fstats.reconfigurations);
    reg.counter(prefix + ".memViolations").inc(fstats.memViolations);
    reg.counter(prefix + ".activeStripeInvocations")
        .inc(fstats.activeStripeInvocations);
}

} // namespace dynaspam::fabric
