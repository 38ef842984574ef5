/**
 * @file
 * Out-of-order CPU timing model implementation.
 *
 * Stages run in reverse pipeline order each tick (commit, execute, issue,
 * rename/dispatch, fetch), which naturally models same-cycle structural
 * hazards conservatively.
 */

#include "ooo/cpu.hh"

#include <algorithm>

#include "check/check.hh"
#include "common/logging.hh"
#include "isa/opcodes.hh"
#include "trace/trace.hh"

namespace dynaspam::ooo
{

unsigned
FuPoolParams::count(isa::FuType type) const
{
    switch (type) {
      case isa::FuType::IntAlu:
        return intAlu;
      case isa::FuType::IntMulDiv:
        return intMulDiv;
      case isa::FuType::FpAlu:
        return fpAlu;
      case isa::FuType::FpMulDiv:
        return fpMulDiv;
      case isa::FuType::Ldst:
        return ldst;
      default:
        return 0;
    }
}

namespace
{

/** Front-end (fetch + decode) depth in cycles before rename. */
constexpr Cycle frontEndLatency = 2;

/** Global FU index = typeOffset(type) + unit index within the type. */
unsigned
fuTypeOffset(const FuPoolParams &pool, isa::FuType type)
{
    unsigned off = 0;
    for (unsigned t = 0; t < unsigned(isa::FuType::NUM_FU_TYPES); t++) {
        if (isa::FuType(t) == type)
            return off;
        off += pool.count(isa::FuType(t));
    }
    return off;
}

/** Remove the oldest entry (@p seq) from its line bucket. */
void
lsqIndexEraseOldest(std::unordered_map<Addr, std::vector<SeqNum>> &index,
                    Addr line, SeqNum seq)
{
    auto it = index.find(line);
    if (it == index.end())
        return;
    auto &bucket = it->second;
    if (!bucket.empty() && bucket.front() == seq)
        bucket.erase(bucket.begin());
    else
        std::erase(bucket, seq);
    if (bucket.empty())
        index.erase(it);
}

/** Remove the youngest entry (@p seq) from its line bucket. */
void
lsqIndexEraseYoungest(std::unordered_map<Addr, std::vector<SeqNum>> &index,
                      Addr line, SeqNum seq)
{
    auto it = index.find(line);
    if (it == index.end())
        return;
    auto &bucket = it->second;
    if (!bucket.empty() && bucket.back() == seq)
        bucket.pop_back();
    else
        std::erase(bucket, seq);
    if (bucket.empty())
        index.erase(it);
}

/** Trace-sink record for a ROB entry leaving the pipeline at @p now. */
trace::InstEvent
traceEventOf(const DynInst &d, Cycle now)
{
    trace::InstEvent ev;
    ev.traceIdx = d.traceIdx;
    ev.pc = d.pc;
    ev.fetch = d.fetchCycle;
    ev.dispatch = d.dispatchCycle;
    ev.issue = d.issueCycle;
    ev.complete = d.completeCycle;
    ev.retire = now;
    ev.mispredicted = d.mispredicted;
    if (d.kind == RobKind::TraceInvoke) {
        ev.op = "invoke";
        ev.fabric = true;
        ev.traceLen = d.traceLen;
    } else {
        ev.op = isa::opcodeName(d.inst->op).data();
        ev.fu = std::uint8_t(d.inst->fuType());
    }
    return ev;
}

} // namespace

OooCpu::OooCpu(const OooParams &p, const isa::DynamicTrace &t,
               mem::MemoryHierarchy &h)
    : params(p), trace(t), hierarchy(h), bpred(p.bpred),
      storeSets(p.storeSets), frontEndCap(4 * p.fetchWidth)
{
    if (p.numPhysRegs < isa::NUM_ARCH_REGS + p.renameWidth)
        fatal("too few physical registers (", p.numPhysRegs, ")");
    rat.assign(isa::NUM_ARCH_REGS, REG_INVALID);
    physReadyCycle.assign(p.numPhysRegs, 0);

    // Initial mapping: arch reg i -> phys reg i, all ready (value 0).
    for (RegIndex i = 0; i < isa::NUM_ARCH_REGS; i++)
        rat[i] = i;
    for (RegIndex i = isa::NUM_ARCH_REGS; i < p.numPhysRegs; i++)
        freeList.push_back(i);

    fuBusyUntil.resize(unsigned(isa::FuType::NUM_FU_TYPES));
    for (unsigned fu = 0; fu < fuBusyUntil.size(); fu++)
        fuBusyUntil[fu].assign(params.fuPool.count(isa::FuType(fu)), 0);

    readyByType.resize(unsigned(isa::FuType::NUM_FU_TYPES));
    pendingByType.resize(unsigned(isa::FuType::NUM_FU_TYPES));
    regConsumers.resize(p.numPhysRegs);
    for (unsigned fu = 0; fu < unsigned(isa::FuType::NUM_FU_TYPES); fu++)
        fuTypeOffsets[fu] = fuTypeOffset(params.fuPool, isa::FuType(fu));
}

OooCpu::~OooCpu() = default;

Cycle
OooCpu::physReady(RegIndex phys) const
{
    return phys == REG_INVALID ? 0 : physReadyCycle[phys];
}

DynInst &
OooCpu::robAt(SeqNum seq)
{
    if (rob.empty() || seq < rob.front().seq ||
        seq > rob.back().seq) {
        panic("robAt(", seq, ") out of range");
    }
    return rob[std::size_t(seq - rob.front().seq)];
}

const DynInst *
OooCpu::robFind(SeqNum seq) const
{
    if (rob.empty() || seq < rob.front().seq || seq > rob.back().seq)
        return nullptr;
    return &rob[std::size_t(seq - rob.front().seq)];
}

Cycle
OooCpu::run()
{
    while (!done())
        tick();
    return curCycle;
}

void
OooCpu::tick()
{
    commitStage();
    executeStage();
    issueStage();
    renameStage();
    fetchStage();
    if (observer)
        observer->onCycleEnd(curCycle);
    curCycle++;
    pstats.cycles = curCycle;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
OooCpu::fetchStage()
{
    if (fetchBlockedOnBranch || curCycle < fetchResumeCycle)
        return;

    unsigned fetched = 0;
    while (fetched < params.fetchWidth && frontEnd.size() < frontEndCap &&
           fetchIdx < trace.size()) {
        // Consult the DynaSpAM controller unless we are in the middle of
        // marking an already-directed trace.
        if (traceHooks && mappingFetchRemaining == 0) {
            FetchDirective dir = traceHooks->beforeFetch(fetchIdx, curCycle);
            if (dir.kind == FetchDirective::Kind::Offload) {
                FrontEndInst fe;
                fe.traceIdx = fetchIdx;
                fe.readyAtRename = curCycle + frontEndLatency;
                fe.rasCp = bpred.rasCheckpoint();
                fe.isInvocation = true;
                fe.numRecords = dir.numRecords;
                fe.liveIns = std::move(dir.liveIns);
                fe.liveOuts = std::move(dir.liveOuts);
                fe.hasStores = dir.hasStores;
                frontEnd.push_back(std::move(fe));
                fetchIdx += dir.numRecords;
                fetched++;
                continue;
            }
            if (dir.kind == FetchDirective::Kind::BeginMapping &&
                dir.numRecords > 0) {
                mappingFetchRemaining = dir.numRecords;
                mappingDispatchRemaining = dir.numRecords;
                if (dir.policy)
                    mappingPolicy = dir.policy;
                mappingPolicyPending = dir.policy != nullptr;
                mappingTraceIdx = fetchIdx;
            }
        }

        const isa::DynRecord &rec = trace[fetchIdx];
        const isa::StaticInst &inst = trace.program().inst(rec.pc);

        // Instruction cache: charge an access per new block touched.
        Addr block = (Addr(rec.pc) * params.instBytes) / 64;
        if (block != lastFetchBlock) {
            pstats.icacheAccesses++;
            auto access = hierarchy.fetchAccess(Addr(rec.pc) *
                                                params.instBytes);
            lastFetchBlock = block;
            if (!access.hit) {
                fetchResumeCycle = curCycle + access.latency;
                return;
            }
        }

        FrontEndInst fe;
        fe.traceIdx = fetchIdx;
        fe.readyAtRename = curCycle + frontEndLatency;
        // Snapshot the RAS before predict() can push/pop it, so a squash
        // at this instruction rolls the stack back past its own update.
        fe.rasCp = bpred.rasCheckpoint();

        if (mappingFetchRemaining > 0) {
            fe.mappingInst = true;
            fe.firstMappingInst = (fetchIdx == mappingTraceIdx);
            mappingFetchRemaining--;
            fe.lastMappingInst = (mappingFetchRemaining == 0);
        }

        bool stop_after = false;
        if (inst.isControl()) {
            BPrediction pred = bpred.predict(rec.pc, inst);
            fe.predictedTaken = pred.taken;

            bool direction_wrong =
                inst.isCondBranch() && pred.taken != rec.taken;
            bool target_needed = rec.taken;
            bool target_wrong =
                target_needed && !direction_wrong &&
                (!pred.targetKnown || pred.target != rec.nextPc);

            if (direction_wrong || target_wrong) {
                fe.mispredicted = true;
                fetchBlockedOnBranch = true;
                stop_after = true;
                if (inst.isCondBranch())
                    bpred.fixupLastHistoryBit(rec.taken);

                // A mispredicted branch inside the trace being mapped
                // aborts the mapping (Section 3.1): the remaining records
                // no longer follow the mapped path, and the issue unit
                // must not keep waiting for them.
                if (fe.mappingInst)
                    abortActiveMapping();
            }
        }

        // A fetch group ends at a taken branch: the front end cannot
        // fetch across a redirect within one cycle. (Offloaded traces
        // bypass this limit entirely — one of the front-end costs
        // DynaSpAM removes.)
        const bool taken_branch = inst.isControl() && rec.taken;

        frontEnd.push_back(std::move(fe));
        fetchIdx++;
        fetched++;
        pstats.fetchedInsts++;

        if (stop_after)
            return;
        if (taken_branch)
            break;
    }
}

// ---------------------------------------------------------------------
// Rename / dispatch
// ---------------------------------------------------------------------

void
OooCpu::renameStage()
{
    unsigned renamed = 0;
    while (renamed < params.renameWidth && !frontEnd.empty()) {
        FrontEndInst &fe = frontEnd.front();
        if (fe.readyAtRename > curCycle)
            break;

        // The first trace instruction holds in dispatch until all
        // on-the-fly instructions drain through the back-end (Section 3.1).
        if (fe.firstMappingInst && !rob.empty())
            break;

        if (rob.size() >= params.robEntries)
            break;

        if (fe.isInvocation) {
            if (freeList.size() < fe.liveOuts.size())
                break;

            DynInst d;
            d.seq = nextSeq++;
            d.traceIdx = fe.traceIdx;
            d.kind = RobKind::TraceInvoke;
            d.traceLen = fe.numRecords;
            d.record = &trace[fe.traceIdx];
            d.pc = d.record->pc;
            d.fetchCycle = fe.readyAtRename - frontEndLatency;
            d.dispatchCycle = curCycle;
            d.rasCp = fe.rasCp;

            InvocationState inv;
            inv.hasStores = fe.hasStores;
            inv.liveOutArch = fe.liveOuts;
            for (RegIndex arch : fe.liveIns)
                inv.liveInPhys.push_back(rat[arch]);
            for (RegIndex arch : fe.liveOuts) {
                RegIndex phys = freeList.back();
                freeList.pop_back();
                inv.liveOutPrevPhys.push_back(rat[arch]);
                inv.liveOutPhys.push_back(phys);
                rat[arch] = phys;
                physReadyCycle[phys] = CYCLE_INVALID;
            }
            invocations.emplace(d.seq, std::move(inv));
            rob.push_back(d);
            pstats.robWrites++;
            pstats.renamedInsts++;
            pstats.dispatchedInsts++;
            frontEnd.pop_front();
            renamed++;
            continue;
        }

        const isa::DynRecord &rec = trace[fe.traceIdx];
        const isa::StaticInst &inst = trace.program().inst(rec.pc);

        if (inst.hasDest() && freeList.empty())
            break;
        if (iq.size() >= params.iqEntries)
            break;
        if (inst.isLoad() && loadQueue.size() >= params.lqEntries)
            break;
        if (inst.isStore() && storeQueue.size() >= params.sqEntries)
            break;

        DynInst d;
        d.seq = nextSeq++;
        d.traceIdx = fe.traceIdx;
        d.pc = rec.pc;
        d.inst = &inst;
        d.record = &rec;
        d.fetchCycle = fe.readyAtRename - frontEndLatency;
        d.dispatchCycle = curCycle;
        d.mispredicted = fe.mispredicted;
        d.predictedTaken = fe.predictedTaken;
        d.rasCp = fe.rasCp;
        d.mappingInst = fe.mappingInst;
        d.lastMappingInst = fe.lastMappingInst;

        d.src1Phys = inst.src1 == REG_INVALID ? REG_INVALID : rat[inst.src1];
        d.src2Phys = inst.src2 == REG_INVALID ? REG_INVALID : rat[inst.src2];
        if (inst.hasDest()) {
            d.prevPhys = rat[inst.dest];
            d.destPhys = freeList.back();
            freeList.pop_back();
            rat[inst.dest] = d.destPhys;
            physReadyCycle[d.destPhys] = CYCLE_INVALID;
        }

        if (inst.isLoad()) {
            if (params.memorySpeculation) {
                // A dependence on a fabric-registered store is not a ROB
                // seq; ordering against invocations is enforced through
                // mem_safe and invocation store events instead.
                const SeqNum dep = storeSets.lookupDependence(rec.pc);
                d.dependsOnStore = (dep & FABRIC_SEQ_FLAG) ? 0 : dep;
            }
            loadQueue.push_back(d.seq);
            loadsByLine[lsqLine(rec.effAddr)].push_back(d.seq);
        } else if (inst.isStore()) {
            if (params.memorySpeculation)
                storeSets.dispatchStore(rec.pc, d.seq);
            storeQueue.push_back(d.seq);
            storesByLine[lsqLine(rec.effAddr)].push_back(d.seq);
        }

        if (fe.firstMappingInst && mappingPolicyPending) {
            mappingPolicyActive = true;
            mappingActive = true;
            mappingIssueRemaining = 0;
            mappingCommitRemaining = 0;
            if (traceHooks)
                traceHooks->mappingStarted(fe.traceIdx, curCycle);
        }
        if (fe.mappingInst && mappingActive) {
            mappingIssueRemaining++;
            mappingCommitRemaining++;
            if (mappingDispatchRemaining > 0)
                mappingDispatchRemaining--;
        }

        d.inIq = true;
        iq.push_back(d.seq);
        rob.push_back(d);
        scheduleAtDispatch(rob.back());
        pstats.robWrites++;
        pstats.renamedInsts++;
        pstats.dispatchedInsts++;
        frontEnd.pop_front();
        renamed++;
    }
}

// ---------------------------------------------------------------------
// Issue (wakeup + select)
// ---------------------------------------------------------------------

bool
OooCpu::olderStoresAllComplete(const DynInst &load) const
{
    for (SeqNum seq : storeQueue) {
        if (seq >= load.seq)
            break;
        const DynInst *store = robFind(seq);
        if (store &&
            (!store->issued || store->completeCycle > curCycle)) {
            return false;
        }
    }
    return true;
}

/** Reference readiness rule: the wakeup scheduler must agree with this
 *  full recomputation for every candidate it offers (cross-checked
 *  under DYNASPAM_CHECKS in issueStage). */
bool
OooCpu::isInstReady(const DynInst &d) const
{
    if (!d.inIq || d.issued)
        return false;

    Cycle r1 = physReady(d.src1Phys);
    Cycle r2 = physReady(d.src2Phys);
    if (r1 == CYCLE_INVALID || r1 > curCycle)
        return false;
    if (r2 == CYCLE_INVALID || r2 > curCycle)
        return false;

    if (d.isLoad()) {
        if (!params.memorySpeculation) {
            if (!olderStoresAllComplete(d))
                return false;
        } else if (d.dependsOnStore != 0) {
            // Store-set predicted dependence: wait for the store.
            const DynInst *store = robFind(d.dependsOnStore);
            if (store && store->seq < d.seq &&
                (!store->issued || store->completeCycle > curCycle)) {
                return false;
            }
        }
        // Loads proceed speculatively past older in-flight invocations;
        // startReadyInvocations() checks for bypassed invocation stores
        // when the invocation resolves, and squashes violators.
    }
    return true;
}

void
OooCpu::scheduleAtDispatch(DynInst &d)
{
    unsigned waits = 0;
    Cycle ready_at = 0;
    for (RegIndex src : {d.src1Phys, d.src2Phys}) {
        if (src == REG_INVALID)
            continue;
        const Cycle r = physReadyCycle[src];
        if (r == CYCLE_INVALID) {
            regConsumers[src].push_back(d.seq);
            waits++;
        } else {
            ready_at = std::max(ready_at, r);
        }
    }
    d.waitCount = std::uint8_t(waits);
    if (waits == 0) {
        pendingByType[unsigned(d.inst->fuType())].push_back(
            {ready_at, d.seq});
        pendingCount++;
    }
}

void
OooCpu::wakeConsumers(RegIndex phys)
{
    auto &consumers = regConsumers[phys];
    if (consumers.empty())
        return;
    for (SeqNum seq : consumers) {
        DynInst &d = robAt(seq);
        if (--d.waitCount != 0)
            continue;
        Cycle ready_at = 0;
        for (RegIndex src : {d.src1Phys, d.src2Phys}) {
            if (src != REG_INVALID)
                ready_at = std::max(ready_at, physReadyCycle[src]);
        }
        pendingByType[unsigned(d.inst->fuType())].push_back(
            {ready_at, seq});
        pendingCount++;
    }
    consumers.clear();
}

void
OooCpu::drainPendingWakeups()
{
    if (pendingCount == 0)
        return;
    for (unsigned t = 0; t < pendingByType.size(); t++) {
        auto &pending = pendingByType[t];
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].readyCycle <= curCycle) {
                readyByType[t].push_back(pending[i].seq);
                readyCount++;
                pending[i] = pending.back();
                pending.pop_back();
                pendingCount--;
            } else {
                i++;
            }
        }
    }
}

void
OooCpu::scrubSchedulerForSquash(SeqNum bound)
{
    for (auto &ready : readyByType) {
        for (std::size_t i = 0; i < ready.size();) {
            if (ready[i] >= bound) {
                ready[i] = ready.back();
                ready.pop_back();
                readyCount--;
            } else {
                i++;
            }
        }
    }
    for (auto &pending : pendingByType) {
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].seq >= bound) {
                pending[i] = pending.back();
                pending.pop_back();
                pendingCount--;
            } else {
                i++;
            }
        }
    }
    for (auto &consumers : regConsumers)
        std::erase_if(consumers,
                      [bound](SeqNum s) { return s >= bound; });
    sqBoundCycle = CYCLE_INVALID;
}

SeqNum
OooCpu::incompleteStoreBound()
{
    if (sqBoundCycle == curCycle)
        return sqBound;
    sqBoundCycle = curCycle;
    sqBound = ~SeqNum(0);
    for (SeqNum seq : storeQueue) {
        const DynInst *store = robFind(seq);
        if (store &&
            (!store->issued || store->completeCycle > curCycle)) {
            sqBound = seq;
            break;
        }
    }
    return sqBound;
}

/** Memory-side readiness of a register-ready load. Register readiness
 *  is event-driven; this residual condition depends on store progress
 *  and is polled at select time: O(1) per probe against the per-cycle
 *  store-completion watermark or the predicted producer store. */
bool
OooCpu::loadMemoryReady(const DynInst &load)
{
    if (!params.memorySpeculation) {
        const bool ok = incompleteStoreBound() >= load.seq;
        DYNASPAM_CHECK(ok == olderStoresAllComplete(load),
                       "store-completion watermark diverges from the "
                       "store-queue walk for load seq ", load.seq);
        return ok;
    }
    if (load.dependsOnStore != 0) {
        // Store-set predicted dependence: wait for the store.
        const DynInst *store = robFind(load.dependsOnStore);
        if (store && store->seq < load.seq &&
            (!store->issued || store->completeCycle > curCycle)) {
            return false;
        }
    }
    return true;
}

void
OooCpu::issueLoad(DynInst &load)
{
    const Addr addr = load.record->effAddr;
    load.addrReady = true;

    // Store-to-load forwarding: youngest older store with a matching
    // address whose address is known. Only stores on the same cache
    // line are probed (age-ordered index bucket); entries elsewhere on
    // the line — partial overlaps in line terms — neither forward nor
    // end the search, and the walk bails out at the first full-width
    // (exact-address) match even when such a partial overlap was seen
    // first.
    const DynInst *src_store = nullptr;
    if (auto it = storesByLine.find(lsqLine(addr));
        it != storesByLine.end()) {
        const auto &bucket = it->second;
        for (auto rit = bucket.rbegin(); rit != bucket.rend(); ++rit) {
            if (*rit >= load.seq)
                continue;
            const DynInst *store = robFind(*rit);
            if (store && store->issued && store->record->effAddr == addr) {
                src_store = store;
                break;
            }
        }
    }

    const Cycle agu_done = curCycle + 1 + params.loadIssueToExecuteExtra;

    if (src_store) {
        Cycle data_ready = std::max(agu_done, src_store->completeCycle);
        load.completeCycle = data_ready + params.forwardLatency;
        load.forwardedFromSeq = src_store->seq;
        pstats.loadForwards++;
        return;
    }

    // No match in flight: try the post-commit store buffer (all entries
    // are architecturally older than any in-flight load). Youngest
    // same-line entry with the exact address wins, as in the in-flight
    // case.
    if (auto it = retiredByLine.find(lsqLine(addr));
        it != retiredByLine.end()) {
        const auto &bucket = it->second;
        for (auto rit = bucket.rbegin(); rit != bucket.rend(); ++rit) {
            if (rit->addr == addr) {
                Cycle data_ready = std::max(agu_done, rit->dataReady);
                load.completeCycle = data_ready + params.forwardLatency;
                load.forwardedFromSeq = rit->seq;
                pstats.loadForwards++;
                return;
            }
        }
    }

    {
        pstats.dcacheAccesses++;
        auto access = hierarchy.dataAccess(addr, false);
        load.completeCycle = agu_done + access.latency;
        load.forwardedFromSeq = 0;
    }
}

void
OooCpu::issueStore(DynInst &store)
{
    store.addrReady = true;
    store.completeCycle = curCycle + 1;
    checkViolations(store);
}

void
OooCpu::checkViolations(const DynInst &store)
{
    // A younger load that already read a value not produced by this store
    // (from cache or from an older store) violated the memory order.
    // Same-line loads are probed in age order, so the first qualifying
    // entry is the oldest violator.
    const Addr addr = store.record->effAddr;
    SeqNum victim = 0;
    if (auto it = loadsByLine.find(lsqLine(addr));
        it != loadsByLine.end()) {
        for (SeqNum seq : it->second) {
            if (seq <= store.seq)
                continue;
            const DynInst *load = robFind(seq);
            if (load && load->issued && load->record->effAddr == addr &&
                load->forwardedFromSeq < store.seq) {
                victim = seq;
                break;
            }
        }
    }
    if (!victim)
        return;

    DynInst &load = robAt(victim);
    pstats.memOrderViolations++;
    storeSets.recordViolation(load.pc, store.pc);
    squashFrom(victim, load.traceIdx,
               curCycle + 1 + params.squashPenalty);
}

void
OooCpu::issueStage()
{
    // During a mapping phase, scheduling begins only once the whole
    // trace sits in the reservation station — the large-window scope
    // that lets the resource-aware scheduler see all trace instructions
    // at once (Section 4.1). The back end is drained at this point, so
    // the pause costs at most a few cycles.
    if (mappingActive && mappingDispatchRemaining > 0)
        return;

    // Move instructions whose last source value arrived onto the ready
    // lists. Producers complete no earlier than the cycle after they
    // issue (opLatency >= 1) and invocations resolve before this stage
    // runs, so draining once here sees every instruction the reference
    // readiness rule would accept this cycle.
    drainPendingWakeups();

    // Nothing can issue and the policy has no per-cycle side effects:
    // skip the stage entirely.
    if (readyCount == 0 && selectPolicy()->passive())
        return;

    if (!selectPolicy()->beginCycle(curCycle))
        return;

    unsigned issued_total = 0;

    for (unsigned t = 0; t < unsigned(isa::FuType::NUM_FU_TYPES) &&
                         issued_total < params.issueWidth;
         t++) {
        auto &ready = readyByType[t];
        if (ready.empty())
            continue;
        auto &units = fuBusyUntil[t];
        const unsigned type_offset = fuTypeOffsets[t];

        for (unsigned u = 0;
             u < units.size() && issued_total < params.issueWidth; u++) {
            if (units[u] > curCycle)
                continue;
            if (ready.empty())
                break;

            // Select: score every ready candidate of this FU type
            // (Algorithm 1, lines 7-12). Ties break oldest-first; the
            // explicit seq comparison makes the ready-list order
            // irrelevant, so selections match the former full-IQ scan
            // exactly.
            std::size_t best_slot = ready.size();
            int best_score = -1;
            SeqNum best_seq = 0;
            for (std::size_t slot = 0; slot < ready.size(); slot++) {
                DynInst &d = robAt(ready[slot]);
                if (d.isLoad() && !loadMemoryReady(d))
                    continue;
                DYNASPAM_CHECK(isInstReady(d),
                               "ready list offers seq ", d.seq,
                               " which the reference readiness rule "
                               "rejects");
                int score = selectPolicy()->score(type_offset + u, d);
                if (score < 0)
                    continue;
                if (best_slot == ready.size() || score > best_score ||
                    (score == best_score && d.seq < best_seq)) {
                    best_slot = slot;
                    best_score = score;
                    best_seq = d.seq;
                }
            }
            if (best_slot == ready.size())
                continue;

            DynInst &d = robAt(ready[best_slot]);
            d.issued = true;
            d.inIq = false;
            d.issueCycle = curCycle;
            ready[best_slot] = ready.back();
            ready.pop_back();
            readyCount--;
            auto iq_it = std::find(iq.begin(), iq.end(), d.seq);
            *iq_it = iq.back();
            iq.pop_back();

            const isa::OpClass cls = d.inst->opClass();
            const unsigned lat = isa::opLatency(cls);

            if (d.isLoad()) {
                issueLoad(d);
            } else if (d.isStore()) {
                issueStore(d);
                // A violation squash may have emptied everything younger,
                // including entries this loop still references: stop.
                if (rob.empty() || rob.back().seq < d.seq)
                    return;
            } else {
                d.completeCycle = curCycle + lat;
            }

            // Unpipelined dividers occupy their unit for the full
            // latency; everything else accepts a new op next cycle.
            const bool unpipelined = cls == isa::OpClass::IntDiv ||
                                     cls == isa::OpClass::FloatDiv;
            units[u] = unpipelined ? d.completeCycle : curCycle + 1;

            // Algorithm 1 line 13: UpdateTables — notify the policy so
            // the mapping generator records the placement.
            selectPolicy()->selected(type_offset + u, d);

            if (d.inst->hasDest()) {
                physReadyCycle[d.destPhys] = d.completeCycle;
                wakeConsumers(d.destPhys);
            }
            d.completed = true;   // completion time is now determined

            // Statistics: register reads, bypass detection, wakeups.
            pstats.issuedInsts++;
            pstats.fuOps[t]++;
            pstats.iqWakeups += iq.size();
            for (RegIndex src : {d.src1Phys, d.src2Phys}) {
                if (src == REG_INVALID)
                    continue;
                pstats.regReads++;
                if (physReadyCycle[src] == curCycle)
                    pstats.bypasses++;
            }
            if (d.inst->hasDest())
                pstats.regWrites++;

            if (d.mappingInst && mappingActive) {
                if (mappingIssueRemaining > 0)
                    mappingIssueRemaining--;
                if (mappingIssueRemaining == 0) {
                    // Whole trace issued: restore the host priority rule.
                    mappingPolicyActive = false;
                }
            }

            // Branch resolution: schedule the front-end redirect.
            if (d.mispredicted) {
                pstats.branchMispredicts++;
                fetchBlockedOnBranch = false;
                fetchResumeCycle = std::max(
                    fetchResumeCycle,
                    d.completeCycle + params.branchMispredictPenalty);
            }

            issued_total++;
        }
    }
}

// ---------------------------------------------------------------------
// Execute (invocation launch)
// ---------------------------------------------------------------------

void
OooCpu::startReadyInvocations()
{
    for (auto &[seq, inv] : invocations) {
        if (inv.resolved)
            continue;

        // All live-in arrival times must be known.
        bool ready = true;
        Cycle live_in_max = curCycle;
        std::vector<Cycle> &arrivals = arrivalScratch;
        arrivals.clear();
        arrivals.reserve(inv.liveInPhys.size());
        for (RegIndex phys : inv.liveInPhys) {
            Cycle r = physReadyCycle[phys];
            if (r == CYCLE_INVALID) {
                ready = false;
                break;
            }
            arrivals.push_back(std::max(r, curCycle));
            live_in_max = std::max(live_in_max, r);
        }
        if (!ready)
            continue;

        // All older host stores must have issued so the memory-safe
        // cycle is known. Ordering against older *invocations* is the
        // fabric's job: its store-set predictor and recent-store buffer
        // detect cross-invocation aliasing, and without memory
        // speculation it serializes memory operations itself.
        Cycle mem_safe = curCycle;
        for (SeqNum sq : storeQueue) {
            if (sq >= seq)
                break;
            const DynInst *store = robFind(sq);
            if (store) {
                if (!store->issued) {
                    ready = false;
                    break;
                }
                mem_safe = std::max(mem_safe, store->completeCycle);
            }
        }
        if (!ready)
            continue;

        DynInst &d = robAt(seq);
        inv.result = traceHooks->offloadStart(d.traceIdx, d.traceLen,
                                              curCycle, arrivals, mem_safe);
        inv.resolved = true;
        d.completed = true;
        d.completeCycle = inv.result.completeCycle;

        if (inv.result.squashed) {
            // Early resolution: the fabric reported a branch off the
            // mapped path or a memory-order violation. Redirect fetch
            // now instead of waiting for the entry to reach the ROB
            // head — exactly as an ordinary branch mispredict resolves —
            // so the machine stops piling up doomed younger work.
            pstats.invocationsSquashed++;
            const SeqNum resume = d.traceIdx;
            const Cycle restart =
                std::max(curCycle, inv.result.completeCycle) +
                params.squashPenalty;
            if (traceHooks)
                traceHooks->invocationSquashed(d.traceIdx, curCycle, true);
            squashFrom(seq, resume, restart);
            return;     // invocation map changed under us
        }

        {
            if (inv.result.liveOutReady.size() != inv.liveOutPhys.size())
                panic("offload engine live-out count mismatch");
            for (std::size_t i = 0; i < inv.liveOutPhys.size(); i++) {
                physReadyCycle[inv.liveOutPhys[i]] =
                    inv.result.liveOutReady[i];
                wakeConsumers(inv.liveOutPhys[i]);
            }

            // Younger host loads issued speculatively past this
            // invocation: any that read a location the invocation
            // stores to must replay (same discipline as store-set
            // violation handling between host instructions). Probe
            // only same-line loads per store event; buckets are
            // age-ordered, so the first qualifying entry per event is
            // that event's oldest victim, and the strict < keeps the
            // earliest event's store PC when several events hit the
            // same load.
            SeqNum victim = 0;
            InstAddr victim_store_pc = 0;
            for (const auto &[addr, store_pc] : inv.result.storeEvents) {
                auto it = loadsByLine.find(lsqLine(addr));
                if (it == loadsByLine.end())
                    continue;
                for (SeqNum lq_seq : it->second) {
                    if (lq_seq <= seq)
                        continue;
                    if (victim && lq_seq >= victim)
                        break;      // age order: no older hit follows
                    const DynInst *load = robFind(lq_seq);
                    if (!load || !load->issued ||
                        load->forwardedFromSeq > seq) {
                        continue;
                    }
                    if (load->record->effAddr == addr) {
                        victim = lq_seq;
                        victim_store_pc = store_pc;
                        break;
                    }
                }
            }
            if (victim) {
                DynInst &load = robAt(victim);
                pstats.memOrderViolations++;
                if (params.memorySpeculation)
                    storeSets.recordViolation(load.pc, victim_store_pc);
                squashFrom(victim, load.traceIdx,
                           curCycle + 1 + params.squashPenalty);
                return;     // invocation map iterator invalidated
            }
        }
    }
}

void
OooCpu::executeStage()
{
    if (traceHooks && !invocations.empty())
        startReadyInvocations();
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
OooCpu::commitStage()
{
    unsigned committed = 0;
    while (committed < params.commitWidth && !rob.empty()) {
        DynInst &head = rob.front();

        if (head.kind == RobKind::TraceInvoke) {
            InvocationState *found = invocations.find(head.seq);
            if (!found)
                panic("invocation state missing for seq ", head.seq);
            InvocationState &inv = *found;
            if (!inv.resolved || inv.result.completeCycle > curCycle)
                break;

            if (inv.result.squashed) {
                pstats.invocationsSquashed++;
                if (traceHooks)
                    traceHooks->invocationSquashed(head.traceIdx, curCycle,
                                                   true);
                // Squash this entry and everything younger; the host
                // pipeline re-executes the trace records.
                squashFrom(head.seq, head.traceIdx,
                           curCycle + params.squashPenalty);
                return;
            }

            DYNASPAM_CHECK(head.traceIdx == commitIdx,
                           "invocation commits record ", head.traceIdx,
                           " but next to commit is ", commitIdx);
            pstats.invocationsCommitted++;
            pstats.committedInsts += head.traceLen;
            pstats.robReads++;
            commitIdx = head.traceIdx + head.traceLen;
            for (RegIndex prev : inv.liveOutPrevPhys)
                freeList.push_back(prev);
            if (traceHooks)
                traceHooks->invocationCommitted(head.traceIdx, curCycle);
            if (observer) {
                observer->onCommit(head.traceIdx, head.traceLen, true,
                                   curCycle);
            }
            if (trace::compiledIn() && tsink)
                tsink->instRetired(traceEventOf(head, curCycle));
            invocations.erase(head.seq);
            rob.pop_front();
            committed++;
            continue;
        }

        if (!head.completed || head.completeCycle > curCycle)
            break;

        // Stores write the data cache at commit and stay visible for
        // forwarding in the post-commit store buffer while draining.
        if (head.isStore()) {
            pstats.dcacheAccesses++;
            hierarchy.dataAccess(head.record->effAddr, true);
            if (params.memorySpeculation)
                storeSets.retireStore(head.pc, head.seq);
            storeBuffer.push_back(
                {head.record->effAddr, head.completeCycle, head.seq});
            retiredByLine[lsqLine(head.record->effAddr)].push_back(
                storeBuffer.back());
            if (storeBuffer.size() > storeBufferEntries) {
                const RetiredStore &oldest = storeBuffer.front();
                auto it = retiredByLine.find(lsqLine(oldest.addr));
                if (it != retiredByLine.end()) {
                    auto &bucket = it->second;
                    if (!bucket.empty() &&
                        bucket.front().seq == oldest.seq) {
                        bucket.erase(bucket.begin());
                    }
                    if (bucket.empty())
                        retiredByLine.erase(it);
                }
                storeBuffer.pop_front();
            }
        }

        if (head.isControl()) {
            bpred.update(head.pc, *head.inst, head.record->taken,
                         head.record->nextPc, head.mispredicted);
            if (traceHooks) {
                traceHooks->onCommitControl(head.pc, head.record->taken,
                                            head.traceIdx, curCycle);
            }
        }

        if (head.inst->hasDest() && head.prevPhys != REG_INVALID)
            freeList.push_back(head.prevPhys);

        if (head.mappingInst && mappingActive) {
            if (mappingCommitRemaining > 0)
                mappingCommitRemaining--;
            if (mappingCommitRemaining == 0) {
                mappingActive = false;
                mappingPolicyPending = false;
                mappingPolicyActive = false;
                if (traceHooks)
                    traceHooks->mappingFinished(mappingTraceIdx, curCycle);
            }
        }

        if (head.isLoad()) {
            if (!loadQueue.empty() && loadQueue.front() == head.seq) {
                loadQueue.pop_front();
                lsqIndexEraseOldest(loadsByLine,
                                    lsqLine(head.record->effAddr),
                                    head.seq);
            }
        } else if (head.isStore()) {
            if (!storeQueue.empty() && storeQueue.front() == head.seq) {
                storeQueue.pop_front();
                lsqIndexEraseOldest(storesByLine,
                                    lsqLine(head.record->effAddr),
                                    head.seq);
            }
        }

        DYNASPAM_CHECK(head.traceIdx == commitIdx, "host commit of record ",
                       head.traceIdx, " but next to commit is ", commitIdx);
        pstats.robReads++;
        pstats.committedInsts++;
        pstats.committedOnHost++;
        if (head.mappingInst)
            pstats.mappingInstsExecuted++;
        commitIdx = head.traceIdx + 1;
        if (observer)
            observer->onCommit(head.traceIdx, 1, false, curCycle);
        if (trace::compiledIn() && tsink)
            tsink->instRetired(traceEventOf(head, curCycle));
        rob.pop_front();
        committed++;
    }
}

// ---------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------

void
OooCpu::abortActiveMapping()
{
    if (traceHooks && (mappingActive || mappingFetchRemaining > 0))
        traceHooks->mappingAborted(mappingTraceIdx, curCycle);
    mappingActive = false;
    mappingPolicyPending = false;
    mappingPolicyActive = false;
    mappingFetchRemaining = 0;
    mappingDispatchRemaining = 0;
    mappingIssueRemaining = 0;
    mappingCommitRemaining = 0;
}

void
OooCpu::squashFrom(SeqNum seq, SeqNum resume_trace_idx, Cycle restart)
{
    bool mapping_killed = false;
    bool squashed_any = false;
    RasCheckpoint ras_cp;

    while (!rob.empty() && rob.back().seq >= seq) {
        DynInst &d = rob.back();
        pstats.squashedInsts++;
        // The loop pops youngest-first, so the last value left here is
        // the oldest squashed entry's pre-fetch RAS snapshot.
        ras_cp = d.rasCp;
        squashed_any = true;
        if (trace::compiledIn() && tsink)
            tsink->instFlushed(traceEventOf(d, curCycle));

        if (d.kind == RobKind::TraceInvoke) {
            InvocationState *inv = invocations.find(d.seq);
            if (inv) {
                // Restore live-out mappings youngest-first.
                for (std::size_t i = inv->liveOutPhys.size(); i-- > 0;) {
                    rat[inv->liveOutArch[i]] = inv->liveOutPrevPhys[i];
                    freeList.push_back(inv->liveOutPhys[i]);
                }
                if (traceHooks && !(inv->resolved && inv->result.squashed))
                    traceHooks->invocationSquashed(d.traceIdx, curCycle,
                                                   false);
                invocations.erase(d.seq);
            }
        } else {
            if (d.inst->hasDest()) {
                rat[d.inst->dest] = d.prevPhys;
                freeList.push_back(d.destPhys);
            }
            if (d.isStore() && params.memorySpeculation)
                storeSets.retireStore(d.pc, d.seq);
            // The popped instruction is the youngest in flight, so it
            // sits at the young end of its line bucket.
            if (d.isLoad()) {
                lsqIndexEraseYoungest(loadsByLine,
                                      lsqLine(d.record->effAddr), d.seq);
            } else if (d.isStore()) {
                lsqIndexEraseYoungest(storesByLine,
                                      lsqLine(d.record->effAddr), d.seq);
            }
            if (d.mappingInst)
                mapping_killed = true;
        }
        rob.pop_back();
    }

    const SeqNum bound = seq;
    std::erase_if(iq, [bound](SeqNum s) { return s >= bound; });
    while (!loadQueue.empty() && loadQueue.back() >= bound)
        loadQueue.pop_back();
    while (!storeQueue.empty() && storeQueue.back() >= bound)
        storeQueue.pop_back();
    scrubSchedulerForSquash(bound);

    frontEnd.clear();
    if (mappingFetchRemaining > 0)
        mapping_killed = true;

    // Undo the speculative RAS pushes/pops of the squashed path (both
    // the popped ROB entries and anything still in the front end, which
    // is younger). The refetched path re-executes its CALLs and RETs, so
    // without this rollback every squash leaks phantom entries onto the
    // stack and later RET predictions go wrong.
    if (squashed_any)
        bpred.restoreRas(ras_cp);

    if (mapping_killed || mappingActive)
        abortActiveMapping();

    // Keep ROB sequence numbers contiguous: robAt() indexes the deque by
    // (seq - head seq), so renames after a squash must continue exactly
    // where the surviving tail ends. Squashed sequence numbers were
    // scrubbed from every side structure above, so reuse is safe.
    if (!rob.empty())
        nextSeq = rob.back().seq + 1;

    fetchIdx = resume_trace_idx;
    fetchBlockedOnBranch = false;
    fetchResumeCycle = restart;
    lastFetchBlock = ~Addr(0);
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

void
OooCpu::dumpState(std::ostream &os) const
{
    os << "cycle=" << curCycle << " fetchIdx=" << fetchIdx
       << " commitIdx=" << commitIdx << " rob=" << rob.size()
       << " iq=" << iq.size() << " lq=" << loadQueue.size()
       << " sq=" << storeQueue.size() << " frontEnd=" << frontEnd.size()
       << " freeRegs=" << freeList.size() << " ready=" << readyCount
       << " pending=" << pendingCount << "\n";
    os << "fetchResume=" << fetchResumeCycle << " blockedOnBranch="
       << fetchBlockedOnBranch << " mappingActive=" << mappingActive
       << " mapFetchRem=" << mappingFetchRemaining << " mapDispRem="
       << mappingDispatchRemaining << " mapIssueRem="
       << mappingIssueRemaining << " mapCommitRem="
       << mappingCommitRemaining << " invocations=" << invocations.size()
       << "\n";
    if (!rob.empty()) {
        const DynInst &head = rob.front();
        os << "robHead seq=" << head.seq << " traceIdx=" << head.traceIdx
           << " kind=" << int(head.kind) << " issued=" << head.issued
           << " completed=" << head.completed << " completeCycle="
           << head.completeCycle << " inIq=" << head.inIq << "\n";
    }
}

void
OooCpu::exportStats(StatRegistry &reg) const
{
    reg.counter("ooo.cycles").inc(pstats.cycles);
    reg.counter("ooo.fetchedInsts").inc(pstats.fetchedInsts);
    reg.counter("ooo.renamedInsts").inc(pstats.renamedInsts);
    reg.counter("ooo.dispatchedInsts").inc(pstats.dispatchedInsts);
    reg.counter("ooo.issuedInsts").inc(pstats.issuedInsts);
    reg.counter("ooo.committedInsts").inc(pstats.committedInsts);
    reg.counter("ooo.committedOnHost").inc(pstats.committedOnHost);
    reg.counter("ooo.squashedInsts").inc(pstats.squashedInsts);
    reg.counter("ooo.branchMispredicts").inc(pstats.branchMispredicts);
    reg.counter("ooo.memOrderViolations").inc(pstats.memOrderViolations);
    reg.counter("ooo.regReads").inc(pstats.regReads);
    reg.counter("ooo.regWrites").inc(pstats.regWrites);
    reg.counter("ooo.bypasses").inc(pstats.bypasses);
    reg.counter("ooo.iqWakeups").inc(pstats.iqWakeups);
    reg.counter("ooo.loadForwards").inc(pstats.loadForwards);
    reg.counter("ooo.icacheAccesses").inc(pstats.icacheAccesses);
    reg.counter("ooo.dcacheAccesses").inc(pstats.dcacheAccesses);
    reg.counter("ooo.robWrites").inc(pstats.robWrites);
    reg.counter("ooo.robReads").inc(pstats.robReads);
    reg.counter("ooo.invocationsCommitted").inc(pstats.invocationsCommitted);
    reg.counter("ooo.invocationsSquashed").inc(pstats.invocationsSquashed);
    reg.counter("ooo.mappingInstsExecuted").inc(pstats.mappingInstsExecuted);
    reg.counter("ooo.bpredLookups").inc(bpred.lookups());
    reg.counter("ooo.bpredMispredicts").inc(bpred.mispredicts());
    reg.counter("ooo.storeSetViolations").inc(storeSets.violations());
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

void
OooCpu::save(SavedState &out) const
{
    bpred.save(out.bpred);
    storeSets.save(out.storeSets);
    static_cast<OooCpuState &>(out) = *this;
}

void
OooCpu::restore(const SavedState &in, SelectPolicy *mapping_policy)
{
    if ((in.mappingPolicyActive || in.mappingPolicyPending) &&
        !mapping_policy)
        panic("restore: saved state has an armed policy but none given");

    bpred.restore(in.bpred);
    storeSets.restore(in.storeSets);
    OooCpuState::operator=(in);
    mappingPolicy = mapping_policy;
    // Scratch is rebuilt from scratch by its user; leave no stale state.
    arrivalScratch.clear();
}

bool
OooCpu::fits(const SavedState &in) const
{
    if (in.physReadyCycle.size() != physReadyCycle.size() ||
        in.readyByType.size() != readyByType.size() ||
        in.pendingByType.size() != pendingByType.size() ||
        in.fuBusyUntil.size() != fuBusyUntil.size())
        return false;
    for (std::size_t t = 0; t < fuBusyUntil.size(); t++) {
        if (in.fuBusyUntil[t].size() != fuBusyUntil[t].size())
            return false;
    }
    return bpred.fits(in.bpred) && storeSets.fits(in.storeSets);
}

bool
OooCpu::SavedState::wellFormed() const
{
    const std::size_t depth = bpred.ras.size();
    auto fits_ras = [depth](const auto &inst) {
        return inst.rasCp.top <= depth;
    };
    return OooCpuState::wellFormed() &&
           std::all_of(frontEnd.begin(), frontEnd.end(), fits_ras) &&
           std::all_of(rob.begin(), rob.end(), fits_ras);
}

bool
OooCpuState::wellFormed() const
{
    const std::size_t phys_regs = physReadyCycle.size();
    auto phys_ok = [phys_regs](RegIndex r) {
        return r == REG_INVALID || r < phys_regs;
    };
    auto arch_ok = [](RegIndex r) {
        return r == REG_INVALID || r < isa::NUM_ARCH_REGS;
    };
    auto all = [](const std::vector<RegIndex> &regs, auto ok) {
        return std::all_of(regs.begin(), regs.end(), ok);
    };

    if (rat.size() != isa::NUM_ARCH_REGS ||
        regConsumers.size() != phys_regs || !all(rat, phys_ok) ||
        !all(freeList, phys_ok))
        return false;
    // robAt()/robFind() index the ROB by seq - front().seq, so its
    // seqs must be contiguous; the issue and LSQ queues name live
    // entries only.
    for (std::size_t i = 0; i < rob.size(); i++) {
        const DynInst &d = rob[i];
        if (d.seq != rob.front().seq + i || !phys_ok(d.destPhys) ||
            !phys_ok(d.prevPhys) || !phys_ok(d.src1Phys) ||
            !phys_ok(d.src2Phys))
            return false;
    }
    auto in_rob = [this](SeqNum seq) {
        return !rob.empty() && seq >= rob.front().seq &&
            seq <= rob.back().seq;
    };
    if (!std::all_of(iq.begin(), iq.end(), in_rob) ||
        !std::all_of(loadQueue.begin(), loadQueue.end(), in_rob) ||
        !std::all_of(storeQueue.begin(), storeQueue.end(), in_rob))
        return false;
    for (const auto &[seq, inv] : invocations) {
        if (!all(inv.liveInPhys, phys_ok) || !all(inv.liveOutArch, arch_ok) ||
            !all(inv.liveOutPhys, phys_ok) ||
            !all(inv.liveOutPrevPhys, phys_ok))
            return false;
    }
    for (const FrontEndInst &fe : frontEnd) {
        if (!all(fe.liveIns, arch_ok) || !all(fe.liveOuts, arch_ok))
            return false;
    }
    return true;
}

} // namespace dynaspam::ooo
