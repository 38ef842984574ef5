/**
 * @file
 * Mapping session implementation: PriorityGen (Algorithm 2),
 * UpdateTables (Algorithm 3), frontier advance and config construction.
 */

#include "core/session.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "isa/opcodes.hh"

namespace dynaspam::core
{

MappingSession::MappingSession(const fabric::FabricParams &p, SeqNum idx,
                               std::uint32_t num_records, std::uint64_t key)
{
    params = p;
    startIdx = idx;
    traceLen = num_records;
    traceKey = key;
    peAllocated.assign(p.pesPerStripe(), false);
    reuseSet.resize(p.numStripes + 1);
    boundaryUsage.assign(p.numStripes + 1, 0);
}

MappingSession::OperandClass
MappingSession::classifyOperand(RegIndex phys) const
{
    OperandClass oc;
    if (phys == REG_INVALID)
        return oc;

    auto it = prodTable.find(phys);
    if (it == prodTable.end()) {
        // No producer in the trace: a live-in (Algorithm 2 lines 6-8).
        // A new live-in needs a free FIFO slot.
        if (!liveInSlot.count(phys) &&
            liveInSlot.size() >= params.liveInFifos) {
            oc.kind = OperandClass::Infeasible;
        } else {
            oc.kind = OperandClass::LiveIn;
        }
        return oc;
    }

    oc.producerIdx = it->second.instIdx;
    const unsigned prod_stripe = it->second.stripe;

    // Pass registers of the previous stripe (Algorithm 2 line 9).
    if (frontierStripe >= 1 &&
        reuseSet[frontierStripe].count(phys)) {
        oc.kind = OperandClass::Reuse;
        return oc;
    }

    // Producer placed in the frontier stripe itself: intra-stripe
    // communication is not possible in the acyclic fabric.
    if (prod_stripe >= frontierStripe) {
        oc.kind = OperandClass::Infeasible;
        return oc;
    }

    // Available datapaths to route the value (Algorithm 2 line 11)?
    // The value sits at boundary prod_stripe+1; it must be latched
    // through boundaries prod_stripe+2 .. frontier.
    const unsigned hops = frontierStripe - prod_stripe - 1;
    for (unsigned b = prod_stripe + 2; b <= frontierStripe; b++) {
        if (boundaryUsage[b] >= params.boundaryCapacity()) {
            oc.kind = OperandClass::Infeasible;
            return oc;
        }
    }
    oc.kind = OperandClass::Route;
    oc.hops = std::uint16_t(hops);
    return oc;
}

int
MappingSession::priorityScore(unsigned pe_index,
                              const ooo::DynInst &inst) const
{
    if (scheduleFailed)
        return 0;
    if (pe_index >= peAllocated.size() || peAllocated[pe_index])
        return -1;

    OperandClass c1 = classifyOperand(inst.src1Phys);
    OperandClass c2 = classifyOperand(inst.src2Phys);
    if (c1.kind == OperandClass::Infeasible ||
        c2.kind == OperandClass::Infeasible) {
        return -1;
    }

    unsigned ops = 0, need_inputs = 0, can_reuse = 0, can_route = 0;
    for (const OperandClass *oc : {&c1, &c2}) {
        switch (oc->kind) {
          case OperandClass::Unused:
            break;
          case OperandClass::LiveIn:
            ops++;
            need_inputs++;
            break;
          case OperandClass::Reuse:
            ops++;
            can_reuse++;
            break;
          case OperandClass::Route:
            ops++;
            can_route++;
            break;
          case OperandClass::Infeasible:
            return -1;
        }
    }

    // Table 2 / Algorithm 2 lines 13-26.
    if (need_inputs == 2)
        return inputPorts(frontierStripe) >= 2 ? 3 : -1;

    // A single live-in is acquired from the global bus through the PE's
    // input port on each use (footnote 2), i.e. it routes.
    can_route += need_inputs;

    if (ops == 2 && can_reuse == 2)
        return 2;
    if (can_reuse > 0 && can_reuse + can_route == ops)
        return 1;
    if (can_route == ops)
        return 0;
    return -1;
}

void
MappingSession::recordSelection(unsigned pe_index, const ooo::DynInst &inst,
                                SeqNum mapping_trace_idx)
{
    if (scheduleFailed)
        return;
    if (pe_index >= peAllocated.size() || peAllocated[pe_index])
        panic("recordSelection on an unavailable PE");

    const std::uint16_t issue_idx = std::uint16_t(order.size());

    auto routeFor = [&](RegIndex phys, RegIndex arch) {
        fabric::OperandRoute route;
        if (phys == REG_INVALID)
            return route;
        OperandClass oc = classifyOperand(phys);
        switch (oc.kind) {
          case OperandClass::LiveIn: {
            auto it = liveInSlot.find(phys);
            std::uint16_t slot;
            if (it == liveInSlot.end()) {
                slot = std::uint16_t(liveInArch.size());
                liveInSlot.emplace(phys, slot);
                liveInArch.push_back(arch);
            } else {
                slot = it->second;
            }
            route.kind = fabric::OperandRoute::Kind::LiveIn;
            route.liveInIdx = slot;
            break;
          }
          case OperandClass::Reuse:
            route.kind = fabric::OperandRoute::Kind::PassReg;
            route.producerIdx = oc.producerIdx;
            statReuse++;
            break;
          case OperandClass::Route: {
            route.kind = fabric::OperandRoute::Kind::Routed;
            route.producerIdx = oc.producerIdx;
            route.hops = oc.hops;
            statHops += oc.hops;
            // Algorithm 3 lines 5-9: allocate the new datapath and make
            // the value reusable along it.
            const unsigned prod_stripe =
                prodTable.at(phys).stripe;
            for (unsigned b = prod_stripe + 2; b <= frontierStripe; b++) {
                boundaryUsage[b]++;
                reuseSet[b].insert(phys);
            }
            break;
          }
          case OperandClass::Unused:
          case OperandClass::Infeasible:
            panic("routing an operand that scored infeasible");
        }
        return route;
    };

    Placement placement;
    placement.traceOffset =
        std::uint32_t(inst.traceIdx - mapping_trace_idx);
    placement.pe = {std::uint8_t(frontierStripe), std::uint8_t(pe_index)};
    placement.src1 = routeFor(inst.src1Phys, inst.inst->src1);
    placement.src2 = routeFor(inst.src2Phys, inst.inst->src2);

    // Algorithm 3 line 2: ProdTable(Inst.dest) <- FabricPE.
    if (inst.inst->hasDest()) {
        prodTable[inst.destPhys] = {issue_idx,
                                    std::uint8_t(frontierStripe)};
        producedThisStripe.push_back(inst.destPhys);

        // Last-Used-Location bookkeeping: redefinition of an
        // architectural register kills the previous value, so it stops
        // propagating on frontier advances.
        auto it = archLatestPhys.find(inst.inst->dest);
        if (it != archLatestPhys.end())
            deadPhys.insert(it->second);
        archLatestPhys[inst.inst->dest] = inst.destPhys;
    }

    peAllocated[pe_index] = true;
    order.push_back(placement);
    destArchOf.push_back(inst.inst->dest);
    opOf.push_back(inst.inst->op);
    pcOf.push_back(inst.pc);
}

void
MappingSession::advanceFrontier()
{
    if (scheduleFailed)
        return;
    frontierStripe++;
    if (frontierStripe >= params.numStripes) {
        // Algorithm 1 line 3: SCHEDULE_FAIL.
        scheduleFailed = true;
        return;
    }

    std::fill(peAllocated.begin(), peAllocated.end(), false);
    const unsigned b = frontierStripe;    // boundary feeding the new stripe

    // Values produced in the previous stripe latch into this boundary's
    // pass registers (their output latches).
    for (RegIndex phys : producedThisStripe) {
        if (reuseSet[b].insert(phys).second)
            boundaryUsage[b]++;
    }
    producedThisStripe.clear();

    // Potential live-outs propagate to increase reuse probability, while
    // pass-register capacity remains; killed values are dropped.
    for (RegIndex phys : reuseSet[b - 1]) {
        if (deadPhys.count(phys))
            continue;
        if (boundaryUsage[b] >= params.boundaryCapacity())
            break;
        if (reuseSet[b].insert(phys).second)
            boundaryUsage[b]++;
    }
}

std::optional<fabric::FabricConfig>
MappingSession::buildConfig(const isa::DynamicTrace &trace) const
{
    if (scheduleFailed || order.size() != traceLen)
        return std::nullopt;

    // Remap issue order to trace program order.
    std::vector<std::uint16_t> perm(order.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(),
              [this](std::uint16_t a, std::uint16_t b) {
                  return order[a].traceOffset < order[b].traceOffset;
              });
    std::vector<std::uint16_t> prog_pos(order.size());
    for (std::uint16_t pos = 0; pos < perm.size(); pos++) {
        if (pos > 0 &&
            order[perm[pos]].traceOffset == order[perm[pos - 1]].traceOffset)
            return std::nullopt;    // duplicate offsets: corrupt session
        prog_pos[perm[pos]] = pos;
    }

    fabric::FabricConfig config;
    config.key = traceKey;
    config.mappedFromIdx = startIdx;
    config.numRecords = traceLen;
    config.liveIns = liveInArch;

    auto remapRoute = [&](fabric::OperandRoute route) {
        if (route.kind == fabric::OperandRoute::Kind::PassReg ||
            route.kind == fabric::OperandRoute::Kind::Routed) {
            route.producerIdx = prog_pos[route.producerIdx];
        }
        return route;
    };

    unsigned max_stripe = 0;
    for (std::uint16_t pos = 0; pos < perm.size(); pos++) {
        const std::uint16_t issue_idx = perm[pos];
        const Placement &pl = order[issue_idx];

        fabric::MappedInst mi;
        mi.pc = pcOf[issue_idx];
        mi.op = opOf[issue_idx];
        mi.pe = pl.pe;
        mi.src1 = remapRoute(pl.src1);
        mi.src2 = remapRoute(pl.src2);
        mi.destArch = destArchOf[issue_idx];
        mi.isLoad = isa::isLoad(mi.op);
        mi.isStore = isa::isStore(mi.op);
        mi.isBranch = isa::isControl(mi.op);
        if (mi.isBranch)
            mi.expectedTaken = trace[startIdx + pl.traceOffset].taken;

        config.hasStores |= mi.isStore;
        max_stripe = std::max(max_stripe, unsigned(mi.pe.stripe));
        config.insts.push_back(mi);
    }
    config.stripesUsed = std::uint8_t(max_stripe + 1);

    // Live-outs: the last writer of each architectural register.
    std::unordered_map<RegIndex, std::uint16_t> last_writer;
    for (std::uint16_t pos = 0; pos < config.insts.size(); pos++) {
        RegIndex arch = config.insts[pos].destArch;
        if (arch != REG_INVALID)
            last_writer[arch] = pos;
    }
    for (const auto &[arch, pos] : last_writer)
        config.liveOuts.push_back({arch, pos});
    std::sort(config.liveOuts.begin(), config.liveOuts.end(),
              [](const fabric::LiveOut &a, const fabric::LiveOut &b) {
                  return a.arch < b.arch;
              });

    if (config.liveOuts.size() > params.liveOutFifos)
        return std::nullopt;
    if (config.liveIns.size() > params.liveInFifos)
        return std::nullopt;

    return config;
}

} // namespace dynaspam::core
