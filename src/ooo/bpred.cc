/**
 * @file
 * Tournament branch predictor implementation.
 */

#include "ooo/bpred.hh"

#include "common/logging.hh"
#include "isa/opcodes.hh"

namespace dynaspam::ooo
{

BranchPredictor::BranchPredictor(const BPredParams &p)
    : params(p)
{
    if (!p.localEntries || !p.globalEntries || !p.chooserEntries ||
        !p.btbEntries || !p.rasEntries) {
        fatal("branch predictor tables must be non-empty");
    }
    localTable.assign(p.localEntries, 1);
    globalTable.assign(p.globalEntries, 1);
    chooserTable.assign(p.chooserEntries, 2);
    btb.resize(p.btbEntries);
    ras.assign(p.rasEntries, 0);
}

std::uint8_t
BranchPredictor::bump(std::uint8_t c, bool up)
{
    if (up)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

std::size_t
BranchPredictor::localIndex(InstAddr pc) const
{
    return pc % params.localEntries;
}

std::size_t
BranchPredictor::globalIndex(InstAddr pc, std::uint64_t history) const
{
    const std::uint64_t mask = bits::mask(params.historyBits);
    return (pc ^ (history & mask)) % params.globalEntries;
}

std::size_t
BranchPredictor::chooserIndex(InstAddr pc) const
{
    return pc % params.chooserEntries;
}

std::size_t
BranchPredictor::btbIndex(InstAddr pc) const
{
    return pc % params.btbEntries;
}

bool
BranchPredictor::predictDirection(InstAddr pc, std::uint64_t history) const
{
    const bool local_taken = counterTaken(localTable[localIndex(pc)]);
    const bool global_taken =
        counterTaken(globalTable[globalIndex(pc, history)]);
    const bool use_global = chooserTable[chooserIndex(pc)] >= 2;
    return use_global ? global_taken : local_taken;
}

BPrediction
BranchPredictor::peek(InstAddr pc, const isa::StaticInst &inst) const
{
    BPrediction pred;
    using isa::Opcode;

    if (inst.op == Opcode::RET) {
        pred.taken = true;
        if (rasTop > 0) {
            pred.targetKnown = true;
            pred.target = ras[rasTop - 1];
        }
        return pred;
    }

    if (!inst.isCondBranch()) {
        // JMP / CALL: always taken, target from the instruction itself
        // (direct targets are known at decode).
        pred.taken = true;
        pred.targetKnown = true;
        pred.target = InstAddr(inst.imm);
        return pred;
    }

    pred.taken = predictDirection(pc, specHistory);
    const BtbEntry &entry = btb[btbIndex(pc)];
    if (entry.pc == pc) {
        pred.targetKnown = true;
        pred.target = entry.target;
    }
    return pred;
}

BPrediction
BranchPredictor::peekWithHistory(InstAddr pc, const isa::StaticInst &inst,
                                 std::uint64_t history) const
{
    BPrediction pred;
    using isa::Opcode;

    if (inst.op == Opcode::RET) {
        pred.taken = true;
        pred.targetKnown = false;
        return pred;
    }
    if (!inst.isCondBranch()) {
        pred.taken = true;
        pred.targetKnown = true;
        pred.target = InstAddr(inst.imm);
        return pred;
    }
    pred.taken = predictDirection(pc, history);
    const BtbEntry &entry = btb[btbIndex(pc)];
    if (entry.pc == pc) {
        pred.targetKnown = true;
        pred.target = entry.target;
    }
    return pred;
}

BPrediction
BranchPredictor::predict(InstAddr pc, const isa::StaticInst &inst)
{
    statLookups++;
    BPrediction pred = peek(pc, inst);

    using isa::Opcode;
    if (inst.op == Opcode::CALL) {
        // Push the return address.
        if (rasTop < ras.size())
            ras[rasTop++] = pc + 1;
        else {
            // Overflow: rotate (oldest entry lost).
            for (std::size_t i = 1; i < ras.size(); i++)
                ras[i - 1] = ras[i];
            ras[ras.size() - 1] = pc + 1;
        }
    } else if (inst.op == Opcode::RET) {
        if (rasTop > 0)
            rasTop--;
    }

    if (inst.isCondBranch())
        specHistory = (specHistory << 1) | (pred.taken ? 1 : 0);

    return pred;
}

void
BranchPredictor::update(InstAddr pc, const isa::StaticInst &inst, bool taken,
                        InstAddr target, bool mispredicted)
{
    if (mispredicted)
        statMispredicts++;

    if (inst.isCondBranch()) {
        const std::size_t li = localIndex(pc);
        const std::size_t gi = globalIndex(pc, archHistory);
        const std::size_t ci = chooserIndex(pc);

        const bool local_correct = counterTaken(localTable[li]) == taken;
        const bool global_correct = counterTaken(globalTable[gi]) == taken;
        if (local_correct != global_correct)
            chooserTable[ci] = bump(chooserTable[ci], global_correct);

        localTable[li] = bump(localTable[li], taken);
        globalTable[gi] = bump(globalTable[gi], taken);

        archHistory = (archHistory << 1) | (taken ? 1 : 0);
        if (mispredicted) {
            // Resynchronize the speculative history. Fetch already
            // repaired the wrong bit via fixupLastHistoryBit(); this
            // catches standalone users and bounds drift after deep
            // speculation.
            specHistory = archHistory;
        }
    }

    if (taken && inst.op != isa::Opcode::RET) {
        BtbEntry &entry = btb[btbIndex(pc)];
        entry.pc = pc;
        entry.target = target;
    }
}

} // namespace dynaspam::ooo
