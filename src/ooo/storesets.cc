/**
 * @file
 * Store-set predictor implementation.
 */

#include "ooo/storesets.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dynaspam::ooo
{

StoreSetPredictor::StoreSetPredictor(const StoreSetParams &p)
    : params(p)
{
    if (!p.ssitEntries || !p.lfstEntries)
        fatal("store-set tables must be non-empty");
    ssit.assign(p.ssitEntries, STORE_SET_INVALID);
    lfst.resize(p.lfstEntries);
}

void
StoreSetPredictor::maybeClear()
{
    if (params.clearInterval && allocations >= params.clearInterval) {
        std::fill(ssit.begin(), ssit.end(), STORE_SET_INVALID);
        for (auto &entry : lfst)
            entry = LfstEntry{};
        allocations = 0;
    }
}

void
StoreSetPredictor::recordViolation(InstAddr load_pc, InstAddr store_pc)
{
    statViolations++;
    maybeClear();
    allocations++;

    StoreSetId &load_set = ssit[ssitIndex(load_pc)];
    StoreSetId &store_set = ssit[ssitIndex(store_pc)];

    if (load_set == STORE_SET_INVALID && store_set == STORE_SET_INVALID) {
        load_set = store_set = nextId++ % StoreSetId(lfst.size());
    } else if (load_set == STORE_SET_INVALID) {
        load_set = store_set;
    } else if (store_set == STORE_SET_INVALID) {
        store_set = load_set;
    } else {
        // Both assigned: merge into the smaller id (declining preference
        // rule from the original store-sets paper).
        StoreSetId winner = std::min(load_set, store_set);
        load_set = store_set = winner;
    }
}

StoreSetId
StoreSetPredictor::dispatchStore(InstAddr store_pc, SeqNum seq)
{
    StoreSetId set = ssit[ssitIndex(store_pc)];
    if (set == STORE_SET_INVALID)
        return STORE_SET_INVALID;
    LfstEntry &entry = lfst[set % lfst.size()];
    entry.storeSeq = seq;
    entry.storePc = store_pc;
    return set;
}

SeqNum
StoreSetPredictor::lookupDependence(InstAddr load_pc) const
{
    StoreSetId set = ssit[ssitIndex(load_pc)];
    if (set == STORE_SET_INVALID)
        return 0;
    return lfst[set % lfst.size()].storeSeq;
}

void
StoreSetPredictor::retireStore(InstAddr store_pc, SeqNum seq)
{
    StoreSetId set = ssit[ssitIndex(store_pc)];
    if (set == STORE_SET_INVALID)
        return;
    LfstEntry &entry = lfst[set % lfst.size()];
    // Only the youngest registered store clears the entry; an older
    // store retiring must not erase a younger one's registration.
    if (entry.storeSeq == seq)
        entry = LfstEntry{};
}

bool
StoreSetPredictor::hasSet(InstAddr pc) const
{
    return ssit[ssitIndex(pc)] != STORE_SET_INVALID;
}

} // namespace dynaspam::ooo
