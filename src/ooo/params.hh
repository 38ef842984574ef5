/**
 * @file
 * Configuration of the out-of-order pipeline, defaulted to the paper's
 * Table 4 evaluation system parameters.
 */

#ifndef DYNASPAM_OOO_PARAMS_HH
#define DYNASPAM_OOO_PARAMS_HH

#include <cstdint>

#include "common/types.hh"
#include "ooo/bpred.hh"
#include "ooo/storesets.hh"

namespace dynaspam::ooo
{

/** Functional unit counts per type (Table 4: execution units). */
struct FuPoolParams
{
    unsigned intAlu = 4;
    unsigned intMulDiv = 1;
    unsigned fpAlu = 4;
    unsigned fpMulDiv = 1;
    unsigned ldst = 2;

    unsigned count(isa::FuType type) const;
    unsigned total() const
    {
        return intAlu + intMulDiv + fpAlu + fpMulDiv + ldst;
    }

    bool operator==(const FuPoolParams &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("intAlu", intAlu);
        v("intMulDiv", intMulDiv);
        v("fpAlu", fpAlu);
        v("fpMulDiv", fpMulDiv);
        v("ldst", ldst);
    }
};

/** Full pipeline configuration. */
struct OooParams
{
    unsigned fetchWidth = 8;
    unsigned decodeWidth = 8;
    unsigned renameWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;

    unsigned robEntries = 192;      ///< Table 4: 192-entry ROB
    unsigned numPhysRegs = 256;     ///< Table 4: 256-entry physical RF
    unsigned iqEntries = 64;        ///< unified issue queue
    unsigned lqEntries = 128;       ///< Table 4: 128-entry load queue
    unsigned sqEntries = 128;       ///< Table 4: 128-entry store queue

    /**
     * Cycles from branch resolution to the first fetch of the correct
     * path. Deep 8-wide front ends pay 10-20 cycles end to end; 10 here
     * plus the modelled fetch/decode refill lands in that range.
     */
    unsigned branchMispredictPenalty = 10;
    /**
     * Extra host-pipeline cycles on the load path between select and
     * data return: IQ grant, register read and AGU hand-off through the
     * centralized structures the paper's Section 2 contrasts with the
     * fabric's direct wiring (fabric LDST units do not pay this).
     */
    unsigned loadIssueToExecuteExtra = 2;
    /** Extra cycles after a memory-order-violation squash. */
    unsigned squashPenalty = 3;
    /** Latency of a store-to-load forward. */
    unsigned forwardLatency = 1;
    /** Bytes per instruction for I-cache addressing. */
    unsigned instBytes = 4;

    FuPoolParams fuPool;
    BPredParams bpred;
    StoreSetParams storeSets;

    /** When false, loads wait for all older stores (no speculation). */
    bool memorySpeculation = true;
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_PARAMS_HH
