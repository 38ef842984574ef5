/**
 * @file
 * Fabric configuration: the product of the dynamic mapping phase.
 *
 * A FabricConfig records, for every instruction of a mapped trace, its PE
 * placement and operand routing, plus the trace's live-in/live-out
 * interface, its control-flow path (for validity checking during
 * offloaded execution) and its memory-operation order (the simplified
 * memory instructions kept in the configuration per Section 3.2).
 */

#ifndef DYNASPAM_FABRIC_CONFIG_HH
#define DYNASPAM_FABRIC_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fabric/params.hh"
#include "isa/inst.hh"

namespace dynaspam::fabric
{

/** Where one operand of a mapped instruction comes from. */
struct OperandRoute
{
    enum class Kind : std::uint8_t
    {
        None,       ///< operand unused
        LiveIn,     ///< from a live-in FIFO via the global bus
        PassReg,    ///< from the previous stripe's pass registers
        Routed,     ///< from a producer several stripes back, via newly
                    ///< allocated pass-register datapaths (costs hops)
    };

    Kind kind = Kind::None;
    /** Producing instruction's index within the config (PassReg/Routed). */
    std::uint16_t producerIdx = 0xffff;
    /** Live-in FIFO index (LiveIn). */
    std::uint16_t liveInIdx = 0;
    /** Extra stripe boundaries the value crosses beyond one. */
    std::uint16_t hops = 0;

    bool operator==(const OperandRoute &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("kind", kind);
        v("producerIdx", producerIdx);
        v("liveInIdx", liveInIdx);
        v("hops", hops);
    }
};

/** One instruction placed on the fabric. */
struct MappedInst
{
    InstAddr pc = 0;
    isa::Opcode op = isa::Opcode::NOP;
    PeId pe;
    OperandRoute src1;
    OperandRoute src2;
    RegIndex destArch = REG_INVALID;

    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;
    /** For branches: the outcome along the mapped trace path. */
    bool expectedTaken = false;

    isa::OpClass opClass() const { return isa::opClass(op); }

    bool operator==(const MappedInst &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("pc", pc);
        v("op", op);
        v("pe", pe);
        v("src1", src1);
        v("src2", src2);
        v("destArch", destArch);
        v("isLoad", isLoad);
        v("isStore", isStore);
        v("isBranch", isBranch);
        v("expectedTaken", expectedTaken);
    }
};

/** A live-out: which mapped instruction produces which architectural reg. */
struct LiveOut
{
    RegIndex arch = REG_INVALID;
    std::uint16_t producerIdx = 0xffff;

    bool operator==(const LiveOut &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("arch", arch);
        v("producerIdx", producerIdx);
    }
};

/** Complete configuration for one trace. */
struct FabricConfig
{
    /** Identity: PC of the trace's first (branch) instruction plus the
     *  predicted outcomes of its three branches, as in the T-Cache. */
    std::uint64_t key = 0;

    /** First oracle-trace record the config was mapped from (debug). */
    SeqNum mappedFromIdx = 0;

    /** Number of dynamic records one invocation covers. */
    std::uint32_t numRecords = 0;

    std::vector<MappedInst> insts;      ///< in trace program order
    std::vector<RegIndex> liveIns;      ///< arch regs, FIFO order
    std::vector<LiveOut> liveOuts;

    bool hasStores = false;
    std::uint8_t stripesUsed = 0;

    bool valid() const { return numRecords > 0 && !insts.empty(); }

    /** Human-readable dump of placements and routes. */
    std::string toString() const;

    /** Every route and live-out names an instruction or live-in of this
     *  config, and every register an architectural one (checked on
     *  decode). */
    bool wellFormed() const;

    bool operator==(const FabricConfig &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("key", key);
        v("mappedFromIdx", mappedFromIdx);
        v("numRecords", numRecords);
        v("insts", insts);
        v("liveIns", liveIns);
        v("liveOuts", liveOuts);
        v("hasStores", hasStores);
        v("stripesUsed", stripesUsed);
    }
};

/**
 * Shared ownership of an immutable FabricConfig, as held in simulator
 * state (configuration cache entries, loaded fabrics, pending
 * invocations). Configs never change once built, so equality is
 * equality of the pointed-to configs: a snapshot decoded from disk,
 * whose configs are fresh objects, compares equal to its source.
 */
struct SharedConfig : std::shared_ptr<const FabricConfig>
{
    using std::shared_ptr<const FabricConfig>::shared_ptr;

    SharedConfig() = default;
    SharedConfig(std::shared_ptr<const FabricConfig> config)
        : std::shared_ptr<const FabricConfig>(std::move(config))
    {
    }

    friend bool
    operator==(const SharedConfig &a, const SharedConfig &b)
    {
        return a.get() == b.get() || (a && b && *a == *b);
    }

    friend bool
    operator==(const SharedConfig &a, std::nullptr_t)
    {
        return !a;
    }
};

} // namespace dynaspam::fabric

#endif // DYNASPAM_FABRIC_CONFIG_HH
