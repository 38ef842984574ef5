/**
 * @file
 * T-Cache: the trace detection structure (Section 3.1).
 *
 * On commit of each conditional branch, an internal history buffer tracks
 * the previous three branch results. The T-Cache builds an index from the
 * PC of the earliest of those branches plus the three outcomes and
 * increments a saturating counter. When the counter exceeds a preset
 * threshold, the trace is flagged hot. Counters are periodically cleared
 * so infrequently executing traces do not occupy the spatial fabric.
 */

#ifndef DYNASPAM_CORE_TCACHE_HH
#define DYNASPAM_CORE_TCACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dynaspam::check
{
class StructureAuditor;
class FaultInjector;
} // namespace dynaspam::check

namespace dynaspam::core
{

/** Build a trace key from the anchor branch PC and three outcomes. */
inline std::uint64_t
makeTraceKey(InstAddr anchor_pc, bool o1, bool o2, bool o3)
{
    return (std::uint64_t(anchor_pc) << 3) | (std::uint64_t(o1)) |
           (std::uint64_t(o2) << 1) | (std::uint64_t(o3) << 2);
}

/** T-Cache configuration. */
struct TCacheParams
{
    std::size_t entries = 256;          ///< direct-mapped entries
    unsigned counterBits = 4;           ///< saturating counter width
    unsigned hotThreshold = 12;         ///< counter value marking hot
    std::uint64_t clearInterval = 100000;   ///< branch commits per clear
};

/** Mutable T-Cache state (geometry is a parameter). */
struct TCacheState
{
    struct Entry
    {
        std::uint64_t key = 0;
        unsigned counter = 0;
        bool hot = false;
        bool valid = false;

        bool operator==(const Entry &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("key", key);
            v("counter", counter);
            v("hot", hot);
            v("valid", valid);
        }
    };

    /** One slot of the committed-branch history window. */
    struct BranchRec
    {
        InstAddr pc = 0;
        bool taken = false;

        bool operator==(const BranchRec &) const = default;

        template <class V>
        void
        fields(V &v)
        {
            v("pc", pc);
            v("taken", taken);
        }
    };

    std::vector<Entry> entries;

    /** Last three committed conditional branches, oldest first. A fixed
     *  array instead of a deque: this is touched on every committed
     *  conditional branch, and two 16-byte moves beat deque node math. */
    std::array<BranchRec, 3> history{};
    unsigned historyCount = 0;  ///< valid slots, saturates at 3

    std::uint64_t commitCount = 0;
    std::uint64_t statTrainings = 0;
    std::uint64_t statClears = 0;

    bool operator==(const TCacheState &) const = default;

    /** The history depth fits the window (checked on decode). */
    bool wellFormed() const { return historyCount <= history.size(); }

    template <class V>
    void
    fields(V &v)
    {
        v("entries", entries);
        v("history", history);
        v("historyCount", historyCount);
        v("commitCount", commitCount);
        v("statTrainings", statTrainings);
        v("statClears", statClears);
    }
};

/** The trace-detection cache. */
class TCache : private TCacheState
{
  public:
    explicit TCache(const TCacheParams &params = TCacheParams{});

    /**
     * Record a committed conditional branch (trains the history buffer
     * and the saturation counters).
     */
    void commitBranch(InstAddr pc, bool taken);

    /** @return true when the trace identified by @p key is hot. */
    bool isHot(std::uint64_t key) const;

    std::uint64_t trainings() const { return statTrainings; }
    std::uint64_t clears() const { return statClears; }

    using State = TCacheState;

    void save(State &out) const { out = *this; }
    void restore(const State &in) { State::operator=(in); }

    /** @p in has this T-Cache's entry count (restore() needs it). */
    bool
    fits(const State &in) const
    {
        return in.entries.size() == entries.size();
    }

  private:
    /** The structure auditor inspects entries directly. */
    friend class dynaspam::check::StructureAuditor;
    /** The fault-injection self-test seeds violations directly. */
    friend class dynaspam::check::FaultInjector;

    std::size_t indexOf(std::uint64_t key) const
    {
        return std::size_t(key % entries.size());
    }

    TCacheParams params;
};

} // namespace dynaspam::core

#endif // DYNASPAM_CORE_TCACHE_HH
