/**
 * @file
 * Unit tests for the common module: stats, histogram, RNG, logging,
 * the pipeline-queue ring buffer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "isa/program.hh"
#include "isa/trace.hh"
#include "sim/field_codec.hh"

using namespace dynaspam;

TEST(StatCounter, StartsAtZeroAndIncrements)
{
    StatCounter c("c");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatAccum, AccumulatesDoubles)
{
    StatAccum a("a");
    a.add(1.5);
    a.add(2.25);
    EXPECT_DOUBLE_EQ(a.value(), 3.75);
}

TEST(StatRegistry, CounterIsSharedByName)
{
    StatRegistry reg;
    reg.counter("x").inc(3);
    reg.counter("x").inc(4);
    EXPECT_EQ(reg.get("x"), 7u);
    EXPECT_EQ(reg.get("missing"), 0u);
}

TEST(StatRegistry, ResetAllClearsEverything)
{
    StatRegistry reg;
    reg.counter("x").inc(3);
    reg.accum("e").add(1.0);
    reg.resetAll();
    EXPECT_EQ(reg.get("x"), 0u);
    EXPECT_DOUBLE_EQ(reg.getAccum("e"), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h("h", 10, 4);   // buckets [0,10) [10,20) [20,30) [30,40)
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(35);
    h.sample(100);             // overflow
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 9 + 10 + 35 + 100) / 5.0);
}

TEST(Histogram, RejectsDegenerateGeometry)
{
    EXPECT_THROW(Histogram("h", 0, 4), FatalError);
    EXPECT_THROW(Histogram("h", 10, 0), FatalError);
}

TEST(Histogram, RestoreRoundTripsState)
{
    Histogram h("h", 10, 3);
    h.restore({1, 2, 3}, 4, 10, 250);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(2), 3u);
    EXPECT_EQ(h.overflowCount(), 4u);
    EXPECT_EQ(h.samples(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 25.0);
    EXPECT_THROW(h.restore({1, 2}, 0, 0, 0), FatalError);
}

TEST(StatRegistry, HistogramRegistrationAndReset)
{
    StatRegistry reg;
    Histogram &h = reg.histogram("lat", 10, 4);
    h.sample(12);
    // Same name returns the same histogram regardless of geometry args.
    EXPECT_EQ(&reg.histogram("lat", 999, 1), &h);
    EXPECT_EQ(reg.findHistogram("lat"), &h);
    EXPECT_EQ(reg.findHistogram("absent"), nullptr);
    reg.resetAll();
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Geomean, MatchesHandComputedValue)
{
    // geomean(2, 8) = 4
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Geomean, SkipsZeroEntries)
{
    // A zero measurement (e.g. a workload that committed nothing) used
    // to drive log() to -inf and the whole mean to 0; it is now skipped.
    EXPECT_NEAR(geomean({0.0, 2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, 0.0, 0.0}), 0.0);
}

TEST(Geomean, RejectsNegativeAndNaN)
{
    // log() of a negative used to return NaN and silently poison every
    // downstream comparison; both now fail loudly at the source.
    EXPECT_THROW(geomean({-1.0}), FatalError);
    EXPECT_THROW(geomean({2.0, -8.0}), FatalError);
    EXPECT_THROW(geomean({2.0, std::nan("")}), FatalError);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; i++) {
        auto v = rng.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config value ", 42), FatalError);
    try {
        fatal("x=", 1, " y=", 2);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "x=1 y=2");
    }
}

// --- Ring ---

namespace
{

std::vector<int>
contents(const Ring<int> &ring)
{
    return std::vector<int>(ring.begin(), ring.end());
}

/** A ring of capacity 8 whose head sits at slot @p offset, holding
 *  @p values front to back. */
Ring<int>
rotated(std::size_t offset, const std::vector<int> &values)
{
    Ring<int> ring(8);
    for (std::size_t i = 0; i < offset; i++)
        ring.push_back(-1);
    for (std::size_t i = 0; i < offset; i++)
        ring.pop_front();
    for (int v : values)
        ring.push_back(v);
    return ring;
}

} // namespace

TEST(Ring, CapacityIsAPowerOfTwo)
{
    EXPECT_EQ(Ring<int>(192).capacity(), 256u);
    EXPECT_EQ(Ring<int>(16).capacity(), 16u);
    EXPECT_EQ(Ring<int>(17).capacity(), 32u);
}

TEST(Ring, WrapsAroundWithoutGrowing)
{
    Ring<int> ring(4);
    for (int i = 0; i < 3; i++)
        ring.push_back(i);
    // Push at the tail and pop at the head until the window has
    // wrapped past the end of the slot array several times.
    for (int i = 3; i < 40; i++) {
        ring.push_back(i);
        ring.pop_front();
        ASSERT_EQ(ring.size(), 3u);
        EXPECT_EQ(ring.front(), i - 2);
        EXPECT_EQ(ring.back(), i);
        EXPECT_EQ(ring[1], i - 1);
    }
    EXPECT_EQ(ring.capacity(), 4u);
}

TEST(Ring, PopsAtBothEnds)
{
    Ring<int> ring = rotated(6, {1, 2, 3, 4, 5});
    ring.pop_front();
    ring.pop_back();
    EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4}));
    ring.pop_back();
    ring.pop_back();
    ring.pop_front();
    EXPECT_TRUE(ring.empty());
    ring.push_back(9);
    EXPECT_EQ(ring.front(), 9);
    EXPECT_EQ(ring.back(), 9);
}

TEST(Ring, GrowsWhenFullKeepingOrder)
{
    Ring<int> ring = rotated(5, {0, 1, 2, 3, 4, 5, 6, 7});
    ASSERT_EQ(ring.capacity(), 8u);
    ring.push_back(8);
    EXPECT_EQ(ring.capacity(), 16u);
    EXPECT_EQ(contents(ring),
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Ring, EraseShiftsYoungerElements)
{
    Ring<int> ring = rotated(7, {10, 11, 12, 13});
    ring.erase(1);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 12, 13}));
}

TEST(Ring, CopyAssignIntoSmallerAndLargerRings)
{
    const Ring<int> source = rotated(6, {1, 2, 3, 4, 5, 6});

    Ring<int> smaller(4);
    smaller.push_back(99);
    smaller = source;
    EXPECT_EQ(contents(smaller), contents(source));
    EXPECT_GE(smaller.capacity(), source.size());

    Ring<int> larger(64);
    for (int i = 0; i < 40; i++)
        larger.push_back(i);
    larger = source;
    EXPECT_EQ(contents(larger), contents(source));
    EXPECT_EQ(larger.capacity(), 64u) << "enough slots are reused";

    Ring<int> moved = std::move(larger);
    EXPECT_EQ(contents(moved), contents(source));
    EXPECT_TRUE(larger.empty());
}

TEST(Ring, EqualityIgnoresHeadOffsetAndCapacity)
{
    EXPECT_EQ(rotated(0, {1, 2, 3}), rotated(5, {1, 2, 3}));
    Ring<int> big(128);
    for (int v : {1, 2, 3})
        big.push_back(v);
    EXPECT_EQ(big, rotated(7, {1, 2, 3}));
    EXPECT_NE(rotated(2, {1, 2, 3}), rotated(2, {1, 2}));
    EXPECT_NE(rotated(2, {1, 2, 3}), rotated(2, {1, 2, 4}));
}

TEST(Ring, EncodesLikeADequeOfTheSameElements)
{
    const std::vector<std::uint64_t> values = {7, 0, 1ull << 40, 3, 9};
    Ring<std::uint64_t> ring(4);
    for (int i = 0; i < 3; i++)
        ring.push_back(0);
    for (int i = 0; i < 3; i++)
        ring.pop_front();
    std::deque<std::uint64_t> deque;
    for (std::uint64_t v : values) {
        ring.push_back(v);
        deque.push_back(v);
    }

    sim::FieldWriter ring_writer;
    ring_writer.put(ring);
    sim::FieldWriter deque_writer;
    deque_writer.put(deque);
    const std::string bytes = ring_writer.take();
    EXPECT_EQ(bytes, deque_writer.take());

    // And it decodes back into the same elements.
    const isa::Program program("empty");
    const isa::DynamicTrace trace(program);
    sim::FieldReader reader(bytes, trace);
    Ring<std::uint64_t> decoded;
    reader.get(decoded);
    EXPECT_TRUE(reader.done());
    EXPECT_EQ(decoded, ring);
}
