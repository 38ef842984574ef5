/**
 * @file
 * Power-of-two ring buffer for the pipeline queues.
 *
 * The ROB, the front-end buffer, the load/store queues, the post-commit
 * store buffer and the fabric's in-flight windows are FIFOs bounded by
 * the machine geometry that push at one end and pop at either. A Ring
 * keeps them in one contiguous power-of-two slot array with a head
 * index and a count, so steady-state pushes and pops neither allocate
 * nor free: a slot popped is simply overwritten by a later push (and
 * any capacity its element owns is reused with it). Indexing is
 * `slots[(head + i) & mask]`.
 *
 * Capacity is reserved up front from the owner's geometry; a push into
 * a full ring doubles the slot array instead of failing, so decoded or
 * hand-built state never overflows. Copy-assignment reuses the target's
 * slots when they are enough. Equality, iteration order and the
 * snapshot encoding (see fields::IsSequence) depend only on the
 * elements from front to back, never on the head offset or capacity:
 * a Ring encodes byte-for-byte like a std::deque of the same elements.
 */

#ifndef DYNASPAM_COMMON_RING_HH
#define DYNASPAM_COMMON_RING_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace dynaspam
{

template <class T>
class Ring
{
  public:
    using value_type = T;
    using size_type = std::size_t;

    Ring() = default;

    /** A ring with room for at least @p capacity elements. */
    explicit Ring(std::size_t capacity) { reserve(capacity); }

    Ring(const Ring &other) { *this = other; }

    Ring(Ring &&other) noexcept
        : slots(std::move(other.slots)),
          head(std::exchange(other.head, 0)),
          count(std::exchange(other.count, 0))
    {
        other.slots.clear();
    }

    /** Copies @p other's elements, front first, into this ring's own
     *  slots when they are enough; grows them otherwise. */
    Ring &
    operator=(const Ring &other)
    {
        if (this == &other)
            return *this;
        if (slots.size() < other.count)
            slots = std::vector<T>(slotsFor(other.count));
        for (std::size_t i = 0; i < other.count; i++)
            slots[i] = other[i];
        head = 0;
        count = other.count;
        return *this;
    }

    Ring &
    operator=(Ring &&other) noexcept
    {
        if (this != &other) {
            slots = std::move(other.slots);
            head = std::exchange(other.head, 0);
            count = std::exchange(other.count, 0);
            other.slots.clear();
        }
        return *this;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return slots.size(); }

    /** Room for at least @p n elements (rounded up to a power of two). */
    void
    reserve(std::size_t n)
    {
        if (n > slots.size())
            regrow(slotsFor(n));
    }

    T &operator[](std::size_t i) { return slots[(head + i) & mask()]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots[(head + i) & mask()];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    void
    push_back(const T &value)
    {
        nextSlot() = value;
        count++;
    }

    void
    push_back(T &&value)
    {
        nextSlot() = std::move(value);
        count++;
    }

    /** Append a default-valued element and return it. */
    T &
    emplace_back()
    {
        T &slot = nextSlot();
        slot = T{};
        count++;
        return slot;
    }

    /**
     * Append the next slot as it stands — whatever element a pop left
     * there, with the capacity it owns — for a caller that overwrites
     * every member. The allocation-free way to push elements that own
     * vectors.
     */
    T &
    push_back_reuse()
    {
        T &slot = nextSlot();
        count++;
        return slot;
    }

    void
    pop_front()
    {
        head = (head + 1) & mask();
        count--;
    }

    void pop_back() { count--; }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Remove element @p i, shifting the younger ones down by one. */
    void
    erase(std::size_t i)
    {
        for (; i + 1 < count; i++)
            std::swap((*this)[i], (*this)[i + 1]);
        count--;
    }

    template <class R, class V>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = V *;
        using reference = V &;

        Iter() = default;
        Iter(R *r, std::size_t i) : ring(r), index(i) {}

        V &operator*() const { return (*ring)[index]; }
        V *operator->() const { return &(*ring)[index]; }

        Iter &
        operator++()
        {
            index++;
            return *this;
        }

        Iter
        operator++(int)
        {
            Iter old = *this;
            index++;
            return old;
        }

        bool operator==(const Iter &o) const { return index == o.index; }

      private:
        R *ring = nullptr;
        std::size_t index = 0;
    };

    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

    /** Same elements in the same order; head offset and capacity are
     *  not part of the value. */
    bool
    operator==(const Ring &o) const
    {
        if (count != o.count)
            return false;
        for (std::size_t i = 0; i < count; i++) {
            if (!((*this)[i] == o[i]))
                return false;
        }
        return true;
    }

  private:
    static std::size_t
    slotsFor(std::size_t n)
    {
        return std::bit_ceil(std::max<std::size_t>(n, 4));
    }

    std::size_t mask() const { return slots.size() - 1; }

    T &
    nextSlot()
    {
        if (count == slots.size())
            regrow(slotsFor(2 * slots.size()));
        return slots[(head + count) & mask()];
    }

    void
    regrow(std::size_t n)
    {
        std::vector<T> grown(n);
        for (std::size_t i = 0; i < count; i++)
            grown[i] = std::move((*this)[i]);
        slots = std::move(grown);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace dynaspam

#endif // DYNASPAM_COMMON_RING_HH
