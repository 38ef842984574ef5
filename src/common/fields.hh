/**
 * @file
 * One field list per simulator component.
 *
 * Every stateful simulator component keeps its mutable members in one
 * aggregate State, which the component inherits (so simulator code
 * keeps its member names), and names those members exactly once:
 *
 *     template <class V>
 *     void
 *     fields(V &v)
 *     {
 *         v("curCycle", curCycle);
 *         v("rob", rob);
 *         ...
 *     }
 *
 * Snapshot save/restore are then plain copies of the State, and every
 * other consumer of the list is a generic visitor over it: the on-disk
 * writer and reader (sim/snapshot_io.cc) and the round-trip auditor's
 * localizer (check/snapshot_audit.cc). Each State also defaults
 * operator== over all of its members; a member left out of fields()
 * is copied in process but dropped on disk, so auditing a decoded
 * snapshot against its source reports it as a member missing from
 * fields().
 *
 * The visitors understand the member types classified below, plus any
 * type that itself has fields(). Anything else fails to compile, which
 * is the point: a new kind of state must say how it is encoded. A type
 * whose members must agree with each other (indices into its own
 * tables, sizes fixed by a geometry it carries) also defines
 * `bool wellFormed() const`; the snapshot reader rejects decoded state
 * that fails it.
 */

#ifndef DYNASPAM_COMMON_FIELDS_HH
#define DYNASPAM_COMMON_FIELDS_HH

#include <array>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace dynaspam::fields
{

/** Visitor that ignores every field (for concept checks). */
struct NullVisitor
{
    template <class F>
    void operator()(const char *, F &) {}
};

/** A type that lists its members through fields(). */
template <class T>
concept HasFields = requires(T &t, NullVisitor &v) { t.fields(v); };

template <class T> struct IsSequence : std::false_type {};
template <class T, class A>
struct IsSequence<std::vector<T, A>> : std::true_type {};
template <class T, class A>
struct IsSequence<std::deque<T, A>> : std::true_type {};

/** Key-ordered or hashed associative containers with mapped values. */
template <class T> struct IsMap : std::false_type {};
template <class K, class V, class... R>
struct IsMap<std::map<K, V, R...>> : std::true_type {};
template <class K, class V, class... R>
struct IsMap<std::unordered_map<K, V, R...>> : std::true_type {};

template <class T> struct IsSet : std::false_type {};
template <class K, class... R>
struct IsSet<std::set<K, R...>> : std::true_type {};
template <class K, class... R>
struct IsSet<std::unordered_set<K, R...>> : std::true_type {};

template <class T> struct IsOptional : std::false_type {};
template <class T> struct IsOptional<std::optional<T>> : std::true_type {};

/** Shared pointers to immutable objects, or classes derived from one
 *  (encoded once, then by id). */
template <class T>
concept SharedConst = requires { typename T::element_type; } &&
    std::is_const_v<typename T::element_type> &&
    std::is_base_of_v<std::shared_ptr<typename T::element_type>, T>;

template <class T> struct IsPair : std::false_type {};
template <class A, class B>
struct IsPair<std::pair<A, B>> : std::true_type {};

/** Fixed-length arrays: encoded without a count. */
template <class T> struct IsArray : std::false_type {};
template <class T, std::size_t N>
struct IsArray<T[N]> : std::true_type
{
    using Elem = T;
    static constexpr std::size_t size = N;
};
template <class T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type
{
    using Elem = T;
    static constexpr std::size_t size = N;
};

/** Scalars: bool, integers and enums, encoded at their declared width. */
template <class T>
inline constexpr bool isScalar =
    std::is_integral_v<T> || std::is_enum_v<T>;

/** Visit the fields of an object the visitor only reads. fields() is
 *  declared non-const so one list serves readers and writers alike. */
template <class T, class V>
void
visitConst(const T &object, V &visitor)
{
    const_cast<T &>(object).fields(visitor);
}

} // namespace dynaspam::fields

#endif // DYNASPAM_COMMON_FIELDS_HH
