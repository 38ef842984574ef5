#include "check/snapshot_audit.hh"

#include <algorithm>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.hh"
#include "sim/snapshot.hh"

namespace dynaspam::check
{

namespace
{

/** Member equality; C arrays compare element-wise, as in a defaulted
 *  operator==. */
template <class T>
bool
same(const T &a, const T &b)
{
    if constexpr (std::is_array_v<T>)
        return std::equal(std::begin(a), std::end(a), std::begin(b));
    else
        return a == b;
}

/** Call fn(name, a.member, b.member) for each member in fields() order. */
template <class T, class Fn>
void
zipFields(const T &a, const T &b, Fn &&fn)
{
    std::vector<const void *> members;
    auto collect = [&members](const char *, auto &field) {
        members.push_back(&field);
    };
    fields::visitConst(a, collect);
    std::size_t i = 0;
    auto pair = [&](const char *name, auto &field) {
        using F = std::remove_cvref_t<decltype(field)>;
        fn(name, *static_cast<const F *>(members[i++]), field);
    };
    fields::visitConst(b, pair);
}

/**
 * Names where two unequal values first differ, as a member path
 * (".rob[3].issueCycle"). Equality itself is each State's defaulted
 * operator==, over ALL of its members; the field lists only localize.
 * So a difference no listed member shows is a member missing from
 * fields() — one that a snapshot file would silently drop.
 */
class Locator
{
  public:
    std::string path;

    /** Precondition: !(a == b). */
    template <class T>
    void
    locate(const T &a, const T &b)
    {
        if constexpr (fields::IsSequence<T>::value ||
                      fields::IsArray<T>::value) {
            if (std::size(a) != std::size(b)) {
                path += " (size " + std::to_string(std::size(a)) + " vs " +
                        std::to_string(std::size(b)) + ")";
                return;
            }
            for (std::size_t i = 0; i < std::size(a); i++) {
                if (!(a[i] == b[i])) {
                    path += "[" + std::to_string(i) + "]";
                    locate<std::remove_cvref_t<decltype(a[i])>>(a[i], b[i]);
                    return;
                }
            }
        } else if constexpr (fields::IsMap<T>::value) {
            if (a.size() != b.size()) {
                path += " (size " + std::to_string(a.size()) + " vs " +
                        std::to_string(b.size()) + ")";
                return;
            }
            for (const auto &[key, value] : a) {
                path += "[" + std::to_string(key) + "]";
                auto it = b.find(key);
                if (it == b.end()) {
                    path += " (missing)";
                    return;
                }
                if (!(value == it->second)) {
                    locate(value, it->second);
                    return;
                }
                path.resize(path.rfind('['));
            }
        } else if constexpr (fields::IsOptional<T>::value) {
            if (a.has_value() != b.has_value())
                path += " (present in only one)";
            else
                locate(*a, *b);
        } else if constexpr (fields::SharedConst<T>) {
            if (!a || !b)
                path += " (null in only one)";
            else
                locate(*a, *b);
        } else if constexpr (fields::IsPair<T>::value) {
            if (!(a.first == b.first)) {
                path += ".first";
                locate(a.first, b.first);
            } else {
                path += ".second";
                locate(a.second, b.second);
            }
        } else if constexpr (fields::HasFields<T>) {
            bool found = false;
            zipFields(a, b, [&](const char *name, const auto &fa,
                                const auto &fb) {
                if (found || same(fa, fb))
                    return;
                found = true;
                path += ".";
                path += name;
                locate(fa, fb);
            });
            if (!found)
                path += ".<member missing from fields()>";
        }
        // Scalars and sets: the path so far names the difference.
    }
};

} // namespace

bool
auditSnapshotRoundTrip(const sim::Snapshot &expect, const sim::Snapshot &got,
                       ViolationSink &sink, Cycle now)
{
    bool ok = true;

    if (expect.input.get() != got.input.get()) {
        sink.report("snapshot", now,
                    "snapshots were taken over different SimInputs");
        ok = false;
    }

    zipFields(expect, got, [&](const char *component, const auto &a,
                               const auto &b) {
        if (same(a, b))
            return;
        Locator locator;
        locator.locate(a, b);
        sink.report("snapshot", now,
                    "restored state diverges from its source snapshot "
                    "in " + std::string(component) + locator.path);
        ok = false;
    });
    return ok;
}

} // namespace dynaspam::check
