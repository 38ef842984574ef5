/**
 * @file
 * Snapshot body (de)serialization. See snapshot_io.hh for the rules.
 *
 * The body is whatever Snapshot::fields() lists, recursively: a writer
 * and a reader visit the same field lists (common/fields.hh), so the
 * encoding of a component follows its State declaration and nothing
 * here names a simulator member.
 */

#include "sim/snapshot_io.hh"

#include <algorithm>
#include <map>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/binio.hh"
#include "common/fields.hh"

namespace dynaspam::sim
{

namespace
{

static_assert(sizeof(std::size_t) == 8,
              "the snapshot encoding writes size_t fields as 8 bytes");

// One past the largest valid value of each enum held in snapshot
// state; a decoded value outside the range fails the stream.
constexpr std::uint64_t
enumEnd(ooo::RobKind)
{
    return std::uint64_t(ooo::RobKind::TraceInvoke) + 1;
}

constexpr std::uint64_t
enumEnd(isa::Opcode)
{
    return std::uint64_t(isa::Opcode::NUM_OPCODES);
}

constexpr std::uint64_t
enumEnd(fabric::OperandRoute::Kind)
{
    return std::uint64_t(fabric::OperandRoute::Kind::Routed) + 1;
}

template <class T> std::size_t minBytes();

struct MinBytesVisitor
{
    std::size_t total = 0;

    template <class F>
    void
    operator()(const char *, F &)
    {
        total += minBytes<F>();
    }
};

/** Fewest bytes one encoded T takes: the bound for decoded counts. */
template <class T>
std::size_t
minBytes()
{
    if constexpr (fields::isScalar<T>) {
        return sizeof(T);
    } else if constexpr (fields::IsSequence<T>::value ||
                         fields::IsMap<T>::value ||
                         fields::IsSet<T>::value) {
        return 8;
    } else if constexpr (fields::IsOptional<T>::value) {
        return 1;
    } else if constexpr (fields::SharedConst<T>) {
        return 4;
    } else if constexpr (fields::IsPair<T>::value) {
        return minBytes<typename T::first_type>() +
               minBytes<typename T::second_type>();
    } else if constexpr (fields::IsArray<T>::value) {
        return fields::IsArray<T>::size *
               minBytes<typename fields::IsArray<T>::Elem>();
    } else {
        static const std::size_t bytes = [] {
            T sample{};
            MinBytesVisitor v;
            sample.fields(v);
            return v.total;
        }();
        return bytes;
    }
}

/** True for 1-byte integers stored contiguously (bulk-copied). */
template <class T>
inline constexpr bool isByteVector = false;
template <class E>
inline constexpr bool isByteVector<std::vector<E>> =
    std::is_integral_v<E> && sizeof(E) == 1 && !std::is_same_v<E, bool>;

/** Encodes a field list little-endian, unordered containers sorted by
 *  key and each shared FabricConfig once (later references by id). */
class FieldWriter
{
  public:
    template <class F>
    void
    operator()(const char *, const F &field)
    {
        put(field);
    }

    template <class T>
    void
    put(const T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out.b(value);
        } else if constexpr (std::is_enum_v<T>) {
            put(std::underlying_type_t<T>(value));
        } else if constexpr (std::is_integral_v<T>) {
            using U = std::make_unsigned_t<T>;
            if constexpr (sizeof(T) == 1)
                out.u8(U(value));
            else if constexpr (sizeof(T) == 2)
                out.u16(U(value));
            else if constexpr (sizeof(T) == 4)
                out.u32(U(value));
            else
                out.u64(U(value));
        } else if constexpr (isByteVector<T>) {
            out.u64(value.size());
            out.raw(value.data(), value.size());
        } else if constexpr (fields::IsSequence<T>::value) {
            out.u64(value.size());
            for (const auto &elem : value)
                put(elem);
        } else if constexpr (fields::IsMap<T>::value) {
            std::vector<const typename T::value_type *> entries;
            entries.reserve(value.size());
            for (const auto &entry : value)
                entries.push_back(&entry);
            std::sort(entries.begin(), entries.end(),
                      [](auto *a, auto *b) { return a->first < b->first; });
            out.u64(entries.size());
            for (const auto *entry : entries) {
                put(entry->first);
                put(entry->second);
            }
        } else if constexpr (fields::IsSet<T>::value) {
            std::vector<typename T::key_type> keys(value.begin(),
                                                   value.end());
            std::sort(keys.begin(), keys.end());
            put(keys);
        } else if constexpr (fields::IsOptional<T>::value) {
            out.b(value.has_value());
            if (value)
                put(*value);
        } else if constexpr (fields::SharedConst<T>) {
            static_assert(std::is_same_v<typename T::element_type,
                                         const fabric::FabricConfig>,
                          "only FabricConfig is pooled");
            if (!value) {
                out.u32(0);
                return;
            }
            auto [it, fresh] = pool.try_emplace(
                value.get(), std::uint32_t(pool.size() + 1));
            out.u32(it->second);
            if (fresh)
                put(*value);
        } else if constexpr (fields::IsPair<T>::value) {
            put(value.first);
            put(value.second);
        } else if constexpr (fields::IsArray<T>::value) {
            for (const auto &elem : value)
                put(elem);
        } else {
            static_assert(fields::HasFields<T>,
                          "snapshot state member of an unsupported type");
            fields::visitConst(value, *this);
        }
    }

    std::string take() { return out.take(); }

  private:
    binio::Writer out;
    std::map<const void *, std::uint32_t> pool;
};

/**
 * Decodes what FieldWriter wrote, failing soft: every count is bounded
 * by the bytes left, every enum by its range, unordered keys must come
 * strictly ascending, config ids densely, and each decoded structure
 * with a wellFormed() predicate must satisfy it. DynInst pointers are
 * re-derived from their trace index against the caller's SimInput.
 */
class FieldReader
{
  public:
    FieldReader(std::string_view bytes, const isa::DynamicTrace &t)
        : in(bytes), trace(t)
    {
    }

    template <class F>
    void
    operator()(const char *, F &field)
    {
        get(field);
    }

    template <class T>
    void
    get(T &value)
    {
        if (!in.ok())
            return;
        if constexpr (std::is_same_v<T, bool>) {
            value = in.b();
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw{};
            get(raw);
            if (std::uint64_t(raw) >= enumEnd(T{}))
                in.fail();
            else
                value = T(raw);
        } else if constexpr (std::is_integral_v<T>) {
            using U = std::make_unsigned_t<T>;
            if constexpr (sizeof(T) == 1)
                value = T(U(in.u8()));
            else if constexpr (sizeof(T) == 2)
                value = T(U(in.u16()));
            else if constexpr (sizeof(T) == 4)
                value = T(U(in.u32()));
            else
                value = T(U(in.u64()));
        } else if constexpr (isByteVector<T>) {
            const std::uint64_t count = in.u64();
            if (!in.checkCount(count, 1))
                return;
            value.resize(count);
            in.raw(value.data(), value.size());
        } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
            const std::uint64_t count = in.u64();
            if (!in.checkCount(count, 1))
                return;
            value.assign(count, false);
            for (std::uint64_t i = 0; i < count && in.ok(); i++)
                value[i] = in.b();
        } else if constexpr (fields::IsSequence<T>::value) {
            const std::uint64_t count = in.u64();
            if (!in.checkCount(count, minBytes<typename T::value_type>()))
                return;
            value.clear();
            for (std::uint64_t i = 0; i < count && in.ok(); i++)
                get(value.emplace_back());
        } else if constexpr (fields::IsMap<T>::value) {
            using K = typename T::key_type;
            const std::uint64_t count = in.u64();
            if (!in.checkCount(count, minBytes<K>() +
                                          minBytes<typename T::mapped_type>()))
                return;
            value.clear();
            K prev{};
            for (std::uint64_t i = 0; i < count && in.ok(); i++) {
                K key{};
                get(key);
                if (!ascending(i, prev, key))
                    return;
                get(value[key]);
            }
        } else if constexpr (fields::IsSet<T>::value) {
            using K = typename T::key_type;
            const std::uint64_t count = in.u64();
            if (!in.checkCount(count, minBytes<K>()))
                return;
            value.clear();
            K prev{};
            for (std::uint64_t i = 0; i < count && in.ok(); i++) {
                K key{};
                get(key);
                if (!ascending(i, prev, key))
                    return;
                value.insert(key);
            }
        } else if constexpr (fields::IsOptional<T>::value) {
            if (in.b())
                get(value.emplace());
            else
                value.reset();
        } else if constexpr (fields::SharedConst<T>) {
            const std::uint32_t id = in.u32();
            if (id == 0) {
                value = nullptr;
            } else if (id <= pool.size()) {
                value = pool[id - 1];
            } else if (id == pool.size() + 1) {
                auto fresh = std::make_shared<fabric::FabricConfig>();
                get(*fresh);
                pool.push_back(fresh);
                value = std::move(fresh);
            } else {
                in.fail();  // ids are assigned densely in write order
            }
        } else if constexpr (fields::IsPair<T>::value) {
            get(value.first);
            get(value.second);
        } else if constexpr (fields::IsArray<T>::value) {
            for (auto &elem : value)
                get(elem);
        } else {
            value.fields(*this);
            if constexpr (std::is_same_v<T, ooo::DynInst>)
                rebind(value);
            if constexpr (requires { value.wellFormed(); }) {
                if (in.ok() && !value.wellFormed())
                    in.fail();
            }
        }
    }

    /** The whole body decoded and nothing is left over: trailing bytes
     *  mean the file was framed for a different encoding. */
    bool done() const { return in.ok() && in.remaining() == 0; }

  private:
    /** Keys of unordered containers are written sorted and unique. */
    template <class K>
    bool
    ascending(std::uint64_t index, K &prev, const K &key)
    {
        if (index > 0 && !(prev < key)) {
            in.fail();
            return false;
        }
        prev = key;
        return true;
    }

    /** Re-derive the DynInst pointers: record always references the
     *  oracle trace slot; inst only for real instructions (TraceInvoke
     *  pseudo-ops carry no static instruction). */
    void
    rebind(ooo::DynInst &di)
    {
        if (!in.ok())
            return;
        if (di.traceIdx >= trace.size()) {
            in.fail();
            return;
        }
        di.record = &trace[di.traceIdx];
        di.inst = nullptr;
        if (di.kind == ooo::RobKind::Inst) {
            if (di.record->pc >= trace.program().size()) {
                in.fail();
                return;
            }
            di.inst = &trace.program().inst(di.record->pc);
        }
    }

    binio::Reader in;
    const isa::DynamicTrace &trace;
    std::vector<std::shared_ptr<const fabric::FabricConfig>> pool;
};

} // namespace

std::uint64_t
simInputIdentityHash(const SimInput &input)
{
    std::uint64_t h = bits::FNV1A_OFFSET;
    auto fold64 = [&h](std::uint64_t value) {
        for (unsigned shift = 0; shift < 64; shift += 8)
            h = bits::fnv1aStep(h,
                                std::uint8_t((value >> shift) & 0xff));
    };

    const isa::Program &prog = input.program();
    h = bits::fnv1a(prog.name().data(), prog.name().size(), h);
    fold64(prog.size());
    for (const auto &inst : prog.code()) {
        h = bits::fnv1aStep(h, std::uint8_t(inst.op));
        fold64(inst.dest);
        fold64(inst.src1);
        fold64(inst.src2);
        fold64(std::uint64_t(inst.imm));
    }

    h = input.initialMemory().contentHash(h);

    const isa::DynamicTrace &trace = input.trace();
    fold64(trace.size());
    for (SeqNum i = 0; i < trace.size(); i++) {
        const isa::DynRecord &rec = trace[i];
        fold64(rec.pc);
        fold64(rec.nextPc);
        fold64(rec.effAddr);
        h = bits::fnv1aStep(h, rec.taken ? 1 : 0);
    }

    h = bits::fnv1aStep(h, input.functionallyCorrect() ? 1 : 0);
    return h;
}

void
serializeSnapshot(const Snapshot &snap, std::string &out)
{
    FieldWriter writer;
    fields::visitConst(snap, writer);
    out = writer.take();
}

bool
deserializeSnapshot(const std::string &bytes,
                    std::shared_ptr<const SimInput> input,
                    Snapshot &snap)
{
    if (!input)
        return false;
    snap.input = std::move(input);
    FieldReader reader(bytes, snap.input->trace());
    snap.fields(reader);
    return reader.done();
}

} // namespace dynaspam::sim
