/**
 * @file
 * Little-endian binary (de)serialization primitives for on-disk state.
 *
 * Snapshots must be byte-stable across platforms and compiler versions,
 * so nothing here ever memcpys a whole struct (padding would leak in):
 * every field is written explicitly through fixed-width little-endian
 * encoders. The Reader is fail-soft: any overrun sets a sticky failure
 * flag and yields zeros, so deserializers can decode straight through
 * and check ok() once at the end — corrupt input degrades to a cache
 * miss, never UB.
 */

#ifndef DYNASPAM_COMMON_BINIO_HH
#define DYNASPAM_COMMON_BINIO_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace dynaspam::binio
{

/** Appends little-endian fields to a growing byte string. */
class Writer
{
  public:
    void
    u8(std::uint8_t value)
    {
        buf.push_back(char(value));
    }

    void
    u16(std::uint16_t value)
    {
        u8(std::uint8_t(value));
        u8(std::uint8_t(value >> 8));
    }

    void
    u32(std::uint32_t value)
    {
        unsigned char tmp[4];
        bits::storeLE32(value, tmp);
        buf.append(reinterpret_cast<const char *>(tmp), 4);
    }

    void
    u64(std::uint64_t value)
    {
        unsigned char tmp[8];
        bits::storeLE64(value, tmp);
        buf.append(reinterpret_cast<const char *>(tmp), 8);
    }

    void b(bool value) { u8(value ? 1 : 0); }

    /** Length-prefixed byte string (u32 length + raw bytes). */
    void
    str(std::string_view value)
    {
        u32(std::uint32_t(value.size()));
        buf.append(value.data(), value.size());
    }

    /** Raw bytes, no length prefix (caller wrote the count already). */
    void
    raw(const void *data, std::size_t size)
    {
        if (size)
            buf.append(static_cast<const char *>(data), size);
    }

    const std::string &bytes() const { return buf; }
    std::string take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    std::string buf;
};

/**
 * Fail-soft reader over a byte buffer. Overruns latch the failure flag
 * and return zero values; callers decode unconditionally and test ok()
 * at the top level.
 */
class Reader
{
  public:
    Reader(const char *data, std::size_t size) : ptr(data), len(size) {}
    explicit Reader(std::string_view bytes)
        : Reader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return std::uint8_t(ptr[pos++]);
    }

    std::uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        std::uint16_t value = std::uint16_t(
            std::uint8_t(ptr[pos]) | (std::uint8_t(ptr[pos + 1]) << 8));
        pos += 2;
        return value;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t value = bits::loadLE32(
            reinterpret_cast<const unsigned char *>(ptr + pos));
        pos += 4;
        return value;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t value = bits::loadLE64(
            reinterpret_cast<const unsigned char *>(ptr + pos));
        pos += 8;
        return value;
    }

    bool b() { return u8() != 0; }

    std::string
    str()
    {
        std::uint32_t size = u32();
        if (!need(size))
            return {};
        std::string value(ptr + pos, size);
        pos += size;
        return value;
    }

    /** Copy @p size raw bytes into @p out (zero-fills on overrun). */
    void
    raw(void *out, std::size_t size)
    {
        if (size == 0)
            return;     // out may be null (an empty vector's data())
        if (!need(size)) {
            std::memset(out, 0, size);
            return;
        }
        std::memcpy(out, ptr + pos, size);
        pos += size;
    }

    /**
     * Validate a just-read element count against the bytes remaining
     * (each element needs at least @p elem_min_bytes). A corrupt count
     * fails the stream instead of driving a giant allocation.
     */
    bool
    checkCount(std::uint64_t count, std::size_t elem_min_bytes)
    {
        std::size_t min = std::size_t(elem_min_bytes ? elem_min_bytes : 1);
        if (count > remaining() / min) {
            failed = true;
            return false;
        }
        return true;
    }

    std::size_t remaining() const { return failed ? 0 : len - pos; }
    bool ok() const { return !failed; }
    /** Force the stream into the failed state (semantic errors). */
    void fail() { failed = true; }

  private:
    bool
    need(std::size_t size)
    {
        if (failed || len - pos < size) {
            failed = true;
            return false;
        }
        return true;
    }

    const char *ptr;
    std::size_t len;
    std::size_t pos = 0;
    bool failed = false;
};

} // namespace dynaspam::binio

#endif // DYNASPAM_COMMON_BINIO_HH
