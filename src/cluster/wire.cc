#include "cluster/wire.hh"

#include "common/logging.hh"
#include "common/types.hh"

namespace dynaspam::cluster
{

namespace
{

constexpr std::size_t kHeaderSize = 8;

/** Fixed bytes before each ResultRaw fragment: flags, nanos, insts,
 *  length. */
constexpr std::size_t kEntryHeaderSize = 1 + 8 + 8 + 4;

constexpr unsigned char kFlagFromCache = 1;
constexpr unsigned char kFlagExecuted = 2;

bool
validType(std::uint8_t type)
{
    return type >= std::uint8_t(FrameType::Hello) &&
           type <= std::uint8_t(FrameType::Lookup);
}

} // namespace

std::string
encodeFrame(FrameType type, const std::string &payload)
{
    if (payload.size() > kMaxFramePayload)
        panic("wire: frame payload of ", payload.size(),
              " bytes exceeds the ", kMaxFramePayload, " byte cap");

    std::string out;
    out.reserve(kHeaderSize + payload.size());
    out.push_back('D');
    out.push_back('S');
    out.push_back(char(kWireVersion));
    out.push_back(char(std::uint8_t(type)));
    unsigned char len[4];
    bits::storeLE32(std::uint32_t(payload.size()), len);
    out.append(reinterpret_cast<const char *>(len), 4);
    out.append(payload);
    return out;
}

DecodeOutcome
decodeFrame(const std::string &buf, Frame &out, std::size_t &consumed)
{
    consumed = 0;
    if (buf.size() < kHeaderSize)
        return DecodeOutcome::NeedMore;

    const unsigned char *raw =
        reinterpret_cast<const unsigned char *>(buf.data());
    if (raw[0] != 'D' || raw[1] != 'S')
        return DecodeOutcome::Bad;
    if (raw[2] != kWireVersion)
        return DecodeOutcome::Bad;
    if (!validType(raw[3]))
        return DecodeOutcome::Bad;
    std::uint32_t len = bits::loadLE32(raw + 4);
    if (len > kMaxFramePayload)
        return DecodeOutcome::Bad;

    if (buf.size() < kHeaderSize + len)
        return DecodeOutcome::NeedMore;

    out.type = FrameType(raw[3]);
    out.payload = buf.substr(kHeaderSize, len);
    consumed = kHeaderSize + len;
    return DecodeOutcome::Ok;
}

std::string
encodeResultRaw(std::uint64_t id, const std::vector<RawEntry> &entries)
{
    std::size_t total = 12;
    for (const RawEntry &entry : entries)
        total += kEntryHeaderSize + entry.fragment.size();

    std::string out;
    out.reserve(total);
    unsigned char scratch[8];
    bits::storeLE64(id, scratch);
    out.append(reinterpret_cast<const char *>(scratch), 8);
    bits::storeLE32(std::uint32_t(entries.size()), scratch);
    out.append(reinterpret_cast<const char *>(scratch), 4);
    for (const RawEntry &entry : entries) {
        out.push_back(char((entry.fromCache ? kFlagFromCache : 0) |
                           (entry.executed ? kFlagExecuted : 0)));
        bits::storeLE64(entry.hostNanos, scratch);
        out.append(reinterpret_cast<const char *>(scratch), 8);
        bits::storeLE64(entry.insts, scratch);
        out.append(reinterpret_cast<const char *>(scratch), 8);
        bits::storeLE32(std::uint32_t(entry.fragment.size()), scratch);
        out.append(reinterpret_cast<const char *>(scratch), 4);
        out.append(entry.fragment);
    }
    return out;
}

bool
decodeResultRaw(const std::string &payload, std::uint64_t &id,
                std::vector<RawEntry> &entries)
{
    const unsigned char *raw =
        reinterpret_cast<const unsigned char *>(payload.data());
    if (payload.size() < 12)
        return false;
    id = bits::loadLE64(raw);
    const std::uint32_t count = bits::loadLE32(raw + 8);
    // Each entry needs at least its fixed header: an implausible count
    // is rejected before the reserve below can balloon memory.
    if (std::size_t(count) * kEntryHeaderSize > payload.size())
        return false;

    entries.clear();
    entries.reserve(count);
    std::size_t pos = 12;
    for (std::uint32_t i = 0; i < count; i++) {
        if (payload.size() - pos < kEntryHeaderSize)
            return false;
        const unsigned char flags = raw[pos];
        if (flags & ~(kFlagFromCache | kFlagExecuted))
            return false;
        RawEntry entry;
        entry.fromCache = flags & kFlagFromCache;
        entry.executed = flags & kFlagExecuted;
        entry.hostNanos = bits::loadLE64(raw + pos + 1);
        entry.insts = bits::loadLE64(raw + pos + 9);
        const std::uint32_t len = bits::loadLE32(raw + pos + 17);
        pos += kEntryHeaderSize;
        if (payload.size() - pos < len)
            return false;
        entry.fragment = payload.substr(pos, len);
        pos += len;
        entries.push_back(std::move(entry));
    }
    return pos == payload.size();
}

unsigned
ownerSlot(std::uint64_t hash, unsigned slots)
{
    if (slots == 0)
        panic("wire: ownerSlot with zero slots");
    return unsigned((unsigned __int128)(hash)*slots >> 64);
}

std::uint64_t
retryBackoffDelayMs(std::uint64_t base_ms, unsigned attempts,
                    std::uint64_t cap_ms)
{
    if (attempts == 0)
        attempts = 1;
    // 2^63 ms is ~292 million years; any exponent past that is already
    // saturated, and capping it keeps the shift well-defined.
    const unsigned shift = attempts - 1 < 63u ? attempts - 1 : 63u;
    std::uint64_t delay = base_ms;
    // Saturating doubling instead of one big shift: base << shift could
    // itself overflow for large bases even with a legal exponent.
    for (unsigned i = 0; i < shift; i++) {
        if (delay > cap_ms)
            break;
        delay *= 2;
    }
    return delay < cap_ms ? delay : cap_ms;
}

} // namespace dynaspam::cluster
