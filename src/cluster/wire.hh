/**
 * @file
 * Length-prefixed frame protocol between the cluster coordinator and
 * its workers.
 *
 * Every frame is an 8-byte header followed by a JSON payload:
 *
 *     byte 0..1  magic "DS"
 *     byte 2     protocol version (kWireVersion)
 *     byte 3     frame type (FrameType)
 *     byte 4..7  payload length, little-endian u32
 *
 * The byte order is pinned (bits::storeLE32/loadLE32) so the encoding
 * is identical on every platform. Payload length is capped at
 * kMaxFramePayload: a corrupted or hostile length field is rejected as
 * Bad before any allocation, so a garbage frame can neither balloon
 * memory nor crash the peer.
 *
 * Frame flow:
 *
 *     worker -> coordinator   Hello  {"protocol": 2, "token": "..."}
 *     coordinator -> worker   Welcome {"slot": N, "slots": M}
 *
 * The Hello "token" field is optional: a worker sends it when started
 * with --cluster-token, and a coordinator configured with a token
 * requires a matching one before granting a slot (a mismatch drops the
 * connection without a Welcome). The token is never logged on either
 * side and never appears in /metrics.
 *     coordinator -> worker   Batch  {"id": n, "jobs": [jobToJson...]}
 *     worker -> coordinator   ResultRaw (binary, successful batches)
 *     worker -> coordinator   Result {"id": n, "error": "..."}
 *     coordinator -> worker   Ping   {"tick": n}
 *     worker -> coordinator   Pong   {"tick": n, "queued": q,
 *                                     "evictions": e}
 *     coordinator -> worker   Lookup {"id": n, "hash": "<16 hex>"}
 *     worker -> coordinator   ResultRaw with 0 entries (unknown hash)
 *                             or 1 (the memo or cache entry)
 *     coordinator -> worker   Goodbye {}
 *
 * Successful results use the binary ResultRaw payload (encodeResultRaw)
 * carrying each sweep-report entry as a pre-serialized fragment
 * (runner::sweepEntryJson rendered by json::Value::dumpAt at the
 * report's nesting depth). The coordinator splices the fragments into
 * the merged report via json::Raw without parsing — cache-hot entries
 * are serialized once at the owning worker, then only memcpy'd — and
 * the result is still byte-identical to a single-process report.
 *
 * Decoding is incremental (NeedMore / Ok / Bad) over a caller-owned
 * byte buffer, the same shape as the HTTP parser: both the epoll
 * coordinator and the blocking worker accumulate bytes and decode in a
 * loop, erasing consumed bytes on Ok.
 */

#ifndef DYNASPAM_CLUSTER_WIRE_HH
#define DYNASPAM_CLUSTER_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dynaspam::cluster
{

/** Wire protocol version; Hello/Welcome reject mismatches. */
inline constexpr std::uint8_t kWireVersion = 2;

/** Hard cap on one frame's payload (a full sweep report fits easily). */
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

/** Frame types (byte 3 of the header). */
enum class FrameType : std::uint8_t
{
    Hello = 1,   ///< worker -> coordinator: join the cluster
    Welcome,     ///< coordinator -> worker: slot assignment
    Batch,       ///< coordinator -> worker: execute a job batch
    Result,      ///< worker -> coordinator: batch error (JSON)
    Ping,        ///< coordinator -> worker: health probe
    Pong,        ///< worker -> coordinator: health reply + gauges
    ResultRaw,   ///< worker -> coordinator: batch entries (binary)
    Goodbye,     ///< coordinator -> worker: orderly shutdown, don't
                 ///< reconnect (a plain EOF means "coordinator lost,
                 ///< retry with backoff")
    Lookup,      ///< coordinator -> worker: a finished job by hash
                 ///< (GET /results/<hash>); answered at once, between
                 ///< job executions, like a Ping
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Hello;
    std::string payload;
};

/** Outcome of one incremental decode attempt. */
enum class DecodeOutcome
{
    NeedMore,  ///< no complete frame in the buffer yet
    Ok,        ///< one frame decoded; @p consumed bytes were used
    Bad,       ///< bad magic/version/type/length -> drop the connection
};

/** Encode one frame (header + payload) into wire bytes. */
std::string encodeFrame(FrameType type, const std::string &payload);

/**
 * Try to decode one frame from the front of @p buf. Does not modify
 * @p buf; on Ok, @p consumed is the frame's total size (the caller
 * erases those bytes). Bad means the stream is unrecoverable — close
 * the connection.
 */
DecodeOutcome decodeFrame(const std::string &buf, Frame &out,
                          std::size_t &consumed);

/**
 * Nesting depth of a sweep-report entry inside the report document
 * (root object -> "results" array -> entry), and the report's indent
 * width. RawEntry fragments must be rendered with
 * json::Value::dumpAt(kReportIndent, kEntryFragmentDepth) so splicing
 * them via json::Raw reproduces a natively serialized report byte for
 * byte.
 */
inline constexpr unsigned kReportIndent = 2;
inline constexpr unsigned kEntryFragmentDepth = 2;

/** One entry of a decoded ResultRaw payload. */
struct RawEntry
{
    bool fromCache = false;
    /** sweepEntryJson bytes, pre-rendered at the report's depth. */
    std::string fragment;
    /** The worker simulated the job for this batch (not a replay from
     *  its memo or cache); the two counts below are then set. */
    bool executed = false;
    std::uint64_t hostNanos = 0;    ///< host time the simulation took
    std::uint64_t insts = 0;        ///< instructions it committed
};

/**
 * Encode a ResultRaw payload:
 *
 *     byte 0..7   batch id, little-endian u64
 *     byte 8..11  entry count, little-endian u32
 *     per entry:  u8 flags (bit 0 from_cache, bit 1 executed),
 *                 LE u64 host nanoseconds, LE u64 committed insts,
 *                 LE u32 length, fragment bytes
 *
 * @return the payload only; pass it through encodeFrame(ResultRaw).
 */
std::string encodeResultRaw(std::uint64_t id,
                            const std::vector<RawEntry> &entries);

/**
 * Decode a ResultRaw payload produced by encodeResultRaw.
 * @return false when the payload is truncated or inconsistent (the
 * caller should drop the connection, as with DecodeOutcome::Bad)
 */
bool decodeResultRaw(const std::string &payload, std::uint64_t &id,
                     std::vector<RawEntry> &entries);

/**
 * Shard ownership: map a job's FNV-1a @p hash to one of @p slots
 * hash-space partitions (multiply-shift, no modulo bias). Stable for a
 * fixed slot count — the basis of shard-local cache locality.
 * @p slots must be >= 1.
 */
unsigned ownerSlot(std::uint64_t hash, unsigned slots);

/**
 * Clamped exponential backoff: `base_ms << (attempts - 1)`, except the
 * shift exponent is capped so it can never reach the width of the type
 * (a plain shift by >= 64 is undefined behaviour) and the resulting
 * delay saturates at @p cap_ms. attempts == 0 is treated as 1.
 * Used by coordinator batch retries and worker reconnects alike.
 */
std::uint64_t retryBackoffDelayMs(std::uint64_t base_ms,
                                  unsigned attempts,
                                  std::uint64_t cap_ms);

} // namespace dynaspam::cluster

#endif // DYNASPAM_CLUSTER_WIRE_HH
