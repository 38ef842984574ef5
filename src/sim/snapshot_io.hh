/**
 * @file
 * On-disk (de)serialization of sim::Snapshot.
 *
 * A Snapshot is an in-memory deep copy of a paused simulation; this
 * layer turns it into a platform-stable byte string so a warmed prefix
 * survives process restarts and can ship to cluster workers. The body
 * is Snapshot::fields() walked recursively: each component's State
 * lists its members once (common/fields.hh), and a generic writer and
 * reader encode whatever the lists name. Four rules keep the encoding
 * honest:
 *
 *  - Every scalar is written explicitly little-endian at its declared
 *    width (common/binio.hh); no struct is ever memcpy'd whole, so
 *    padding and ABI never leak in.
 *  - Unordered containers are sorted by key before writing, so the same
 *    state always produces the same bytes; a shared FabricConfig is
 *    written once and later referenced by a dense id.
 *  - Raw pointers inside the saved pipeline state (StaticInst/DynRecord
 *    in DynInst) are not in any field list: they are re-derived on load
 *    from the trace index against the SimInput the caller provides,
 *    bounds-checked. An identity hash of the SimInput travels with the
 *    snapshot so a loader never binds state to the wrong input.
 *  - Decoded values the simulator is known to index with unchecked are
 *    checked: container counts against the bytes left, enums against
 *    their range, and each structure's wellFormed() predicate where it
 *    has one (register indices, contiguous ROB seqs, IQ/LSQ seqs
 *    inside the ROB, RAS and T-Cache history depths, fabric ids,
 *    per-config fabric vectors, fabric config routes, page sizes,
 *    session geometry). Table sizes fixed by the restoring
 *    simulation's parameters are not known here: the caller checks
 *    them with Simulation::fits() before restore().
 *
 * Deserialization is fail-soft: corrupt, truncated or semantically
 * invalid bytes return false (degrading to a cache miss / re-warm) and
 * never fatal or invoke UB.
 */

#ifndef DYNASPAM_SIM_SNAPSHOT_IO_HH
#define DYNASPAM_SIM_SNAPSHOT_IO_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/snapshot.hh"

namespace dynaspam::sim
{

/** Bump when the snapshot body encoding changes shape. Mismatched
 *  versions are rejected at load time and fall back to re-warming.
 *  Version 2: the body follows the components' field lists, integers
 *  at their declared widths. Version 3: the CPU's LSQ and store-buffer
 *  line indexes are gone from the body. */
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/**
 * Stable identity hash of a SimInput: program name and code, initial
 * memory contents, the full oracle trace and the functional verdict.
 * Two SimInputs with equal hashes are interchangeable for restore.
 */
std::uint64_t simInputIdentityHash(const SimInput &input);

/** Append the snapshot body (cpu, memory, controller?, verifier?) to
 *  @p out. The SimInput itself is NOT encoded — only state over it. */
void serializeSnapshot(const Snapshot &snap, std::string &out);

/**
 * Decode a snapshot body into @p snap, binding it to @p input (which
 * must be the same logical input the snapshot was captured over —
 * callers compare simInputIdentityHash before calling). Pipeline
 * pointers are re-derived from trace indices against @p input.
 *
 * @return true on success; false on any corruption (snap is then in an
 *         unspecified but safe-to-destroy state, input binding intact)
 */
bool deserializeSnapshot(const std::string &bytes,
                         std::shared_ptr<const SimInput> input,
                         Snapshot &snap);

} // namespace dynaspam::sim

#endif // DYNASPAM_SIM_SNAPSHOT_IO_HH
