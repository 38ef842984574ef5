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

#include "common/binio.hh"
#include "common/fields.hh"
#include "sim/field_codec.hh"

namespace dynaspam::sim
{

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
