/**
 * @file
 * Functional executor implementation.
 */

#include "isa/executor.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "memory/functional_mem.hh"

namespace dynaspam::isa
{

double
ArchRegFile::readF(RegIndex reg) const
{
    return std::bit_cast<double>(read(reg));
}

void
ArchRegFile::writeF(RegIndex reg, double value)
{
    write(reg, std::bit_cast<std::uint64_t>(value));
}

namespace
{

std::int64_t
asSigned(std::uint64_t v)
{
    return std::bit_cast<std::int64_t>(v);
}

std::uint64_t
asUnsigned(std::int64_t v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // namespace

ExecResult
Executor::run(const Program &program, mem::FunctionalMemory &memory,
              DynamicTrace *trace, std::uint64_t max_insts)
{
    ExecResult result;
    ArchRegFile &regs = result.regs;

    InstAddr pc = 0;
    while (result.instCount < max_insts) {
        if (pc >= program.size())
            fatal("PC ", pc, " out of bounds in program '", program.name(),
                  "' (size ", program.size(), ")");

        const StaticInst &inst = program.inst(pc);
        DynRecord rec;
        rec.pc = pc;
        InstAddr next_pc = pc + 1;

        auto r = [&](RegIndex reg) { return regs.read(reg); };
        auto rf = [&](RegIndex reg) { return regs.readF(reg); };
        auto w = [&](std::uint64_t v) { regs.write(inst.dest, v); };
        auto wf = [&](double v) { regs.writeF(inst.dest, v); };

        switch (inst.op) {
          case Opcode::NOP:
            break;
          case Opcode::ADD:
            w(r(inst.src1) + r(inst.src2));
            break;
          case Opcode::SUB:
            w(r(inst.src1) - r(inst.src2));
            break;
          case Opcode::AND:
            w(r(inst.src1) & r(inst.src2));
            break;
          case Opcode::OR:
            w(r(inst.src1) | r(inst.src2));
            break;
          case Opcode::XOR:
            w(r(inst.src1) ^ r(inst.src2));
            break;
          case Opcode::SHL:
            w(r(inst.src1) << (r(inst.src2) & 63));
            break;
          case Opcode::SHR:
            w(r(inst.src1) >> (r(inst.src2) & 63));
            break;
          case Opcode::SLT:
            w(asSigned(r(inst.src1)) < asSigned(r(inst.src2)) ? 1 : 0);
            break;
          case Opcode::SLTU:
            w(r(inst.src1) < r(inst.src2) ? 1 : 0);
            break;
          case Opcode::MIN:
            w(asSigned(r(inst.src1)) < asSigned(r(inst.src2))
                  ? r(inst.src1)
                  : r(inst.src2));
            break;
          case Opcode::MAX:
            w(asSigned(r(inst.src1)) > asSigned(r(inst.src2))
                  ? r(inst.src1)
                  : r(inst.src2));
            break;
          case Opcode::ADDI:
            w(r(inst.src1) + asUnsigned(inst.imm));
            break;
          case Opcode::ANDI:
            w(r(inst.src1) & asUnsigned(inst.imm));
            break;
          case Opcode::ORI:
            w(r(inst.src1) | asUnsigned(inst.imm));
            break;
          case Opcode::XORI:
            w(r(inst.src1) ^ asUnsigned(inst.imm));
            break;
          case Opcode::SHLI:
            w(r(inst.src1) << (inst.imm & 63));
            break;
          case Opcode::SHRI:
            w(r(inst.src1) >> (inst.imm & 63));
            break;
          case Opcode::SLTI:
            w(asSigned(r(inst.src1)) < inst.imm ? 1 : 0);
            break;
          case Opcode::MOVI:
            w(asUnsigned(inst.imm));
            break;
          case Opcode::MOV:
            w(r(inst.src1));
            break;
          case Opcode::MUL:
            // Unsigned: wraps mod 2^64 to the two's-complement product,
            // where a signed multiply would overflow.
            w(r(inst.src1) * r(inst.src2));
            break;
          case Opcode::DIV: {
            std::int64_t den = asSigned(r(inst.src2));
            w(den == 0 ? 0 : asUnsigned(asSigned(r(inst.src1)) / den));
            break;
          }
          case Opcode::REM: {
            std::int64_t den = asSigned(r(inst.src2));
            w(den == 0 ? 0 : asUnsigned(asSigned(r(inst.src1)) % den));
            break;
          }
          case Opcode::FADD:
            wf(rf(inst.src1) + rf(inst.src2));
            break;
          case Opcode::FSUB:
            wf(rf(inst.src1) - rf(inst.src2));
            break;
          case Opcode::FMUL:
            wf(rf(inst.src1) * rf(inst.src2));
            break;
          case Opcode::FDIV:
            wf(rf(inst.src1) / rf(inst.src2));
            break;
          case Opcode::FMIN:
            wf(std::fmin(rf(inst.src1), rf(inst.src2)));
            break;
          case Opcode::FMAX:
            wf(std::fmax(rf(inst.src1), rf(inst.src2)));
            break;
          case Opcode::FNEG:
            wf(-rf(inst.src1));
            break;
          case Opcode::FABS:
            wf(std::fabs(rf(inst.src1)));
            break;
          case Opcode::FSQRT:
            wf(std::sqrt(rf(inst.src1)));
            break;
          case Opcode::FCLT:
            w(rf(inst.src1) < rf(inst.src2) ? 1 : 0);
            break;
          case Opcode::CVTIF:
            wf(double(asSigned(r(inst.src1))));
            break;
          case Opcode::CVTFI:
            w(asUnsigned(std::int64_t(rf(inst.src1))));
            break;
          case Opcode::FMOVI:
            w(asUnsigned(inst.imm));
            break;
          case Opcode::LD:
          case Opcode::FLD: {
            rec.effAddr = r(inst.src1) + asUnsigned(inst.imm);
            w(memory.read64(rec.effAddr));
            break;
          }
          case Opcode::ST:
          case Opcode::FST: {
            rec.effAddr = r(inst.src1) + asUnsigned(inst.imm);
            memory.write64(rec.effAddr, r(inst.src2));
            break;
          }
          case Opcode::BEQ:
            rec.taken = r(inst.src1) == r(inst.src2);
            if (rec.taken)
                next_pc = InstAddr(inst.imm);
            break;
          case Opcode::BNE:
            rec.taken = r(inst.src1) != r(inst.src2);
            if (rec.taken)
                next_pc = InstAddr(inst.imm);
            break;
          case Opcode::BLT:
            rec.taken = asSigned(r(inst.src1)) < asSigned(r(inst.src2));
            if (rec.taken)
                next_pc = InstAddr(inst.imm);
            break;
          case Opcode::BGE:
            rec.taken = asSigned(r(inst.src1)) >= asSigned(r(inst.src2));
            if (rec.taken)
                next_pc = InstAddr(inst.imm);
            break;
          case Opcode::JMP:
            rec.taken = true;
            next_pc = InstAddr(inst.imm);
            break;
          case Opcode::CALL:
            rec.taken = true;
            w(pc + 1);
            next_pc = InstAddr(inst.imm);
            break;
          case Opcode::RET:
            rec.taken = true;
            next_pc = InstAddr(r(inst.src1));
            break;
          case Opcode::HALT:
            result.halted = true;
            break;
          default:
            panic("unhandled opcode ", int(inst.op));
        }

        rec.nextPc = next_pc;
        if (trace)
            trace->append(rec);
        result.instCount++;

        if (result.halted)
            return result;
        pc = next_pc;
    }

    fatal("program '", program.name(), "' exceeded ", max_insts,
          " instructions without halting");
}

} // namespace dynaspam::isa
