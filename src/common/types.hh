/**
 * @file
 * Fundamental scalar types and enums shared across the simulator.
 */

#ifndef SMTHILL_COMMON_TYPES_HH
#define SMTHILL_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace smthill
{

/** Simulated processor cycle count. */
using Cycle = std::uint64_t;

/** Per-thread dynamic instruction sequence number (starts at 0). */
using InstSeq = std::uint64_t;

/** Hardware context (thread) index within the SMT core. */
using ThreadId = std::uint32_t;

/** Synthetic program counter (byte address of an instruction). */
using Addr = std::uint64_t;

/** A cycle value that will never be reached; used as "not scheduled". */
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/**
 * Functional classes of synthetic instructions. The class determines
 * which functional-unit pool an instruction issues to, its execution
 * latency, and which shared resources it occupies.
 */
enum class OpClass : std::uint8_t
{
    IntAlu,   ///< single-cycle integer op (add, logic, compare)
    IntMul,   ///< integer multiply/divide
    FpAlu,    ///< floating-point add/compare/convert
    FpMul,    ///< floating-point multiply/divide/sqrt
    Load,     ///< memory read (int or fp destination)
    Store,    ///< memory write
    Branch    ///< conditional or unconditional control transfer
};

/** Number of distinct OpClass values. */
inline constexpr int kNumOpClasses = 7;

/** @return a short printable mnemonic for an op class. */
constexpr const char *
opClassName(OpClass oc)
{
    switch (oc) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMul: return "IntMul";
      case OpClass::FpAlu:  return "FpAlu";
      case OpClass::FpMul:  return "FpMul";
      case OpClass::Load:   return "Load";
      case OpClass::Store:  return "Store";
      case OpClass::Branch: return "Branch";
    }
    return "?";
}

/** @return true if the op produces a floating-point register result. */
inline bool
isFpOp(OpClass oc)
{
    return oc == OpClass::FpAlu || oc == OpClass::FpMul;
}

/** @return true if the op accesses data memory. */
inline bool
isMemOp(OpClass oc)
{
    return oc == OpClass::Load || oc == OpClass::Store;
}

} // namespace smthill

#endif // SMTHILL_COMMON_TYPES_HH
