/**
 * @file
 * The three-level memory system of Table 1: per-core IL1 and DL1,
 * a unified L2, and a fixed-latency DRAM model (300-cycle first
 * chunk). Table 1's +6-cycle inter-chunk term is not modelled: an
 * access waits for its critical word only. Accesses return that
 * latency and the level that serviced them.
 */

#ifndef SMTHILL_MEMORY_HIERARCHY_HH
#define SMTHILL_MEMORY_HIERARCHY_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "memory/cache.hh"

namespace smthill
{

/** Which level serviced an access. */
enum class MemLevel : std::uint8_t { L1, L2, Memory };

/** Latency and geometry parameters (defaults = Table 1). */
struct MemoryConfig
{
    CacheConfig il1{"il1", 64 * 1024, 64, 2};
    CacheConfig dl1{"dl1", 64 * 1024, 64, 2};
    CacheConfig ul2{"ul2", 1024 * 1024, 64, 4};
    Cycle l1Latency = 1;
    Cycle l2Latency = 20;
    Cycle memFirstChunk = 300;

    auto operator<=>(const MemoryConfig &) const = default;
};

/** Outcome of a data or instruction access. */
struct MemAccessResult
{
    Cycle latency = 1;
    MemLevel level = MemLevel::L1;
};

/** Maximum thread count the per-thread statistics arrays support. */
inline constexpr int kMaxThreads = 8;

/**
 * The full hierarchy. Value semantics: copying a MemoryHierarchy
 * snapshots tag state and statistics, so machine checkpoints restore
 * cache contents exactly.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryConfig &config = MemoryConfig{});

    /**
     * Instruction fetch access for one cache line.
     * @param tid requesting thread (statistics)
     * @param pc fetch address
     */
    MemAccessResult instAccess(ThreadId tid, Addr pc);

    /**
     * Data access (load or store).
     * @param tid requesting thread (statistics)
     * @param addr effective address
     * @param is_write store vs load
     */
    MemAccessResult dataAccess(ThreadId tid, Addr addr, bool is_write);

    const MemoryConfig &config() const { return cfg; }
    const Cache &il1() const { return il1Cache; }
    const Cache &dl1() const { return dl1Cache; }
    const Cache &ul2() const { return ul2Cache; }

    /** DL1 misses by @p tid since construction (DCRA's monitor). */
    std::uint64_t dl1Misses(ThreadId tid) const
    {
        return dl1MissCount.at(tid);
    }

    /** L2 misses (to memory) by @p tid since construction. */
    std::uint64_t l2Misses(ThreadId tid) const
    {
        return l2MissCount.at(tid);
    }

  private:
    /** DRAM latency to the critical word (the first chunk). */
    Cycle memLatency() const { return cfg.memFirstChunk; }

    MemoryConfig cfg;
    Cache il1Cache;
    Cache dl1Cache;
    Cache ul2Cache;
    std::array<std::uint64_t, kMaxThreads> dl1MissCount{};
    std::array<std::uint64_t, kMaxThreads> l2MissCount{};
};

} // namespace smthill

#endif // SMTHILL_MEMORY_HIERARCHY_HH
