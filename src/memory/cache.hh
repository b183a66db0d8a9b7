/**
 * @file
 * Set-associative cache tag array with true-LRU replacement and
 * write-back/write-allocate semantics. Only tags and dirty bits are
 * modeled (no data), which is all a timing simulator needs; the whole
 * array is a value type so it is captured by machine checkpoints.
 */

#ifndef SMTHILL_MEMORY_CACHE_HH
#define SMTHILL_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace smthill
{

/** Geometry and identity of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 2;

    auto operator<=>(const CacheConfig &) const = default;
};

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writebackVictim = false; ///< a dirty line was evicted
};

/** A single cache level (tags + LRU + dirty bits). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing @p addr; allocates on miss.
     * @param addr byte address
     * @param is_write marks the line dirty on a write
     * @return hit/miss and whether a dirty victim was evicted
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** @return true if the line containing @p addr is resident. */
    bool probe(Addr addr) const;

    const CacheConfig &config() const { return cfg; }
    std::uint64_t numSets() const { return sets; }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t writebacks() const { return writebackCount; }

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheConfig cfg;
    std::uint64_t sets;
    std::uint32_t lineShift;
    std::vector<Line> lines; ///< sets * ways, row-major
    std::uint64_t lruClock = 0;

    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t writebackCount = 0;
};

} // namespace smthill

#endif // SMTHILL_MEMORY_CACHE_HH
