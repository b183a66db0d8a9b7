#include "memory/cache.hh"

#include "common/log.hh"

namespace smthill
{

namespace
{

std::uint32_t
log2Exact(std::uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        fatal(msg("cache: ", what, " must be a power of two"));
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v)
        ++s;
    return s;
}

} // namespace

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    if (cfg.ways == 0)
        fatal("cache: ways must be positive");
    std::uint64_t total_lines = cfg.sizeBytes / cfg.lineBytes;
    if (total_lines == 0 || total_lines % cfg.ways != 0)
        fatal(msg("cache ", cfg.name, ": size/line/ways mismatch"));
    sets = total_lines / cfg.ways;
    log2Exact(sets, "set count");
    lineShift = log2Exact(cfg.lineBytes, "line size");
    lines.assign(sets * cfg.ways, Line{});
}

std::uint64_t
Cache::setOf(Addr addr) const
{
    return (addr >> lineShift) & (sets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    CacheAccessResult res;
    std::uint64_t base = setOf(addr) * cfg.ways;
    Addr tag = tagOf(addr);

    std::uint64_t victim = base;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag) {
            line.lru = ++lruClock;
            line.dirty = line.dirty || is_write;
            ++hitCount;
            res.hit = true;
            return res;
        }
        if (!line.valid) {
            victim = base + w;
            oldest = 0;
        } else if (line.lru < oldest) {
            victim = base + w;
            oldest = line.lru;
        }
    }

    ++missCount;
    Line &v = lines[victim];
    if (v.valid && v.dirty) {
        ++writebackCount;
        res.writebackVictim = true;
    }
    v.valid = true;
    v.tag = tag;
    v.dirty = is_write;
    v.lru = ++lruClock;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    std::uint64_t base = setOf(addr) * cfg.ways;
    Addr tag = tagOf(addr);
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        const Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

} // namespace smthill
