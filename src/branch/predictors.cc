#include "branch/predictors.hh"

#include "common/log.hh"

namespace smthill
{

namespace
{

bool
isPow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** 2-bit saturating counter helpers; initial state = weakly taken. */
constexpr std::uint8_t kWeaklyNot = 1;
constexpr std::uint8_t kWeaklyTaken = 2;

void
train(std::uint8_t &ctr, bool taken)
{
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace

BimodalPredictor::BimodalPredictor(std::size_t entries)
    : table(entries, kWeaklyTaken), mask(entries - 1)
{
    if (!isPow2(entries))
        fatal("BimodalPredictor: entries must be a power of two");
}

bool
BimodalPredictor::predict(Addr pc) const
{
    return table[index(pc)] >= 2;
}

void
BimodalPredictor::update(Addr pc, bool taken)
{
    train(table[index(pc)], taken);
}

GsharePredictor::GsharePredictor(std::size_t entries, int history_bits)
    : table(entries, kWeaklyTaken),
      mask(entries - 1),
      histMask((std::uint64_t{1} << history_bits) - 1)
{
    if (!isPow2(entries))
        fatal("GsharePredictor: entries must be a power of two");
    if (history_bits <= 0 || history_bits > 32)
        fatal("GsharePredictor: bad history length");
}

std::size_t
GsharePredictor::index(Addr pc, std::uint64_t hist) const
{
    return ((pc >> 2) ^ hist) & mask;
}

bool
GsharePredictor::predictAndShift(Addr pc)
{
    bool pred = table[index(pc, ghr)] >= 2;
    ghr = ((ghr << 1) | (pred ? 1 : 0)) & histMask;
    return pred;
}

void
GsharePredictor::update(Addr pc, std::uint64_t history_at_predict,
                        bool taken)
{
    train(table[index(pc, history_at_predict)], taken);
}

void
GsharePredictor::repairHistory(std::uint64_t history_at_predict,
                               bool taken)
{
    ghr = ((history_at_predict << 1) | (taken ? 1 : 0)) & histMask;
}

HybridPredictor::HybridPredictor(std::size_t meta_entries,
                                 std::size_t gshare_entries,
                                 std::size_t bimodal_entries)
    : bimodal(bimodal_entries),
      gshare(gshare_entries),
      meta(meta_entries, kWeaklyTaken),
      metaMask(meta_entries - 1)
{
    if (!isPow2(meta_entries))
        fatal("HybridPredictor: meta entries must be a power of two");
}

HybridPredictor::Lookup
HybridPredictor::predict(Addr pc)
{
    Lookup res;
    res.historyAtPredict = gshare.history();
    res.bimodalSaid = bimodal.predict(pc);
    res.gshareSaid = gshare.predictAndShift(pc);
    bool use_gshare = meta[metaIndex(pc)] >= 2;
    res.prediction = use_gshare ? res.gshareSaid : res.bimodalSaid;
    return res;
}

void
HybridPredictor::update(Addr pc, const Lookup &lookup, bool taken)
{
    bimodal.update(pc, taken);
    gshare.update(pc, lookup.historyAtPredict, taken);
    // The chooser trains toward whichever component was right when
    // they disagreed.
    if (lookup.gshareSaid != lookup.bimodalSaid)
        train(meta[metaIndex(pc)], lookup.gshareSaid == taken);
}

void
HybridPredictor::repairHistory(const Lookup &lookup, bool taken)
{
    gshare.repairHistory(lookup.historyAtPredict, taken);
}

Btb::Btb(std::size_t entries, std::size_t ways)
    : sets(entries),
      numSets(entries / ways),
      numWays(ways),
      setMask(entries / ways - 1)
{
    if (ways == 0 || entries % ways != 0)
        fatal("Btb: entries must be a multiple of ways");
    if (!isPow2(numSets))
        fatal("Btb: set count must be a power of two");
}

bool
Btb::lookup(Addr pc, Addr &target)
{
    std::size_t base = setIndex(pc) * numWays;
    for (std::size_t w = 0; w < numWays; ++w) {
        Entry &e = sets[base + w];
        if (e.valid && e.tag == pc) {
            e.lru = ++lruClock;
            target = e.target;
            return true;
        }
    }
    return false;
}

void
Btb::update(Addr pc, Addr target)
{
    std::size_t base = setIndex(pc) * numWays;
    std::size_t victim = 0;
    std::uint32_t oldest = ~std::uint32_t{0};
    for (std::size_t w = 0; w < numWays; ++w) {
        Entry &e = sets[base + w];
        if (e.valid && e.tag == pc) {
            e.target = target;
            e.lru = ++lruClock;
            return;
        }
        if (!e.valid) {
            victim = w;
            oldest = 0;
        } else if (e.lru < oldest) {
            victim = w;
            oldest = e.lru;
        }
    }
    Entry &v = sets[base + victim];
    v.valid = true;
    v.tag = pc;
    v.target = target;
    v.lru = ++lruClock;
}

} // namespace smthill
