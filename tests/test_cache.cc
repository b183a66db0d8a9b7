/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "memory/cache.hh"

namespace smthill
{
namespace
{

CacheConfig
smallCache()
{
    return CacheConfig{"t", 1024, 64, 2}; // 8 sets, 2 ways
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit)
{
    Cache c(smallCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103f, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit) << "next line is distinct";
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c(smallCache()); // 2 ways
    Addr set_stride = 8 * 64; // 8 sets
    Addr a = 0x0, b = a + set_stride, d = a + 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(d, false); // evicts a (LRU)
    EXPECT_FALSE(c.access(a, false).hit);
    EXPECT_TRUE(c.access(d, false).hit);
}

TEST(Cache, AccessRefreshesLru)
{
    Cache c(smallCache());
    Addr set_stride = 8 * 64;
    Addr a = 0x0, b = a + set_stride, d = a + 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // a becomes MRU
    c.access(d, false); // evicts b
    EXPECT_TRUE(c.access(a, false).hit);
    EXPECT_FALSE(c.access(b, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(smallCache());
    Addr set_stride = 8 * 64;
    c.access(0x0, true); // dirty
    c.access(0x0 + set_stride, false);
    auto res = c.access(0x0 + 2 * set_stride, false); // evicts dirty
    EXPECT_TRUE(res.writebackVictim);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c(smallCache());
    Addr set_stride = 8 * 64;
    c.access(0x0, false);
    c.access(0x0 + set_stride, false);
    auto res = c.access(0x0 + 2 * set_stride, false);
    EXPECT_FALSE(res.writebackVictim);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(smallCache());
    Addr set_stride = 8 * 64;
    c.access(0x0, false);  // clean fill
    c.access(0x0, true);   // write hit -> dirty
    c.access(0x0 + set_stride, false);
    auto res = c.access(0x0 + 2 * set_stride, false);
    EXPECT_TRUE(res.writebackVictim);
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_EQ(c.misses(), 0u);
    c.access(0x1000, false);
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(Cache, CapacityIsRespected)
{
    Cache c(smallCache()); // 16 lines total
    for (Addr a = 0; a < 17 * 64; a += 64)
        c.access(a, false);
    int resident = 0;
    for (Addr a = 0; a < 17 * 64; a += 64)
        resident += c.probe(a);
    EXPECT_LE(resident, 16);
}

TEST(Cache, Table1GeometriesConstruct)
{
    Cache il1(CacheConfig{"il1", 64 * 1024, 64, 2});
    Cache dl1(CacheConfig{"dl1", 64 * 1024, 64, 2});
    Cache ul2(CacheConfig{"ul2", 1024 * 1024, 64, 4});
    EXPECT_EQ(il1.numSets(), 512u);
    EXPECT_EQ(ul2.numSets(), 4096u);
}

TEST(Cache, CopyPreservesContents)
{
    Cache c(smallCache());
    c.access(0x40, true);
    Cache copy = c;
    EXPECT_TRUE(copy.probe(0x40));
    // Mutating the copy must not affect the original.
    Addr set_stride = 8 * 64;
    copy.access(0x40 + set_stride, false);
    copy.access(0x40 + 2 * set_stride, false);
    EXPECT_FALSE(copy.probe(0x40));
    EXPECT_TRUE(c.probe(0x40));
}

} // namespace
} // namespace smthill
