/**
 * @file
 * The CPU choice behind startOnOwnCpu(): member k of a group starts
 * k+1 CPUs (by rank in the affinity mask) after its parent's,
 * wrapping around.
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include "sim/cpu_placement.hh"

#ifdef __linux__

using namespace mbus::sim;

namespace {

cpu_set_t
mask(std::initializer_list<int> cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    return set;
}

TEST(CpuPlacement, MembersStartAfterTheParentAndWrap)
{
    const cpu_set_t four = mask({0, 1, 2, 3});
    EXPECT_EQ(ownCpuFor(four, 0, 0), 1);
    EXPECT_EQ(ownCpuFor(four, 0, 2), 3);
    EXPECT_EQ(ownCpuFor(four, 3, 0), 0);
    EXPECT_EQ(ownCpuFor(four, 3, 1), 1);
    // The fourth member lands back on the parent's CPU.
    EXPECT_EQ(ownCpuFor(four, 1, 3), 1);
}

TEST(CpuPlacement, CountsByRankInASparseMask)
{
    const cpu_set_t sparse = mask({2, 5, 7});
    EXPECT_EQ(ownCpuFor(sparse, 5, 0), 7);
    EXPECT_EQ(ownCpuFor(sparse, 5, 1), 2);
    EXPECT_EQ(ownCpuFor(sparse, 7, 0), 2);
    // A parent outside the mask counts from before rank 0.
    EXPECT_EQ(ownCpuFor(sparse, 4, 0), 2);
    EXPECT_EQ(ownCpuFor(sparse, -1, 1), 5);
}

TEST(CpuPlacement, NoChoiceOnFewerThanTwoCpus)
{
    EXPECT_EQ(ownCpuFor(mask({3}), 3, 0), -1);
    EXPECT_EQ(ownCpuFor(mask({}), 0, 0), -1);
}

} // namespace

#endif // __linux__
