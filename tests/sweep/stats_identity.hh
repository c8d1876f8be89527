/**
 * @file
 * The replay tests' shared identity check: two runs of a cell agree
 * iff their encodeStats() bytes do. The codec carries every
 * ScenarioStats field (sweep/schema.hh), so this covers fields a
 * hand-written comparator would have to remember, doubles bit for
 * bit.
 */

#ifndef MBUS_TESTS_SWEEP_STATS_IDENTITY_HH
#define MBUS_TESTS_SWEEP_STATS_IDENTITY_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sweep/codec.hh"

namespace mbus {
namespace test {

/** The '|'-separated token of @p bytes that contains offset @p at. */
inline std::string
tokenAt(const std::string &bytes, std::size_t at)
{
    std::size_t start = at == 0 ? 0 : bytes.rfind('|', at - 1) + 1;
    return bytes.substr(start, bytes.find('|', at) - start);
}

inline void
expectIdenticalStats(const sweep::ScenarioStats &a,
                     const sweep::ScenarioStats &b)
{
    EXPECT_EQ(a.vcd, b.vcd) << "VCD waveform bytes diverged";
    const std::string ea = sweep::encodeStats(a);
    const std::string eb = sweep::encodeStats(b);
    if (ea == eb)
        return;
    auto diff = std::mismatch(ea.begin(), ea.end(), eb.begin(), eb.end());
    auto at = static_cast<std::size_t>(diff.first - ea.begin());
    ADD_FAILURE() << "stats diverged at stat1 token "
                  << std::count(ea.begin(), diff.first, '|') << ": "
                  << tokenAt(ea, at) << " vs " << tokenAt(eb, at);
}

} // namespace test
} // namespace mbus

#endif // MBUS_TESTS_SWEEP_STATS_IDENTITY_HH
