#include "hostspeed.hh"

#include <algorithm>
#include <functional>

#include "spans.hh"

namespace perfbench {

namespace {

/** Steps in one reference chunk (about 2 ms on the nominal host). */
constexpr int kChunkSteps = 16000;

/** The chunk time of the nominal host. It only fixes the scale of the
 *  reported timings; a shared 4-vCPU x86-64 VM (GCC 12, -O3) took
 *  2.4-2.9 ms per chunk. */
constexpr double kNominalChunkS = 2.0e-3;

/** tick() runs a chunk at most this often: 2% of a pass. */
constexpr double kTickIntervalS = 0.1;

constexpr std::size_t kHeapEntries = 4096;  // 32 KiB
constexpr std::size_t kTableEntries = 1 << 16; // 256 KiB

} // namespace

HostMeter::HostMeter() : heap_(kHeapEntries), table_(kTableEntries)
{
    for (std::size_t i = 0; i < heap_.size(); ++i)
        heap_[i] = i * 7919;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    for (std::size_t i = 0; i < table_.size(); ++i)
        table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
}

/**
 * The reference work has an event kernel's shape: pop the earliest key
 * of a binary heap and push a pseudo-random successor, then a
 * data-dependent read-modify-write in a cache-resident table. Its
 * result feeds sink_, so the compiler cannot drop it.
 */
double
HostMeter::tick()
{
    Clock::time_point a = Clock::now();
    if (seconds(last_, a) < kTickIntervalS)
        return 0;
    std::size_t mask = table_.size() - 1;
    std::uint64_t x = state_, acc = sink_;
    for (int i = 0; i < kChunkSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        std::uint64_t key = heap_.back();
        heap_.back() = key + (x & 0xFFFF) + 1;
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        std::uint32_t &slot = table_[(key ^ x) & mask];
        acc += (slot & 1) ? slot * 3u : slot >> 1;
        slot += static_cast<std::uint32_t>(i);
    }
    state_ = x;
    sink_ = acc;
    last_ = Clock::now();
    double s = seconds(a, last_);
    chunkS_.push_back(s);
    return s;
}

double
HostMeter::medianChunkS() const
{
    if (chunkS_.empty())
        return kNominalChunkS;
    std::vector<double> v = chunkS_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

double
HostMeter::slowdown() const
{
    return medianChunkS() / kNominalChunkS;
}

} // namespace perfbench
