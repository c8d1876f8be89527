/**
 * @file
 * Host-speed reference for the benchmark's timings.
 *
 * A shared host runs the same code at different speeds from minute to
 * minute (other tenants on the sibling hyperthreads, caches and memory
 * bus). A whole benchmark run can fall inside a slow phase, so no
 * amount of repetition inside the run removes it. HostMeter measures
 * that phase directly: between the benchmark's passes it times a fixed
 * reference computation, compiled into the benchmark and never part of
 * the program under test, and reports how much slower than nominal the
 * host ran it. Dividing a timing by that slowdown states it at the
 * nominal host speed. A change to the simulator moves its timings but
 * not the reference, so the comparison between two versions of the
 * simulator stays intact.
 */

#ifndef MBUS_PERFBENCH_HOSTSPEED_HH
#define MBUS_PERFBENCH_HOSTSPEED_HH

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostMeter
{
  public:
    HostMeter();

    /**
     * Time one reference chunk if 0.1 s has passed since the last one,
     * so that calls from all through a pass sample the host evenly.
     * @return the seconds the call took.
     */
    double tick();

    /** Median chunk time over every sample so far, in seconds. */
    double medianChunkS() const;

    /** medianChunkS() / the nominal host's chunk time: above 1 when
     *  the host ran slower than nominal. 1 before any sample. */
    double slowdown() const;

    std::size_t chunks() const { return chunkS_.size(); }

  private:
    std::vector<double> chunkS_;
    std::chrono::steady_clock::time_point last_{};
    std::vector<std::uint64_t> heap_;
    std::vector<std::uint32_t> table_;
    std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
    std::uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // MBUS_PERFBENCH_HOSTSPEED_HH
