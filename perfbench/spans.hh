/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * The benchmark records spans around its own calls into the
 * simulator's public entry points (makeBackend, FaultEngine, the
 * WorkloadEngine constructor, runCell, runFleet, the codec and the
 * report writers). Each recording thread appends to its own lane, so
 * recording takes no lock; the lanes are only read after the threads
 * are joined. At the end the log is written as Chrome trace-event
 * JSON, which Perfetto and chrome://tracing load directly.
 */

#ifndef MBUS_PERFBENCH_SPANS_HH
#define MBUS_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One complete span ("X") or instant event ("i"). */
struct Span
{
    const char *name = "";
    double startUs = 0; ///< Relative to the log's origin.
    double durUs = 0;   ///< 0 for instants.
    std::int64_t cell = -1; ///< Grid index the span belongs to.
    bool instant = false;
};

class SpanLog
{
  public:
    /** @param lanes One lane per recording thread (tid = lane). */
    explicit SpanLog(std::size_t lanes)
        : origin_(Clock::now()), lanes_(lanes)
    {
    }

    /** Record [a, b) on @p lane and return its duration in seconds. */
    double
    span(std::size_t lane, const char *name, Clock::time_point a,
         Clock::time_point b, std::int64_t cell = -1)
    {
        Span s;
        s.name = name;
        s.startUs = 1e6 * seconds(origin_, a);
        s.durUs = 1e6 * seconds(a, b);
        s.cell = cell;
        lanes_[lane].push_back(s);
        return seconds(a, b);
    }

    void
    instant(std::size_t lane, const char *name, Clock::time_point t,
            std::int64_t cell = -1)
    {
        Span s;
        s.name = name;
        s.startUs = 1e6 * seconds(origin_, t);
        s.cell = cell;
        s.instant = true;
        lanes_[lane].push_back(s);
    }

    /** Durations (µs) of every span called @p name, in lane order. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Sum of durationsUs(name). */
    double totalUs(const std::string &name) const;

    std::size_t size() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}).
     *  @return false if the file could not be written. */
    bool writeChromeJson(const std::string &path,
                         const std::string &processName) const;

  private:
    Clock::time_point origin_;
    std::vector<std::vector<Span>> lanes_;
};

} // namespace perfbench

#endif // MBUS_PERFBENCH_SPANS_HH
