/**
 * @file
 * The unified metrics registry.
 *
 * A MetricsRegistry is an ordered set of named samples -- integer
 * counters, double-valued gauges, and nearest-rank histogram
 * summaries -- that unifies the harness's ad-hoc stat taps
 * (eventsExecuted, dispatchCalls, trainEdgesDelivered, slab
 * occupancy high-water, fault/recovery counts, trace event counts)
 * behind one snapshot call.
 *
 * Contract: registration order is emission order, values are
 * formatted once at registration with byte-stable formatting
 * (std::to_string for integers, 17-significant-digit to_chars for
 * doubles), and nothing here reads clocks or randomness -- so the
 * packed CSV column and JSON object produced from a registry are a
 * pure function of the simulation, byte-identical across sweep
 * thread counts and solo replay like every other deterministic
 * output.
 */

#ifndef MBUS_TRACE_METRICS_HH
#define MBUS_TRACE_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mbus {
namespace trace {

/** One named, pre-formatted metric sample. */
struct MetricSample
{
    std::string name;  ///< Snake-case key ("events_executed").
    std::string value; ///< Byte-stable formatted value.
};

/** Pipe-packed scalar field for one CSV cell: "k=v|k=v|...". */
std::string packSamples(const std::vector<MetricSample> &samples);

/** Ordered named counters/gauges/histogram summaries; see file doc. */
class MetricsRegistry
{
  public:
    /** Register an integer counter. */
    void counter(const std::string &name, std::uint64_t v);

    /** Register a double-valued gauge (17-digit stable format). */
    void gauge(const std::string &name, double v);

    /**
     * Register a histogram summary: nearest-rank p50/p95/p99 over
     * @p sorted (ascending) plus a count, as four samples named
     * `name_count`, `name_p50`, `name_p95`, `name_p99`. An empty
     * sample set registers the count only.
     */
    void histogram(const std::string &name,
                   const std::vector<double> &sorted);

    /** The snapshot, in registration order. */
    const std::vector<MetricSample> &samples() const { return samples_; }

    /** packSamples() of the snapshot. */
    std::string packed() const;

    /** One flat JSON object: {"k": v, ...}. Values are numbers. */
    std::string json() const;

  private:
    std::vector<MetricSample> samples_;
};

} // namespace trace
} // namespace mbus

#endif // MBUS_TRACE_METRICS_HH
