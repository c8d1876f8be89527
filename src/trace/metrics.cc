#include "trace/metrics.hh"

#include <cstddef>

#include "sim/fsio.hh"
#include "sim/stats.hh"

namespace mbus {
namespace trace {

void
MetricsRegistry::counter(const std::string &name, std::uint64_t v)
{
    samples_.push_back({name, std::to_string(v)});
}

void
MetricsRegistry::gauge(const std::string &name, double v)
{
    samples_.push_back({name, sim::formatDouble(v)});
}

void
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &sorted)
{
    counter(name + "_count", sorted.size());
    if (sorted.empty())
        return;
    gauge(name + "_p50", sim::nearestRankPercentile(sorted, 0.50));
    gauge(name + "_p95", sim::nearestRankPercentile(sorted, 0.95));
    gauge(name + "_p99", sim::nearestRankPercentile(sorted, 0.99));
}

std::string
packSamples(const std::vector<MetricSample> &samples)
{
    std::string out;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (i)
            out += '|';
        out += samples[i].name;
        out += '=';
        out += samples[i].value;
    }
    return out;
}

std::string
MetricsRegistry::packed() const
{
    return packSamples(samples_);
}

std::string
MetricsRegistry::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        if (i)
            out += ", ";
        out += '"';
        out += samples_[i].name;
        out += "\": ";
        out += samples_[i].value;
    }
    out += '}';
    return out;
}

} // namespace trace
} // namespace mbus
