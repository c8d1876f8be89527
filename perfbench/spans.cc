#include "spans.hh"

#include <ostream>

#include "sim/fsio.hh"

namespace perfbench {

std::vector<double>
SpanLog::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const std::vector<Span> &lane : lanes_)
        for (const Span &s : lane)
            if (!s.instant && name == s.name)
                out.push_back(s.durUs);
    return out;
}

double
SpanLog::totalUs(const std::string &name) const
{
    double total = 0;
    for (double d : durationsUs(name))
        total += d;
    return total;
}

std::size_t
SpanLog::size() const
{
    std::size_t n = 0;
    for (const std::vector<Span> &lane : lanes_)
        n += lane.size();
    return n;
}

bool
SpanLog::writeChromeJson(const std::string &path,
                         const std::string &processName) const
{
    using mbus::sim::formatDouble;
    return mbus::sim::atomicWriteFile(path, [&](std::ostream &out) {
        out << "{\"traceEvents\": [\n"
            << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 0, \"args\": {\"name\": \""
            << processName << "\"}}";
        for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
            for (const Span &s : lanes_[tid]) {
                out << ",\n{\"name\": \"" << s.name
                    << "\", \"cat\": \"perfbench\", \"ph\": \""
                    << (s.instant ? "i" : "X")
                    << "\", \"pid\": 1, \"tid\": " << tid
                    << ", \"ts\": " << formatDouble(s.startUs);
                if (s.instant)
                    out << ", \"s\": \"t\"";
                else
                    out << ", \"dur\": " << formatDouble(s.durUs);
                if (s.cell >= 0)
                    out << ", \"args\": {\"cell\": " << s.cell << "}";
                out << "}";
            }
        }
        out << "\n]}\n";
    });
}

} // namespace perfbench
