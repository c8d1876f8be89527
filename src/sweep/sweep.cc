#include "sweep/sweep.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>

#include "sim/fsio.hh"
#include "sim/random.hh"

namespace mbus {
namespace sweep {

namespace {

/**
 * Cell names are free-form user strings; strip the characters that
 * would corrupt the CSV column structure or the JSON string literal
 * (RFC 8259 forbids raw control characters in strings).
 */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (c == ',' || c == '"' || c == '\\' ||
            static_cast<unsigned char>(c) < 0x20)
            c = '_';
    }
    return out;
}

/**
 * One report value: an integer, a real (17-digit, byte-stable), a
 * flag (1/0 in CSV, true/false in JSON) or text (bare in CSV, quoted
 * in JSON). Columns sanitize their own text, so neither format
 * escapes it.
 */
struct Value
{
    enum Kind { Int, Uint, Real, Flag, Text };

    template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
    Value(T v)
        : kind(std::is_same_v<T, bool> ? Flag
               : std::is_signed_v<T>   ? Int
                                       : Uint),
          i(static_cast<std::int64_t>(v)), u(static_cast<std::uint64_t>(v))
    {
    }
    Value(double v) : kind(Real), d(v) {}
    Value(std::string v) : kind(Text), text(std::move(v)) {}
    Value(const char *v) : kind(Text), text(v) {}

    Kind kind;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0;
    std::string text;
};

void
append(std::string &out, const Value &v, bool json)
{
    char buf[24];
    switch (v.kind) {
    case Value::Int:
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v.i).ptr);
        break;
    case Value::Uint:
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v.u).ptr);
        break;
    case Value::Real: sim::appendDouble(out, v.d); break;
    case Value::Flag:
        out += json ? (v.u ? "true" : "false") : (v.u ? "1" : "0");
        break;
    case Value::Text:
        if (json)
            out += '"';
        out += v.text;
        if (json)
            out += '"';
        break;
    }
}

/** Append one `"name": value` JSON member, comma-separated unless it
 *  opens its object. */
void
member(std::string &out, const char *name, const Value &v)
{
    if (out.back() != '{')
        out += ", ";
    out += '"';
    out += name;
    out += "\": ";
    append(out, v, /*json=*/true);
}

/** A '|'-packed field of the CSV form of @p f over @p seq
 *  ("1024|988|1002"): CSV/JSON-safe without further quoting. */
template <class Seq, class F>
std::string
pack(const Seq &seq, F f)
{
    std::string out;
    bool first = true;
    for (const auto &e : seq) {
        if (!first)
            out += '|';
        first = false;
        append(out, f(e), /*json=*/false);
    }
    return out;
}

std::string
packEdges(const std::vector<std::uint64_t> &edges)
{
    return pack(edges, [](std::uint64_t e) { return e; });
}

template <class Row> using Getter = Value (*)(const Row &);

/** A named report column over one Row type. */
template <class Row>
struct Column
{
    const char *name;
    Getter<Row> get;
};

/** The column called @p name in @p table; an unknown name fails to
 *  compile wherever the lookup is a constant. */
template <class Row, std::size_t N>
constexpr Column<Row>
named(const Column<Row> (&table)[N], std::string_view name)
{
    for (const Column<Row> &col : table)
        if (name == col.name)
            return col;
    throw "no such column";
}

using Actor = const workload::ActorStats &;
using Cell = const CellResult &;

template <auto M>
Value
actor(Actor a)
{
    return a.*M;
}

/** Member M of the cell's spec or of its stats, whichever has it. */
template <auto M>
Value
field(Cell c)
{
    if constexpr (std::is_invocable_v<decltype(M), const ScenarioSpec &>)
        return c.spec.*M;
    else
        return c.stats.*M;
}

/** The JSON "actors" objects; the actor_* CSV columns pack their
 *  numbers. */
constexpr Column<workload::ActorStats> kActorColumns[] = {
    {"name", [](Actor a) -> Value { return sanitizeName(a.name); }},
    {"kind", [](Actor a) -> Value { return actorKindName(a.kind); }},
    {"node", actor<&workload::ActorStats::node>},
    {"samples", actor<&workload::ActorStats::samplesDelivered>},
    {"missed", actor<&workload::ActorStats::missedDeadlines>},
    {"lat_p50_s", actor<&workload::ActorStats::latencyP50S>},
    {"lat_p95_s", actor<&workload::ActorStats::latencyP95S>},
    {"lat_p99_s", actor<&workload::ActorStats::latencyP99S>},
    {"energy_per_sample_j", actor<&workload::ActorStats::energyPerSampleJ>},
    {"duty_cycle", actor<&workload::ActorStats::dutyCycle>},
};

/** An actor column, '|'-packed across the cell's actors. */
template <Getter<workload::ActorStats> G>
Value
actors(Cell c)
{
    return pack(c.stats.actorStats, G);
}

constexpr Getter<workload::ActorStats>
actorColumn(std::string_view name)
{
    return named(kActorColumns, name).get;
}

/**
 * Every CSV column, in order, with the accessor that computes it from
 * a finished cell. writeJson() prints named subsets, and aggregate()
 * sums the columns its table names.
 */
constexpr Column<CellResult> kCsv[] = {
    {"index", [](Cell c) -> Value { return c.index; }},
    {"name", [](Cell c) -> Value { return sanitizeName(c.spec.name); }},
    {"nodes", field<&ScenarioSpec::nodes>},
    {"clock_hz", field<&ScenarioSpec::busClockHz>},
    {"hop_delay_ns", field<&ScenarioSpec::hopDelayNs>},
    {"wire_length_mm", field<&ScenarioSpec::wireLengthMm>},
    {"wire_cap_f_per_mm", field<&ScenarioSpec::wireCapFPerMm>},
    {"payload_bytes", field<&ScenarioSpec::payloadBytes>},
    {"messages", field<&ScenarioSpec::messages>},
    {"lanes", field<&ScenarioSpec::dataLanes>},
    {"traffic",
     [](Cell c) -> Value { return trafficPatternName(c.spec.traffic); }},
    {"gated", field<&ScenarioSpec::powerGated>},
    {"full_addr", field<&ScenarioSpec::fullAddressing>},
    {"priority_rate", field<&ScenarioSpec::priorityRate>},
    {"interject_rate", field<&ScenarioSpec::interjectRate>},
    {"time_limit_ps", field<&ScenarioSpec::timeLimit>},
    {"edge_trains", field<&ScenarioSpec::edgeTrains>},
    {"backend",
     [](Cell c) -> Value { return backend::backendKindName(c.spec.backend); }},
    {"fault_spec",
     [](Cell c) -> Value {
         const fault::FaultSpec &f = c.spec.faults;
         if (!f.enabled())
             return "-";
         return f.name.empty() ? "on" : sanitizeName(f.name);
     }},
    {"max_retries", [](Cell c) -> Value { return c.spec.retry.maxRetries; }},
    {"seed", [](Cell c) -> Value { return c.seed; }},
    {"planned", field<&ScenarioStats::planned>},
    {"acked", field<&ScenarioStats::acked>},
    {"naked", field<&ScenarioStats::naked>},
    {"broadcast", field<&ScenarioStats::broadcasts>},
    {"interrupted", field<&ScenarioStats::interrupted>},
    {"rx_abort", field<&ScenarioStats::rxAborts>},
    {"failed", field<&ScenarioStats::failed>},
    {"mismatches", field<&ScenarioStats::payloadMismatches>},
    {"wedged", field<&ScenarioStats::wedged>},
    {"bytes_delivered", field<&ScenarioStats::bytesDelivered>},
    {"tx_per_s", field<&ScenarioStats::txPerSecond>},
    {"goodput_bps", field<&ScenarioStats::goodputBps>},
    {"events", field<&ScenarioStats::eventsExecuted>},
    {"events_per_bit", field<&ScenarioStats::eventsPerBit>},
    {"train_edges", field<&ScenarioStats::trainEdges>},
    {"dispatch_calls", field<&ScenarioStats::dispatchCalls>},
    {"clock_cycles", field<&ScenarioStats::clockCycles>},
    {"arb_retries", field<&ScenarioStats::arbitrationRetries>},
    {"switching_j", field<&ScenarioStats::switchingJ>},
    {"leakage_j", field<&ScenarioStats::leakageJ>},
    {"energy_per_sample_j", field<&ScenarioStats::energyPerSampleJ>},
    {"lifetime_days", field<&ScenarioStats::lifetimeDays>},
    {"avg_tx_latency_s", field<&ScenarioStats::avgTxLatencyS>},
    {"first_tx_latency_s", field<&ScenarioStats::firstTxLatencyS>},
    {"lat_p50_s", field<&ScenarioStats::latencyP50S>},
    {"lat_p95_s", field<&ScenarioStats::latencyP95S>},
    {"lat_p99_s", field<&ScenarioStats::latencyP99S>},
    {"avg_cycles_per_tx", field<&ScenarioStats::avgCyclesPerTx>},
    {"sim_time_ps", field<&ScenarioStats::simTime>},
    {"per_node_edges",
     [](Cell c) -> Value { return packEdges(c.stats.perNodeEdges); }},
    {"vcd_bytes", field<&ScenarioStats::vcdBytes>},
    {"vcd_hash", field<&ScenarioStats::vcdHash>},
    {"workload",
     [](Cell c) -> Value {
         const workload::WorkloadSpec &w = c.spec.workload;
         return w.enabled() ? sanitizeName(w.name) : "-";
     }},
    {"samples_planned", field<&ScenarioStats::samplesPlanned>},
    {"samples_delivered", field<&ScenarioStats::samplesDelivered>},
    {"missed_deadlines", field<&ScenarioStats::missedDeadlines>},
    {"storm_interjections", field<&ScenarioStats::stormInterjections>},
    {"gate_windows", field<&ScenarioStats::gateWindows>},
    {"faults", field<&ScenarioStats::faultsInjected>},
    {"faults_recovered", field<&ScenarioStats::faultsRecovered>},
    {"retimings", field<&ScenarioStats::retimings>},
    {"fault_events", field<&ScenarioStats::faultEvents>},
    {"bus_resets", field<&ScenarioStats::busResets>},
    {"tx_resets", field<&ScenarioStats::txResets>},
    {"retries_used", field<&ScenarioStats::retries>},
    {"recovered_tx", field<&ScenarioStats::recoveredTx>},
    {"abandoned_tx", field<&ScenarioStats::abandonedTx>},
    {"recovery_p50_s", field<&ScenarioStats::recoveryP50S>},
    {"recovery_p95_s", field<&ScenarioStats::recoveryP95S>},
    {"recovery_p99_s", field<&ScenarioStats::recoveryP99S>},
    // ok|interrupted|overflow|reset: the delivery/abort outcome census.
    {"outcome_counts",
     [](Cell c) -> Value {
         const ScenarioStats &s = c.stats;
         int counts[] = {s.deliveredOk, s.deliveredInterrupted,
                         s.deliveredOverflow, s.txResets};
         return pack(counts, [](int n) { return n; });
     }},
    // '|' separates the names, so it is stripped from them too.
    {"actor_names",
     [](Cell c) -> Value {
         return pack(c.stats.actorStats, [](Actor a) {
             std::string n = sanitizeName(a.name);
             std::replace(n.begin(), n.end(), '|', '_');
             return n;
         });
     }},
    {"actor_samples", actors<actorColumn("samples")>},
    {"actor_missed", actors<actorColumn("missed")>},
    {"actor_lat_p50_s", actors<actorColumn("lat_p50_s")>},
    {"actor_lat_p95_s", actors<actorColumn("lat_p95_s")>},
    {"actor_lat_p99_s", actors<actorColumn("lat_p99_s")>},
    {"actor_energy_per_sample_j",
     actors<actorColumn("energy_per_sample_j")>},
    {"actor_duty_cycle", actors<actorColumn("duty_cycle")>},
    {"slab_slots", field<&ScenarioStats::slabSlots>},
    {"slab_live_peak", field<&ScenarioStats::liveHighWater>},
    {"heap_callbacks", field<&ScenarioStats::heapCallbacks>},
    {"trace_events", field<&ScenarioStats::traceEvents>},
    {"trace_bytes", [](Cell c) -> Value { return c.stats.traceJson.size(); }},
    {"trace_hash", field<&ScenarioStats::traceHash>},
    {"flight_dumps",
     [](Cell c) -> Value { return c.stats.flightDumps.size(); }},
    // The cell's metrics snapshot (registry-formatted names and values,
    // so CSV/JSON-safe); empty for untraced cells.
    {"metrics",
     [](Cell c) -> Value { return trace::packSamples(c.stats.metrics); }},
};

constexpr Getter<CellResult>
csvColumn(std::string_view name)
{
    return named(kCsv, name).get;
}

template <std::size_t N>
constexpr std::array<Column<CellResult>, N>
csvColumns(const char *const (&names)[N])
{
    std::array<Column<CellResult>, N> out{};
    for (std::size_t i = 0; i < N; ++i)
        out[i] = named(kCsv, names[i]);
    return out;
}

/** The JSON per-cell object... */
constexpr auto kJsonCell = csvColumns({
    "index", "name", "backend", "seed", "acked", "energy_per_sample_j",
    "lifetime_days", "goodput_bps", "events_per_bit", "train_edges",
    "dispatch_calls", "lat_p50_s", "lat_p95_s", "lat_p99_s",
    "per_node_edges", "switching_j", "wedged", "fault_events",
    "bus_resets", "tx_resets", "retries_used", "recovered_tx",
    "abandoned_tx", "outcome_counts", "slab_live_peak", "trace_events",
    "trace_bytes", "trace_hash", "flight_dumps", "metrics",
});

/** ...plus, for workload cells, these and the "actors" objects. */
constexpr auto kJsonWorkload =
    csvColumns({"workload", "samples_planned", "samples_delivered",
                "missed_deadlines", "faults", "retimings"});

/**
 * One member of the JSON "aggregate" object (per_node_edges aside),
 * in output order. A member with a column is that column summed over
 * the cells in grid order; aggregate() sets the others by its own
 * rules.
 */
struct AggField
{
    const char *name;
    Getter<CellResult> column;
    std::uint64_t SweepAggregate::*count;
    double SweepAggregate::*real = nullptr;
};

using Agg = SweepAggregate;

constexpr AggField kAggregate[] = {
    {"cells", nullptr, &Agg::cells},
    {"planned", csvColumn("planned"), &Agg::planned},
    {"acked", csvColumn("acked"), &Agg::acked},
    {"naked", csvColumn("naked"), &Agg::naked},
    {"broadcast", csvColumn("broadcast"), &Agg::broadcasts},
    {"interrupted", csvColumn("interrupted"), &Agg::interrupted},
    {"rx_abort", csvColumn("rx_abort"), &Agg::rxAborts},
    {"failed", csvColumn("failed"), &Agg::failed},
    {"mismatches", csvColumn("mismatches"), &Agg::mismatches},
    {"wedged_cells", csvColumn("wedged"), &Agg::wedgedCells},
    {"bytes_delivered", csvColumn("bytes_delivered"), &Agg::bytesDelivered},
    {"events", csvColumn("events"), &Agg::events},
    {"train_edges", csvColumn("train_edges"), &Agg::trainEdges},
    {"dispatch_calls", csvColumn("dispatch_calls"), &Agg::dispatchCalls},
    {"switching_j", csvColumn("switching_j"), nullptr, &Agg::switchingJ},
    {"leakage_j", csvColumn("leakage_j"), nullptr, &Agg::leakageJ},
    {"mean_goodput_bps", nullptr, nullptr, &Agg::meanGoodputBps},
    {"min_goodput_bps", nullptr, nullptr, &Agg::minGoodputBps},
    {"max_goodput_bps", nullptr, nullptr, &Agg::maxGoodputBps},
    {"mean_events_per_bit", nullptr, nullptr, &Agg::meanEventsPerBit},
    {"lat_p50_s", nullptr, nullptr, &Agg::latencyP50S},
    {"lat_p95_s", nullptr, nullptr, &Agg::latencyP95S},
    {"lat_p99_s", nullptr, nullptr, &Agg::latencyP99S},
    {"samples_planned", csvColumn("samples_planned"), &Agg::samplesPlanned},
    {"samples_delivered", csvColumn("samples_delivered"),
     &Agg::samplesDelivered},
    {"missed_deadlines", csvColumn("missed_deadlines"), &Agg::missedDeadlines},
    {"faults", csvColumn("faults"), &Agg::faultsInjected},
    {"retimings", csvColumn("retimings"), &Agg::retimings},
    {"fault_events", csvColumn("fault_events"), &Agg::faultEvents},
    {"bus_resets", csvColumn("bus_resets"), &Agg::busResets},
    {"tx_resets", csvColumn("tx_resets"), &Agg::txResets},
    {"retries_used", csvColumn("retries_used"), &Agg::retriesUsed},
    {"recovered_tx", csvColumn("recovered_tx"), &Agg::recoveredTx},
    {"abandoned_tx", csvColumn("abandoned_tx"), &Agg::abandonedTx},
    {"trace_events", csvColumn("trace_events"), &Agg::traceEvents},
    {"flight_dumps", csvColumn("flight_dumps"), &Agg::flightDumps},
    {"heap_callbacks", csvColumn("heap_callbacks"), &Agg::heapCallbacks},
    {"slab_live_peak_max", nullptr, &Agg::liveHighWaterMax},
};

} // namespace

// --- SweepResult -----------------------------------------------------

SweepAggregate
SweepResult::aggregate() const
{
    SweepAggregate a;
    a.cells = cells_.size();
    double goodputSum = 0, epbSum = 0;
    std::uint64_t goodputCells = 0;
    std::vector<double> latencies;
    for (const CellResult &c : cells_) {
        for (const AggField &f : kAggregate) {
            if (!f.column)
                continue;
            Value v = f.column(c);
            if (f.count)
                a.*f.count += v.u;
            else
                a.*f.real += v.d;
        }
        // The rules a sum cannot express: pooled latencies, the
        // index-wise per-node sum, the occupancy peak, goodput over
        // the cells that moved data.
        const ScenarioStats &s = c.stats;
        latencies.insert(latencies.end(), s.txLatenciesS.begin(),
                         s.txLatenciesS.end());
        if (s.perNodeEdges.size() > a.perNodeEdges.size())
            a.perNodeEdges.resize(s.perNodeEdges.size(), 0);
        for (std::size_t i = 0; i < s.perNodeEdges.size(); ++i)
            a.perNodeEdges[i] += s.perNodeEdges[i];
        a.liveHighWaterMax =
            std::max(a.liveHighWaterMax, s.liveHighWater);
        if (s.goodputBps > 0) {
            goodputSum += s.goodputBps;
            ++goodputCells;
            if (goodputCells == 1 || s.goodputBps < a.minGoodputBps)
                a.minGoodputBps = s.goodputBps;
            if (s.goodputBps > a.maxGoodputBps)
                a.maxGoodputBps = s.goodputBps;
        }
        epbSum += s.eventsPerBit;
    }
    if (goodputCells > 0)
        a.meanGoodputBps = goodputSum / static_cast<double>(goodputCells);
    if (a.cells > 0)
        a.meanEventsPerBit = epbSum / static_cast<double>(a.cells);
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        a.latencyP50S = nearestRankPercentile(latencies, 0.50);
        a.latencyP95S = nearestRankPercentile(latencies, 0.95);
        a.latencyP99S = nearestRankPercentile(latencies, 0.99);
    }
    return a;
}

void
SweepResult::writeCsv(std::ostream &os, bool includeWallTime) const
{
    std::string line;
    for (const Column<CellResult> &col : kCsv) {
        line += col.name;
        line += ',';
    }
    line.back() = '\n';
    if (includeWallTime)
        line.insert(line.size() - 1, ",wall_s");
    os << line;
    for (const CellResult &c : cells_) {
        line.clear();
        for (const Column<CellResult> &col : kCsv) {
            append(line, col.get(c), /*json=*/false);
            line += ',';
        }
        line.pop_back();
        if (includeWallTime) {
            line += ',';
            sim::appendDouble(line, c.wallSeconds);
        }
        line += '\n';
        os << line;
    }
}

void
SweepResult::writeJson(std::ostream &os, bool includeWallTime) const
{
    std::string out =
        "{\n  \"master_seed\": " + std::to_string(cfg_.masterSeed) +
        ",\n  \"aggregate\": {";
    SweepAggregate a = aggregate();
    for (const AggField &f : kAggregate)
        member(out, f.name, f.count ? Value(a.*f.count) : Value(a.*f.real));
    member(out, "per_node_edges", packEdges(a.perNodeEdges));
    out += "},\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const CellResult &c = cells_[i];
        out += "    {";
        for (const Column<CellResult> &col : kJsonCell)
            member(out, col.name, col.get(c));
        if (!c.stats.actorStats.empty()) {
            for (const Column<CellResult> &col : kJsonWorkload)
                member(out, col.name, col.get(c));
            out += ", \"actors\": [";
            for (const workload::ActorStats &act : c.stats.actorStats) {
                out += out.back() == '[' ? "{" : ", {";
                for (const auto &col : kActorColumns)
                    member(out, col.name, col.get(act));
                out += '}';
            }
            out += ']';
        }
        if (includeWallTime)
            member(out, "wall_s", c.wallSeconds);
        out += i + 1 < cells_.size() ? "},\n" : "}\n";
        os << out;
        out.clear();
    }
    os << out << "  ]\n}\n";
}

bool
SweepResult::writeCsvFile(const std::string &path,
                          bool includeWallTime) const
{
    return sim::atomicWriteFile(path, [&](std::ostream &os) {
        writeCsv(os, includeWallTime);
    });
}

bool
SweepResult::writeJsonFile(const std::string &path,
                           bool includeWallTime) const
{
    return sim::atomicWriteFile(path, [&](std::ostream &os) {
        writeJson(os, includeWallTime);
    });
}

std::uint64_t
SweepResult::fingerprint() const
{
    std::ostringstream os;
    writeCsv(os, /*includeWallTime=*/false);
    std::string bytes = os.str();
    return fnv1a(bytes.data(), bytes.size());
}

double
SweepResult::totalWallSeconds() const
{
    double total = 0;
    for (const CellResult &c : cells_)
        total += c.wallSeconds;
    return total;
}

std::function<void(std::size_t, std::size_t)>
stderrProgress(const std::string &label)
{
    auto start =
        std::make_shared<std::chrono::steady_clock::time_point>(
            std::chrono::steady_clock::now());
    std::string tag = label.empty() ? "" : " [" + label + "]";
    return [start, tag](std::size_t done, std::size_t total) {
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - *start)
                       .count();
        double rate = s > 0 ? static_cast<double>(done) / s : 0;
        if (total == 0) {
            // Fleet worker: the grid size lives in the coordinator.
            std::fprintf(stderr, "sweep%s: %zu cells (%.1f cells/s)\n",
                         tag.c_str(), done, rate);
            return;
        }
        double eta =
            rate > 0 ? static_cast<double>(total - done) / rate : 0;
        std::fprintf(
            stderr, "sweep%s: %zu/%zu cells (%.1f cells/s, eta %.0fs)\n",
            tag.c_str(), done, total, rate, eta);
    };
}

SweepResult
SweepResult::fromCells(const SweepConfig &cfg,
                       std::vector<CellResult> cells)
{
    SweepResult r;
    r.cfg_ = cfg;
    r.cells_ = std::move(cells);
    std::sort(r.cells_.begin(), r.cells_.end(),
              [](const CellResult &a, const CellResult &b) {
                  return a.index < b.index;
              });
    return r;
}

// --- SweepDriver -----------------------------------------------------

std::uint64_t
SweepDriver::cellSeed(std::uint64_t index) const
{
    return sim::Random(cfg_.masterSeed).split(index).next();
}

CellResult
SweepDriver::runCell(const ScenarioSpec &spec, std::uint64_t index) const
{
    CellResult r;
    r.spec = spec;
    r.index = index;
    r.seed = cellSeed(index);
    auto t0 = std::chrono::steady_clock::now();
    r.stats = runScenario(spec, r.seed);
    auto t1 = std::chrono::steady_clock::now();
    r.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return r;
}

SweepResult
SweepDriver::run(const std::vector<ScenarioSpec> &grid) const
{
    return runRange(grid, 0, grid.size());
}

SweepResult
SweepDriver::runRange(const std::vector<ScenarioSpec> &grid,
                      std::size_t first, std::size_t count) const
{
    if (first > grid.size())
        first = grid.size();
    if (count > grid.size() - first)
        count = grid.size() - first;

    SweepResult result;
    result.cfg_ = cfg_;
    result.cells_.resize(count);
    if (count == 0)
        return result;

    unsigned want = cfg_.threads != 0
                        ? cfg_.threads
                        : std::thread::hardware_concurrency();
    if (want == 0)
        want = 1;
    std::size_t workers = std::min<std::size_t>(want, count);

    std::atomic<std::size_t> cursor{0};
    std::mutex progressMu;
    std::size_t completed = 0;
    auto work = [&] {
        for (;;) {
            std::size_t i = cursor.fetch_add(1);
            if (i >= count)
                return;
            // Cells keep their global grid index (and therefore
            // seed), so disjoint ranges merge byte-identically.
            result.cells_[i] =
                runCell(grid[first + i],
                        static_cast<std::uint64_t>(first + i));
            if (cfg_.progress) {
                std::lock_guard<std::mutex> lock(progressMu);
                cfg_.progress(++completed, count);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t)
        pool.emplace_back(work);
    work(); // The caller's thread is worker 0.
    for (auto &th : pool)
        th.join();
    return result;
}

} // namespace sweep
} // namespace mbus
