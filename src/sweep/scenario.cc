#include "sweep/scenario.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <type_traits>
#include <vector>

#include "analysis/lifetime.hh"
#include "backend/backend.hh"
#include "mbus/layer_controller.hh"
#include "mbus/message.hh"
#include "sim/logging.hh"
#include "sim/vcd.hh"
#include "sweep/schema.hh"

namespace mbus {
namespace sweep {

const char *
trafficPatternName(TrafficPattern p)
{
    switch (p) {
    case TrafficPattern::SingleSender: return "single";
    case TrafficPattern::RandomPairs: return "pairs";
    case TrafficPattern::AllToOne: return "all_to_one";
    case TrafficPattern::BroadcastMix: return "bcast_mix";
    }
    return "?";
}

namespace {

/** One pre-generated transaction of the cell's traffic plan. */
struct PlannedTx
{
    std::size_t sender = 0;
    bus::Address dest;
    std::vector<std::uint8_t> payload;
    bool broadcast = false;
    bool priority = false;
    int wireBits = 0;
    // Fault schedule: a third party interjects mid-message.
    bool interject = false;
    std::size_t interjector = 0;
    double interjectFrac = 0;
};

/**
 * Generate the whole traffic plan up front, consuming the cell RNG
 * stream in one fixed order. Nothing downstream draws randomness, so
 * the plan -- and therefore the run -- is a pure function of the
 * seed regardless of how callbacks interleave.
 */
std::vector<PlannedTx>
makePlan(const ScenarioSpec &spec, backend::BusBackend &backend,
         sim::Random &rng)
{
    std::size_t n = static_cast<std::size_t>(spec.nodes);
    std::vector<PlannedTx> plan;
    plan.reserve(static_cast<std::size_t>(spec.messages));
    for (int k = 0; k < spec.messages; ++k) {
        PlannedTx tx;
        switch (spec.traffic) {
        case TrafficPattern::SingleSender:
            tx.sender = n >= 3 ? 1 : 0;
            tx.dest = backend.unicastAddress(n - 1, spec.fullAddressing,
                                             bus::kFuMailbox);
            break;
        case TrafficPattern::RandomPairs: {
            tx.sender = rng.below(n);
            std::size_t d = rng.below(n - 1);
            if (d >= tx.sender)
                ++d;
            tx.dest = backend.unicastAddress(d, spec.fullAddressing,
                                             bus::kFuMailbox);
            break;
        }
        case TrafficPattern::AllToOne:
            tx.sender = 1 + static_cast<std::size_t>(k) % (n - 1);
            tx.dest = backend.unicastAddress(0, spec.fullAddressing,
                                             bus::kFuMailbox);
            break;
        case TrafficPattern::BroadcastMix: {
            tx.sender = rng.below(n);
            if (rng.chance(0.25)) {
                tx.broadcast = true;
                tx.dest = bus::Address::broadcast(bus::kChannelUserBase);
            } else {
                std::size_t d = rng.below(n - 1);
                if (d >= tx.sender)
                    ++d;
                // Broadcast-mix unicasts stay short-addressed even in
                // full-addressing cells (matches the historical plan).
                tx.dest = backend.unicastAddress(
                    d, /*fullAddressing=*/false, bus::kFuMailbox);
            }
            break;
        }
        }
        tx.payload.resize(spec.payloadBytes);
        for (auto &b : tx.payload)
            b = rng.byte();
        tx.priority = rng.chance(spec.priorityRate);
        // Fault schedule draws happen unconditionally so the stream
        // position never depends on earlier outcomes.
        bool wantStorm = rng.chance(spec.interjectRate);
        std::size_t stormNode = rng.below(n - 1);
        double frac = 0.15 + 0.75 * rng.uniform();
        if (wantStorm) {
            tx.interject = true;
            tx.interjector =
                stormNode >= tx.sender ? stormNode + 1 : stormNode;
            tx.interjectFrac = frac;
        }
        bus::Message probe;
        probe.dest = tx.dest;
        probe.payload = tx.payload;
        tx.wireBits = probe.wireDataBits();
        plan.push_back(std::move(tx));
    }
    return plan;
}

/**
 * Register the stats fields called @p names (sweep/schema.hh), in
 * that order: numbers as counters, doubles as gauges, and a vector
 * field as a counter of its length.
 */
void
registerStats(trace::MetricsRegistry &reg, const ScenarioStats &st,
              std::initializer_list<const char *> names)
{
    for (const char *name : names)
        forEachField(st, [&](const char *field, const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if (std::strcmp(field, name) != 0)
                return;
            if constexpr (std::is_same_v<T, double>)
                reg.gauge(field, v);
            else if constexpr (std::is_integral_v<T>)
                reg.counter(field, static_cast<std::uint64_t>(v));
            else
                reg.counter(field, v.size());
        });
}

/** The pre-workload traffic driver: one planned message at a time
 *  from the makePlan() stream, with delivery integrity checking. */
workload::WorkloadRunStats
runClassicTraffic(const ScenarioSpec &spec, backend::BusBackend &backend,
                  sim::Simulator &simulator)
{
    workload::WorkloadRunStats w;
    w.planned = spec.messages;
    auto plan = makePlan(spec, backend, simulator.rng());

    std::multiset<std::vector<std::uint8_t>> expected;
    backend.setDeliveryHandler(
        [&](std::size_t, const bus::ReceivedMessage &rx) {
            w.recordDelivery(rx, expected);
        });

    int done = 0;
    sim::SimTime issuedAt = 0;
    w.txLatenciesS.reserve(static_cast<std::size_t>(spec.messages));

    std::function<void()> issueNext = [&] {
        if (done >= spec.messages)
            return;
        const PlannedTx &tx = plan[static_cast<std::size_t>(done)];
        int copies =
            tx.broadcast ? std::max(spec.nodes - 1, 1) : 1;
        for (int c = 0; c < copies; ++c)
            expected.insert(tx.payload);
        issuedAt = simulator.now();
        bus::Message msg;
        msg.dest = tx.dest;
        msg.payload = tx.payload;
        msg.priority = tx.priority;
        if (tx.interject) {
            // Storm: a third party cuts the message after a fraction
            // of its modelled duration, timed on the clock the
            // fabric actually runs (clamped fabrics run slower than
            // the spec requests).
            sim::SimTime period =
                sim::periodFromHz(backend.busClockHz());
            auto cycles = static_cast<double>(msg.totalCycles());
            auto delay = static_cast<sim::SimTime>(
                tx.interjectFrac * cycles * static_cast<double>(period));
            std::size_t who = tx.interjector;
            simulator.schedule(delay,
                               [&backend, who] { backend.interject(who); });
        }
        int wireBits = tx.wireBits;
        // With a retry policy the callback sees only the *terminal*
        // result of the attempt chain; disabled, this is a plain
        // backend.send().
        fault::sendWithRetry(
            backend, simulator, tx.sender, std::move(msg), spec.retry,
            w.retry, [&, wireBits](const bus::TxResult &r) {
                w.recordTerminal(r, issuedAt, wireBits);
                ++done;
                issueNext();
            });
    };

    if (spec.messages > 0)
        issueNext();
    bool finished = simulator.runUntil(
        [&] { return done >= spec.messages; }, spec.timeLimit);
    bool idle = backend.runUntilIdle(sim::kSecond);
    w.wedged = !finished || !idle;
    backend.setDeliveryHandler(nullptr);
    return w;
}

} // namespace

ScenarioStats
runScenario(const ScenarioSpec &spec, std::uint64_t seed)
{
    if (spec.nodes < 2 || spec.nodes > 14)
        mbus_fatal("scenario needs 2..14 nodes, got ", spec.nodes);
    if (spec.messages < 0)
        mbus_fatal("scenario needs messages >= 0, got ",
                   spec.messages);

    sim::Simulator simulator;
    simulator.seedRng(seed);

    // Zero-overhead-when-off: the tracer only exists when asked for.
    // It observes (never schedules events, never draws RNG), so an
    // enabled tracer cannot perturb the simulation either -- pinned
    // by the trace-off golden-VCD test and the on/off identity test.
    std::unique_ptr<trace::Tracer> tracer;
    if (spec.trace.enabled()) {
        tracer = std::make_unique<trace::Tracer>(simulator, spec.trace,
                                                 spec.nodes);
        simulator.setTracer(tracer.get());
    }

    backend::BusParams params;
    params.nodes = spec.nodes;
    params.busClockHz = spec.busClockHz;
    params.hopDelayNs = spec.hopDelayNs;
    params.wireCapF = spec.wireLengthMm * spec.wireCapFPerMm;
    params.dataLanes = spec.dataLanes;
    params.powerGated = spec.powerGated;
    params.edgeTrains = spec.edgeTrains;
    params.chunkedDispatch = spec.chunkedDispatch;
    params.softRxCapacity = spec.softRxCapacity;

    std::unique_ptr<backend::BusBackend> backend =
        backend::makeBackend(spec.backend, simulator, params);

    sim::TraceRecorder recorder;
    if (spec.captureVcd)
        backend->attachTrace(recorder);

    // Fault engine: compiled on the same cell seed (disjoint split
    // streams) and armed before any traffic so injected events land
    // at absolute plan times. Nodes [1, faultable) are eligible;
    // mixed-ring fabrics exclude their software member, whose pins
    // the wire-level hooks cannot force.
    std::unique_ptr<fault::FaultEngine> faultEngine;
    if (spec.faults.enabled()) {
        int faultable = spec.nodes;
        if (spec.backend == backend::BackendKind::Bitbang ||
            spec.backend == backend::BackendKind::Firmware)
            --faultable;
        faultEngine = std::make_unique<fault::FaultEngine>(
            spec.faults, seed, faultable);
        faultEngine->arm(*backend, simulator);
    }

    // Application-mix cells: the engine compiles a pre-drawn plan on
    // the cell seed and drives the system through the same node APIs;
    // the messages/traffic knobs are ignored. Otherwise the classic
    // driver issues the makePlan() stream one message at a time.
    workload::WorkloadRunStats w;
    if (spec.workload.enabled()) {
        workload::WorkloadEngine engine(spec.workload, seed,
                                        spec.nodes);
        sim::SimTime limit = std::max(
            spec.timeLimit,
            sim::fromSeconds(spec.workload.durationS) + sim::kSecond);
        w = engine.drive(*backend, simulator, limit);
    } else {
        w = runClassicTraffic(spec, *backend, simulator);
    }

    ScenarioStats st;
    st.planned = w.planned;
    st.acked = w.acked;
    st.naked = w.naked;
    st.broadcasts = w.broadcasts;
    st.interrupted = w.interrupted;
    st.rxAborts = w.rxAborts;
    st.failed = w.failed;
    st.bytesDelivered = w.bytesDelivered;
    st.payloadMismatches = w.payloadMismatches;
    st.arbitrationRetries = w.arbitrationRetries;
    st.firstTxLatencyS = w.firstTxLatencyS;
    st.wedged = w.wedged;
    st.actorStats = std::move(w.actors);
    st.missedDeadlines = w.missedDeadlines;
    st.samplesPlanned = w.samplesPlanned;
    st.samplesDelivered = w.samplesDelivered;
    st.stormInterjections = w.stormInterjections;
    st.gateWindows = w.gateWindows;
    st.faultsInjected = w.faultsInjected;
    st.faultsRecovered = w.faultsRecovered;
    st.retimings = w.retimings;
    st.txResets = w.txResets;
    st.deliveredOk = w.deliveredOk;
    st.deliveredInterrupted = w.deliveredInterrupted;
    st.deliveredOverflow = w.deliveredOverflow;

    // --- Reduction ---------------------------------------------------
    int done = static_cast<int>(w.txLatenciesS.size());
    double elapsedS = sim::toSeconds(w.lastCompletion);
    if (done > 0 && elapsedS > 0) {
        st.txPerSecond = static_cast<double>(done) / elapsedS;
        st.goodputBps =
            8.0 * static_cast<double>(st.bytesDelivered) / elapsedS;
        st.avgTxLatencyS = w.latencySumS / done;
        st.avgCyclesPerTx = st.avgTxLatencyS * backend->busClockHz();
    }
    if (!w.txLatenciesS.empty()) {
        std::sort(w.txLatenciesS.begin(), w.txLatenciesS.end());
        st.latencyP50S = nearestRankPercentile(w.txLatenciesS, 0.50);
        st.latencyP95S = nearestRankPercentile(w.txLatenciesS, 0.95);
        st.latencyP99S = nearestRankPercentile(w.txLatenciesS, 0.99);
        st.txLatenciesS = std::move(w.txLatenciesS);
    }
    st.eventsExecuted = simulator.eventsExecuted();
    if (w.completedWireBits > 0)
        st.eventsPerBit = static_cast<double>(st.eventsExecuted) /
                          static_cast<double>(w.completedWireBits);
    st.trainEdges = simulator.queue().trainEdgesDelivered();
    st.trainsScheduled = simulator.queue().trainsScheduled();
    st.dispatchCalls = backend->dispatchCalls();
    st.perNodeEdges.resize(static_cast<std::size_t>(spec.nodes), 0);
    for (int i = 0; i < spec.nodes; ++i) {
        auto idx = static_cast<std::size_t>(i);
        st.perNodeEdges[idx] = backend->nodeEdges(idx);
    }
    st.clockCycles = backend->clockCycles();
    st.switchingJ = backend->switchingJ();
    st.leakageJ = backend->leakageJ();
    st.simTime = simulator.now();

    // Fault and recovery reduction (all-zero with faults off).
    st.faultEvents = faultEngine ? faultEngine->injected() : 0;
    st.busResets = backend->busResets();
    st.runawayKills = backend->runawayKills();
    st.retries = w.retry.retries;
    st.recoveredTx = w.retry.recoveredTx;
    st.abandonedTx = w.retry.abandonedTx;
    std::vector<double> &recovery = w.retry.recoveryS;
    if (!recovery.empty()) {
        std::sort(recovery.begin(), recovery.end());
        st.recoveryP50S = nearestRankPercentile(recovery, 0.50);
        st.recoveryP95S = nearestRankPercentile(recovery, 0.95);
        st.recoveryP99S = nearestRankPercentile(recovery, 0.99);
    }

    // Cross-backend headline numbers: energy per delivered sample
    // (workload cells) or per ACKed message, and the paper-style
    // battery-lifetime projection of the measured mix.
    double totalJ = st.switchingJ + st.leakageJ;
    int units = spec.workload.enabled() ? st.samplesDelivered
                                        : st.acked + st.broadcasts;
    if (units > 0)
        st.energyPerSampleJ = totalJ / static_cast<double>(units);
    st.lifetimeDays = analysis::projectedLifetimeDays(
        totalJ, sim::toSeconds(st.simTime));

    if (spec.captureVcd) {
        std::ostringstream os;
        recorder.writeVcd(os);
        st.vcd = os.str();
        st.vcdBytes = st.vcd.size();
        st.vcdHash = fnv1a(st.vcd.data(), st.vcd.size());
    }

    st.slabSlots =
        static_cast<std::uint64_t>(simulator.queue().slabSlots());
    st.liveHighWater = simulator.queue().liveHighWater();
    st.heapCallbacks = simulator.queue().heapCallbackCount();

    if (tracer) {
        // A wedge trips the flight recorder before export: the dump
        // names whichever transactions were still open at the guard.
        if (st.wedged)
            tracer->trip("wedge-guard");
        st.traceEvents = tracer->recorded();
        if (spec.trace.protocol) {
            st.traceJson = tracer->chromeJson();
            st.traceHash =
                fnv1a(st.traceJson.data(), st.traceJson.size());
        }
        st.flightDumps = tracer->dumps();

        // Unified metrics snapshot, registered in one fixed order so
        // the packed column is byte-stable: stats fields by their
        // schema name, the tracer's own counts, two summaries.
        trace::MetricsRegistry reg;
        registerStats(reg, st,
                      {"events_executed", "dispatch_calls", "train_edges",
                       "trains_scheduled", "clock_cycles", "slab_slots",
                       "slab_live_peak", "heap_callbacks", "fault_events",
                       "bus_resets", "runaway_kills", "retries",
                       "recovered_tx", "abandoned_tx", "trace_events",
                       "flight_dumps"});
        reg.counter(
            "watchdog_rescues",
            tracer->countOf(trace::EventKind::WatchdogRescue));
        reg.counter("arb_losses",
                    tracer->countOf(trace::EventKind::ArbLoss));
        reg.counter(
            "interjections",
            tracer->countOf(trace::EventKind::InterjectRequest));
        registerStats(reg, st, {"goodput_bps", "energy_per_sample_j"});
        if (!st.txLatenciesS.empty())
            reg.histogram("tx_latency_s", st.txLatenciesS);
        std::uint64_t edgeSum = 0;
        for (auto e : st.perNodeEdges)
            edgeSum += e;
        reg.counter("node_edges_total", edgeSum);
        st.metrics = reg.samples();

        simulator.setTracer(nullptr);
    }
    return st;
}

} // namespace sweep
} // namespace mbus
