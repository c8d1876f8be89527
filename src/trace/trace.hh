/**
 * @file
 * Deterministic protocol tracing and flight-recorder diagnostics.
 *
 * A Tracer is an opt-in, purely observational recorder attached to
 * one Simulator (one sweep cell). Protocol components -- the MBus
 * BusController, the I2C pump, the bit-bang and firmware FSMs, the
 * fault engine, the retry policy, power domains and the per-fabric
 * watchdogs -- emit structured events through it; the Tracer never
 * schedules events, never draws randomness, and never feeds anything
 * back into the simulation, so a traced run is bit-identical to an
 * untraced one.
 *
 * Contract (the observability determinism contract):
 *
 *  - Zero overhead when off. The tracer is owned by runScenario() and
 *    is *never constructed* unless the cell's TraceConfig asks for
 *    it; Simulator carries only a null pointer, and every emission
 *    site guards with `if (auto *t = sim.tracer())`. The golden VCDs
 *    and perf_gate pin this.
 *
 *  - Byte determinism. Each cell owns a private single-threaded
 *    Simulator, so events are recorded in execution order and the
 *    exported bytes are a pure function of (spec, seed) -- identical
 *    across sweep thread counts and solo replay, exactly like the
 *    CSV/VCD fingerprint contract. Timestamps are formatted with
 *    integer arithmetic only (no double rounding in the export).
 *
 *  - Transaction spans. beginTx()/endTx() bracket one bus
 *    transaction per node; every record() in between is attributed
 *    to that transaction id. Ids are allocated in begin order, so
 *    they replay stably too.
 *
 * Export is Chrome trace-event JSON ("traceEvents" array): load the
 * file in Perfetto (ui.perfetto.dev) or chrome://tracing. Nodes map
 * to tracks (pid 0, tid = node id), transactions and protocol phases
 * become complete ("X") spans, and point events (arbitration
 * win/loss, interjection, watchdog rescue, retry, brownout, fault
 * injection, power gating) become instants ("i").
 *
 * The flight recorder is the same event stream teed into a
 * fixed-depth ring; on a watchdog rescue, runaway kill, wedge-guard
 * trip, or an explicit trip() from a failing test, the ring is
 * snapshotted into a human-readable dump that names every transaction
 * still open -- the "last act" of a cell that died.
 */

#ifndef MBUS_TRACE_TRACE_HH
#define MBUS_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mbus {
namespace sim {
class Simulator;
} // namespace sim

namespace trace {

/** Everything the protocol layers know how to report. */
enum class EventKind : std::uint8_t {
    TxBegin,          ///< Transmission started (a=dest, b=payload bytes).
    TxEnd,            ///< Transaction finished (a=TxStatus, b=bytes).
    ArbWin,           ///< Won arbitration (a=1 when via priority).
    ArbLoss,          ///< Lost arbitration; will re-queue.
    AddrPhase,        ///< Address phase resolved (a=addr, b=bits).
    DataPhase,        ///< First payload byte latched (a=byte).
    ControlPhase,     ///< Control/interjection chain (a=code bits).
    InterjectRequest, ///< Node asked the mediator to interject (a=eom).
    InterjectDetected,///< A node observed the interjection pulse.
    WatchdogRescue,   ///< Watchdog fired a rescue reset (a=rescue
                      ///< count, b=StallRule).
    RetryAttempt,     ///< Retry policy re-sent (a=attempt, b=status).
    RetryRecovered,   ///< A retried send finally delivered (a=attempts).
    RetryAbandoned,   ///< Retries exhausted (a=attempts, b=status).
    Brownout,         ///< Mid-transaction power failure injected.
    BrownoutRecover,  ///< Power restored after a brownout.
    PowerGateOff,     ///< A power domain gated off.
    PowerGateOn,      ///< A power domain woke back up.
    ClockStretch,     ///< I2C clock stretched for a gated receiver
                      ///< (a=stretch cycles).
    FaultInject,      ///< Fault engine applied a primitive (a=op).
    Delivery,         ///< Payload handed to a receiver (a=bytes).
    WedgeGuard,       ///< The cell tripped its wedge guard.
    RunawayKill,      ///< Mediator cut a runaway message (Sec 7;
                      ///< a=kill count).
};

/** Number of EventKind values (for per-kind counters). */
constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::RunawayKill) + 1;

/** The stall rule behind a WatchdogRescue (its b argument). */
enum class StallRule : std::int32_t {
    FrozenClock = 0,      ///< Busy, with no clock progress.
    SleepingMediator = 1, ///< Clock edges while the mediator sleeps.
    NoOwner = 2,          ///< Mediator clocking a transaction that no
                          ///< transmitter drives.
};

/** @return a short stable name ("tx_begin", "arb_win", ...). */
const char *eventKindName(EventKind k);

/** One recorded protocol event. POD; 32 bytes. */
struct TraceEvent
{
    sim::SimTime at = 0;        ///< Simulated time (ps).
    std::int64_t a = 0;         ///< Kind-specific detail.
    std::int32_t b = 0;         ///< Second kind-specific detail.
    std::uint32_t tx = 0;       ///< Transaction id (0 = none).
    std::uint16_t node = 0;     ///< Ring position / bus address index.
    EventKind kind = EventKind::TxBegin;
};

/** Per-cell trace knobs (a ScenarioSpec field / sweep grid axis). */
struct TraceConfig
{
    /** Record the full event stream and export Chrome JSON. */
    bool protocol = false;

    /** Keep a flight-recorder ring and auto-dump on trips. */
    bool flight = false;

    /** Ring depth (events) when the flight recorder is on. */
    std::uint32_t flightDepth = 256;

    /** @return true when a Tracer should be constructed at all. */
    bool enabled() const { return protocol || flight; }
};

/**
 * The per-cell protocol event recorder. See the file comment for the
 * determinism contract. Construct only when TraceConfig::enabled().
 */
class Tracer
{
  public:
    /**
     * @param sim The cell's simulator (timestamps source only).
     * @param cfg Recording mode(s); at least one must be on.
     * @param nodes Ring population (tids 0..nodes-1).
     */
    Tracer(const sim::Simulator &sim, const TraceConfig &cfg, int nodes);

    // Purely observational: never copied into the simulation.
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Open a transaction span for @p node and return its id. Any
     * span still open on that node is implicitly closed first (the
     * fabrics guarantee one in-flight transmission per node, but a
     * brownout can drop an end marker).
     *
     * @param a Destination address (kind-specific detail).
     * @param b Payload length in bytes.
     */
    std::uint32_t beginTx(int node, std::int64_t a = 0,
                          std::int32_t b = 0);

    /** Close @p node's open transaction span (a=status, b=bytes).
     *  No-op when the node has none open. */
    void endTx(int node, std::int64_t status, std::int32_t bytes = 0);

    /** Record a point event attributed to @p node's open span. */
    void record(EventKind k, int node, std::int64_t a = 0,
                std::int32_t b = 0);

    /**
     * Snapshot the flight ring into a dump, naming every transaction
     * still open. Called automatically on WatchdogRescue,
     * RunawayKill and WedgeGuard records; call it manually from a
     * failing test to capture the cell's last act. No-op unless
     * flight is on.
     */
    void trip(const char *reason);

    /** All recorded events (protocol mode; empty otherwise). */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Total events seen (counted even when only the ring keeps them). */
    std::uint64_t recorded() const { return recorded_; }

    /** How many events of @p k were seen. */
    std::uint64_t countOf(EventKind k) const
    {
        return kindCounts_[static_cast<std::size_t>(k)];
    }

    /** Flight-recorder dumps produced so far, in trip order. */
    const std::vector<std::string> &dumps() const { return dumps_; }

    /**
     * The full event stream as Chrome trace-event JSON. Requires
     * protocol mode; a pure function of the recorded events, so
     * byte-identical across thread counts and replays.
     */
    std::string chromeJson() const;

    const TraceConfig &config() const { return cfg_; }

  private:
    struct OpenTx
    {
        std::uint32_t id = 0;
        sim::SimTime since = 0;
        std::int64_t dest = 0;
    };

    void push(const TraceEvent &ev);

    const sim::Simulator &sim_;
    TraceConfig cfg_;
    int nodes_;
    std::vector<TraceEvent> events_; ///< Full stream (protocol mode).
    std::vector<TraceEvent> ring_;   ///< Flight ring (flight mode).
    std::uint64_t ringHead_ = 0;     ///< Total pushes into the ring.
    std::vector<OpenTx> open_;       ///< Per-node open span.
    std::uint32_t nextTx_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t kindCounts_[kEventKindCount] = {};
    std::vector<std::string> dumps_;
};

/**
 * Format @p ps picoseconds as decimal microseconds using integer
 * arithmetic only ("12.345678") -- the timestamp format of the
 * Chrome export and flight dumps. Exact and locale-independent.
 */
std::string formatMicros(sim::SimTime ps);

} // namespace trace
} // namespace mbus

#endif // MBUS_TRACE_TRACE_HH
