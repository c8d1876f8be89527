/**
 * @file
 * The Simulator: current time plus the event queue, with run control.
 *
 * The simulator is an ordinary object, not a global. Every simulated
 * component holds a reference to the Simulator it lives in, which
 * keeps independent simulations (e.g. parameter sweeps in tests)
 * fully isolated and trivially parallelisable at the process level.
 */

#ifndef MBUS_SIM_SIMULATOR_HH
#define MBUS_SIM_SIMULATOR_HH

#include <cstdint>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/interner.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace mbus {
namespace trace {
class Tracer;
} // namespace trace

namespace sim {

/**
 * Discrete-event simulator: a clock and an event queue.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return the current simulated time in picoseconds. */
    SimTime now() const { return now_; }

    /**
     * Schedule a callback after a relative delay.
     *
     * @param delay Picoseconds from now (0 fires after the current
     *              event completes, still at the same timestamp).
     * @param fn Callback to run.
     */
    template <typename F>
    EventHandle
    schedule(SimTime delay, F &&fn)
    {
        return queue_.schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedule a callback at an absolute time (must be >= now). */
    template <typename F>
    EventHandle
    scheduleAt(SimTime when, F &&fn)
    {
        if (when < now_)
            mbus_panic("scheduling into the past: ", when, " < ", now_);
        return queue_.schedule(when, std::forward<F>(fn));
    }

    /**
     * Fast path for delayed edge delivery: fires sink.onEdge(value)
     * after @p delay with zero closure construction or allocation.
     */
    EventHandle
    scheduleEdge(SimTime delay, EdgeSink &sink, bool value)
    {
        return queue_.scheduleEdge(now_ + delay, sink, value);
    }

    /**
     * Schedule a self edge train (see EventQueue::scheduleEdgeTrain):
     * @p count alternating edges, the first after @p delay, then one
     * every @p period -- all carried by a single kernel event.
     */
    EventHandle
    scheduleEdgeTrain(SimTime delay, SimTime period, std::uint32_t count,
                      EdgeSink &sink, bool firstValue)
    {
        return queue_.scheduleEdgeTrain(now_ + delay, period, count,
                                        sink, firstValue);
    }

    /**
     * Schedule a speculative edge train (see
     * EventQueue::scheduleSpeculativeEdgeTrain): the first edge is
     * confirmed by this call; later edges fire only once confirmed
     * through the returned handle.
     */
    EventHandle
    scheduleSpeculativeEdgeTrain(SimTime delay, SimTime period,
                                 std::uint32_t count, EdgeSink &sink,
                                 bool firstValue)
    {
        return queue_.scheduleSpeculativeEdgeTrain(now_ + delay, period,
                                                   count, sink,
                                                   firstValue);
    }

    /**
     * Run until the event queue drains or @p limit is reached.
     *
     * @param limit Absolute stop time; events at exactly @p limit
     *              still execute.
     * @return the final simulated time.
     */
    SimTime run(SimTime limit = kTimeForever);

    /**
     * Run until @p done returns true, the queue drains, or @p limit
     * passes. The predicate is checked after every event, so it is a
     * template parameter: inlined into the loop, not called through a
     * type-erased wrapper per event.
     *
     * @return true if the predicate was satisfied.
     */
    template <typename Pred>
    bool
    runUntil(Pred &&done, SimTime limit = kTimeForever)
    {
        stopRequested_ = false;
        if (done())
            return true;
        while (!stopRequested_) {
            EventQueue::Step r = queue_.step(limit, now_);
            if (r == EventQueue::Step::Executed) {
                if (done())
                    return true;
                continue;
            }
            if (r == EventQueue::Step::BeyondLimit) {
                now_ = limit;
                return done();
            }
            break; // Drained.
        }
        // No events can change the predicate any more; idle out to the
        // limit before the final check.
        if (!stopRequested_ && limit != kTimeForever && now_ < limit)
            now_ = limit;
        return done();
    }

    /** Request that run() return after the current event. */
    void stop() { stopRequested_ = true; }

    /** @return true if any events remain pending. */
    bool hasPendingEvents() const { return !queue_.empty(); }

    /** Total events executed since construction. */
    std::uint64_t eventsExecuted() const { return queue_.executedCount(); }

    /** The event store (pool introspection for tests and stats). */
    const EventQueue &queue() const { return queue_; }

    /** Name interner shared by this simulation's components. */
    StringInterner &names() { return names_; }
    const StringInterner &names() const { return names_; }

    /**
     * This simulation's RNG stream. Components that need randomness
     * (workload generators, fault schedules) draw from here so that a
     * whole run is a pure function of the seed; sweep cells reseed it
     * with Random::split-derived seeds for solo replayability.
     */
    Random &rng() { return rng_; }

    /** Reseed the simulation's RNG stream (typically once, at setup). */
    void seedRng(std::uint64_t seed) { rng_ = Random(seed); }

    /**
     * The protocol tracer attached to this simulation, or nullptr --
     * the common case. Tracing is strictly opt-in: runScenario()
     * constructs a trace::Tracer only when the cell's TraceConfig
     * asks for one, so with tracing off the only cost anywhere is
     * this null check at each emission site:
     *
     *     if (auto *t = sim.tracer())
     *         t->record(trace::EventKind::ArbWin, node);
     *
     * The tracer is purely observational (see trace/trace.hh); it
     * never schedules events or draws randomness, so attaching one
     * cannot change simulated behavior.
     */
    trace::Tracer *tracer() const { return tracer_; }

    /** Attach (or detach, with nullptr) the protocol tracer. */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

  private:
    EventQueue queue_;
    StringInterner names_;
    Random rng_;
    SimTime now_ = 0;
    bool stopRequested_ = false;
    trace::Tracer *tracer_ = nullptr;
};

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_SIMULATOR_HH
