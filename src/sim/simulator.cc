#include "sim/simulator.hh"

namespace mbus {
namespace sim {

SimTime
Simulator::run(SimTime limit)
{
    stopRequested_ = false;
    // step() advances now_ to the event time *before* the callback
    // runs, so callbacks observe the correct current time.
    while (!stopRequested_) {
        EventQueue::Step r = queue_.step(limit, now_);
        if (r == EventQueue::Step::Executed)
            continue;
        if (r == EventQueue::Step::BeyondLimit) {
            now_ = limit;
            return now_;
        }
        break; // Drained.
    }
    // The queue drained before the limit: idle time still passes
    // (leakage integration depends on this).
    if (!stopRequested_ && limit != kTimeForever && now_ < limit)
        now_ = limit;
    return now_;
}

} // namespace sim
} // namespace mbus
