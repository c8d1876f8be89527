#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace mbus {
namespace sim {

EventQueue::EventQueue()
{
    heap_.reserve(kChunkSize);
    addChunk();
    // The constructor's chunk is baseline capacity, not growth.
    slabGrowths_ = 0;
}

void
EventQueue::addChunk()
{
    chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
    // Keep the dense tag arrays covering every slot the slab owns
    // (value 0 = free / no heap entry, same as a fresh AoS slot).
    occupiedSeq_.resize(chunks_.size() << kChunkShift, 0);
    entrySeq_.resize(chunks_.size() << kChunkShift, 0);
    ++slabGrowths_;
}

void
EventQueue::cancel(std::uint32_t slot, std::uint64_t seq)
{
    if (!isPending(slot, seq))
        return;
    Event &ev = slotRef(slot);
    if (ev.trainSink) {
        // Refund every undelivered edge in one step: self trains had
        // all of them in live accounting; a speculative train only
        // its confirmed head (if queued). A train cancelled from
        // inside its own final-edge dispatch still matches here
        // (trainRemaining already 0, sink tag not yet cleared) with
        // nothing left to refund -- the dispatch path sees the
        // occupancy change and skips its own retirement.
        pendingTrainEdges_ -= ev.trainRemaining;
        if (ev.trainSpeculative)
            live_ -= ev.trainHeadQueued ? 1 : 0;
        else
            live_ -= ev.trainRemaining;
        clearTrain(ev);
    } else {
        ev.fn.reset();
        --live_;
    }
    occupiedSeq_[slot] = 0;
    entrySeq_[slot] = 0;
    releaseSlot(slot);
    // Any heap entry stays behind; its seq no longer tags the slot,
    // so it is skipped (and dropped) at pop time.
}

std::uint32_t
EventQueue::truncateTrainToHead(std::uint32_t slot, std::uint64_t seq)
{
    if (!isPending(slot, seq))
        return 0;
    Event &ev = slotRef(slot);
    if (ev.trainRemaining == 0)
        return 0;
    if (ev.trainHeadQueued) {
        // The confirmed in-flight head still fires (transport-delay
        // semantics: its drive already happened); everything after it
        // is dropped and refunded.
        const std::uint32_t dropped = ev.trainRemaining - 1;
        pendingTrainEdges_ -= dropped;
        if (!ev.trainSpeculative)
            live_ -= dropped;
        ev.trainRemaining = 1;
        return dropped;
    }
    // Dormant: nothing is committed; drop the whole train.
    const std::uint32_t dropped = ev.trainRemaining;
    pendingTrainEdges_ -= dropped;
    if (!ev.trainSpeculative)
        live_ -= dropped;
    clearTrain(ev);
    occupiedSeq_[slot] = 0;
    entrySeq_[slot] = 0;
    releaseSlot(slot);
    return dropped;
}

SimTime
EventQueue::executeNext()
{
    SimTime when = 0;
    if (step(kTimeForever, when) != Step::Executed)
        mbus_panic("executeNext() on an empty event queue");
    return when;
}

} // namespace sim
} // namespace mbus
