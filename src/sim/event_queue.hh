/**
 * @file
 * The discrete-event queue at the heart of the simulation kernel.
 *
 * Events are callables scheduled at absolute simulated times. Events
 * scheduled for the same time fire in scheduling order (FIFO), which
 * keeps simulations deterministic. Scheduling returns a handle that
 * can cancel the event before it fires; cancellation is O(1).
 *
 * Storage design: event payloads live in a slab of fixed slots --
 * address-stable 256-slot chunks recycled through a free list -- and
 * the time-ordered index is a binary min-heap of plain-old-data
 * entries {when, seq, slot}. The globally unique 64-bit schedule
 * sequence number doubles as the slot generation: each slot tags
 * itself with the seq of its current occupant, so a handle {queue,
 * slot, seq} or a heap entry is stale exactly when the tag no longer
 * matches -- O(1) cancel, lazy removal at pop time, and no ABA ever
 * (a 64-bit seq cannot wrap in practice). Because chunks
 * never move, callbacks execute in place in their slot. Combined with
 * the small-buffer-optimized EventCallback, steady-state scheduling
 * performs zero heap allocations: slots, heap storage and callback
 * bytes are all reused.
 *
 * Front slot: the earliest entry is kept in `front_`, beside the
 * heap, whenever it was pushed ahead of everything queued. On a ring
 * most steps pop the entry the previous step pushed (the next hop of
 * the same edge), so that entry never enters the heap: no siftUp on
 * push, no siftDown on pop. Invariant: front_ is never later, in
 * (when, seq) order, than any heap entry -- stale entries included --
 * so the earliest live entry is front_ if it is live and the heap top
 * otherwise, and dispatch order is exactly (when, seq) as before.
 *
 * Struct-of-arrays hot path: the per-slot generation tags
 * (occupiedSeq / entrySeq) are NOT stored in the 64+-byte Event slots
 * but in two dense parallel arrays indexed by slot number. The
 * staleness chase in skipStale() -- the single hottest loop in
 * dispatch -- then touches only the heap array and one contiguous
 * u64 array (8 tags per cache line) instead of striding a cold Event
 * slot per probe. Invariants of the split layout:
 *
 *  - occupiedSeq_[s] / entrySeq_[s] are defined for every s <
 *    totalSlots_ and resized (only) in addChunk(), so the arrays
 *    always cover exactly the slots the chunked slab owns;
 *  - unlike Event chunks the tag arrays DO relocate when they grow:
 *    tag access is by index, never by cached pointer/reference, and
 *    any code that runs a user callback (which may schedule and grow
 *    the slab) must re-index afterwards -- `Event &` references stay
 *    valid across growth, tag references do not;
 *  - the tag values and their meaning (0 = free / no entry, matching
 *    seq = live) are unchanged from the AoS layout; only residence
 *    moved.
 *
 * Edge trains: in addition to plain one-shot events, the queue can
 * hold an *edge train* -- one slab event standing for up to 2^32
 * alternating edge deliveries to an EdgeSink, spaced a fixed period
 * apart. The train occupies one slot and (at most) one heap entry
 * for its whole life; each dispatch delivers the next edge and
 * advances the stored state in place, so the kernel-event cost of a
 * K-edge train is O(1) instead of O(K). Two flavors:
 *
 *  - a *self* train (scheduleEdgeTrain) fires every edge
 *    unconditionally -- the shape of a clock generator that owns its
 *    own rhythm. After each delivery the train re-enters the heap
 *    with a fresh sequence number, drawn right after the sink's
 *    callback returns: the same tie-break position a callback that
 *    reschedules itself as its last statement would produce, so
 *    same-time ordering is identical to the discrete equivalent.
 *
 *  - a *speculative* train (scheduleSpeculativeEdgeTrain) predicts
 *    edges that some upstream process is expected to keep producing.
 *    Only a *confirmed* head edge ever sits in the heap; after it
 *    fires the train goes dormant until confirmTrain() re-arms the
 *    next edge (drawing its seq at the confirmation moment -- again
 *    exactly where the discrete equivalent would draw it). An edge
 *    that is never confirmed never fires, so a mispredicted train is
 *    dropped, never replayed: semantics stay bit-identical to
 *    discrete scheduling by construction.
 *
 * Accounting: a train counts as ONE executed kernel event (on its
 * first delivered edge); per-edge deliveries are tallied separately
 * in trainEdgesDelivered(). Cancelling a train refunds every
 * remaining (undelivered) edge from live accounting in one step.
 *
 * The hot path (schedule / step / confirmTrain) is header-inline by
 * design: event dispatch is the single hottest code in the simulator
 * and must not pay a cross-TU call per event.
 */

#ifndef MBUS_SIM_EVENT_QUEUE_HH
#define MBUS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace mbus {
namespace sim {

class EventQueue;

/**
 * A cancellable reference to a scheduled event.
 *
 * Handles are cheap to copy and may outlive the event; cancelling an
 * already-fired or already-cancelled event is a harmless no-op. A
 * handle must not be used after its EventQueue has been destroyed.
 *
 * A handle to an edge train stays valid for the whole train: cancel()
 * drops every undelivered edge (refunding them from live accounting),
 * and the train-specific calls below manage the speculative life
 * cycle.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the referenced event (all remaining train edges). */
    inline void cancel();

    /** @return true if this handle references a still-pending event
     *  (for trains: any undelivered edge remains, queued or dormant). */
    inline bool pending() const;

    /**
     * Confirm the next edge of a dormant speculative train: the edge
     * enters the heap now, with a tie-break sequence drawn at this
     * call (the position a discrete schedule here would get).
     *
     * @return false if the handle is stale, the train is exhausted,
     *         or its head is already queued (caller should fall back
     *         to discrete scheduling).
     */
    inline bool confirmTrainEdge();

    /**
     * Split a speculative train: keep the confirmed in-flight head
     * (if any) -- it still fires, preserving transport-delay
     * semantics -- and drop every unconfirmed edge after it.
     *
     * @return the number of edges dropped (refunded).
     */
    inline std::uint32_t truncateTrainToHead();

  private:
    friend class EventQueue;

    EventHandle(EventQueue *queue, std::uint32_t slot, std::uint64_t seq)
        : queue_(queue), slot_(slot), seq_(seq)
    {}

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * A time-ordered queue of pending events.
 *
 * The queue owns no notion of "now"; the Simulator drives it and
 * maintains current time. Same-time events pop in insertion order.
 */
class EventQueue
{
  public:
    /** Outcome of a bounded dispatch step. */
    enum class Step : std::uint8_t {
        Executed,    ///< An event at or before the limit fired.
        BeyondLimit, ///< The earliest live event is past the limit.
        Drained,     ///< No live events remain.
    };

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to fire at absolute time @p when.
     *
     * The callable is constructed directly in its slab slot (no
     * intermediate EventCallback relocation).
     *
     * @param when Absolute simulated time, in picoseconds.
     * @param fn The callback to execute (anything invocable with no
     *        arguments, or an EventCallback).
     * @return A handle that can cancel the event.
     */
    template <typename F>
    EventHandle
    schedule(SimTime when, F &&fn)
    {
        const std::uint32_t slot = acquireSlot();
        Event &ev = slotRef(slot);
        ev.fn.assign(std::forward<F>(fn));
        if (ev.fn.onHeap())
            ++heapCallbacks_;

        const std::uint64_t seq = ++nextSeq_;
        occupiedSeq_[slot] = seq;
        entrySeq_[slot] = seq;
        push(HeapEntry{when, seq, slot});
        if (++live_ > liveHighWater_)
            liveHighWater_ = live_;
        return EventHandle(this, slot, seq);
    }

    /**
     * Fast path for wire-edge delivery: schedules @p sink.onEdge(value)
     * with no closure construction at the call site.
     */
    EventHandle
    scheduleEdge(SimTime when, EdgeSink &sink, bool value)
    {
        return schedule(when, EventCallback::edge(sink, value));
    }

    /**
     * Schedule a self edge train: @p count alternating edges starting
     * with @p firstValue at @p firstWhen, then every @p period. One
     * slab event covers the whole train; every edge fires.
     */
    EventHandle
    scheduleEdgeTrain(SimTime firstWhen, SimTime period,
                      std::uint32_t count, EdgeSink &sink,
                      bool firstValue)
    {
        return scheduleTrain(firstWhen, period, count, sink, firstValue,
                             /*speculative=*/false);
    }

    /**
     * Schedule a speculative edge train. The first edge is confirmed
     * by this call (the caller *is* the producer of that edge); every
     * later edge stays dormant until confirmTrain(), and is silently
     * dropped with the rest of the train if never confirmed.
     */
    EventHandle
    scheduleSpeculativeEdgeTrain(SimTime firstWhen, SimTime period,
                                 std::uint32_t count, EdgeSink &sink,
                                 bool firstValue)
    {
        return scheduleTrain(firstWhen, period, count, sink, firstValue,
                             /*speculative=*/true);
    }

    /**
     * Execute the earliest live event if it is at or before @p limit.
     *
     * This is the fused dispatch step the Simulator's run loops use:
     * one heap scan decides emptiness, limit, and execution.
     *
     * @param limit Inclusive time bound.
     * @param firedAt Set to the event time when Step::Executed --
     *        and set *before* the callback runs, so the caller may
     *        pass its "now" and callbacks observe the event time
     *        (untouched otherwise).
     */
    Step
    step(SimTime limit, SimTime &firedAt)
    {
        skipStale();
        HeapEntry top;
        if (hasFront_) {
            top = front_;
            if (top.when > limit)
                return Step::BeyondLimit;
            hasFront_ = false;
        } else {
            if (heap_.empty())
                return Step::Drained;
            top = heap_.front();
            if (top.when > limit)
                return Step::BeyondLimit;
            popHeapTop();
        }
        firedAt = top.when;

        Event &ev = slotRef(top.slot);
        if (ev.trainRemaining > 0) {
            dispatchTrainEdge(ev, top);
            return Step::Executed;
        }

        // Clear the tag before firing: from the callback's own point
        // of view the event is no longer pending, and cancel() on
        // its own handle is a no-op (the previous design's
        // fired-flag semantics).
        occupiedSeq_[top.slot] = 0;
        entrySeq_[top.slot] = 0;
        --live_;
        ++executed_;
        // Chunks are address-stable, so the callback runs in place
        // even if it schedules events (possibly growing the slab).
        ev.fn();
        ev.fn.reset();
        releaseSlot(top.slot);
        return Step::Executed;
    }

    /** @return true if no fireable events remain (dormant speculative
     *  trains -- which cannot fire without external confirmation --
     *  do not count). */
    bool empty() const { return live_ == 0; }

    /** @return the number of live (fireable) pending events: plain
     *  events, every remaining self-train edge, and confirmed
     *  speculative heads. */
    std::uint64_t size() const { return live_; }

    /** @return the time of the earliest live event, or kTimeForever. */
    SimTime
    nextTime() const
    {
        skipStale();
        if (hasFront_)
            return front_.when;
        return heap_.empty() ? kTimeForever : heap_.front().when;
    }

    /**
     * Pop and execute the earliest live event.
     *
     * @return the time of the executed event.
     * @pre !empty()
     */
    SimTime executeNext();

    /** Kernel events executed so far. A train counts once (on its
     *  first delivered edge), however many edges it replays: this is
     *  the scheduler-operation metric events/bit reduces on. */
    std::uint64_t executedCount() const { return executed_; }

    // --- Pool introspection (tests, stats) --------------------------

    /** Number of event slots in the slab (grows, never shrinks). */
    std::size_t slabSlots() const { return totalSlots_; }

    /** Times the slab grew by a chunk. */
    std::uint64_t slabGrowths() const { return slabGrowths_; }

    /** Scheduled callbacks whose closure spilled to the heap. */
    std::uint64_t heapCallbackCount() const { return heapCallbacks_; }

    /** Peak simultaneous live events (slab occupancy high-water):
     *  the sizing signal for the slab, surfaced through the metrics
     *  registry. A train counts as one (speculative) or @c count
     *  (self) live events, matching size(). */
    std::uint64_t liveHighWater() const { return liveHighWater_; }

    // --- Train introspection ----------------------------------------

    /** Edge trains scheduled so far (both flavors). */
    std::uint64_t trainsScheduled() const { return trainsScheduled_; }

    /** Individual edges delivered through trains. */
    std::uint64_t trainEdgesDelivered() const { return trainEdges_; }

    /** Undelivered edges across all pending trains (dormant tails
     *  included); cancellation refunds a train's share in full. */
    std::uint64_t pendingTrainEdges() const { return pendingTrainEdges_; }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    struct Event
    {
        EventCallback fn; ///< Plain events only; empty for trains.
        // Generation tags (occupiedSeq / entrySeq) live in the dense
        // parallel arrays below, not here: see the SoA notes in the
        // file header.

        // Train state (trainRemaining > 0 marks a train event).
        EdgeSink *trainSink = nullptr;
        SimTime trainPeriod = 0;
        SimTime trainNextWhen = 0;
        std::uint32_t trainRemaining = 0;
        bool trainNextValue = false;
        bool trainSpeculative = false;
        bool trainHeadQueued = false;
        bool trainCounted = false; ///< Counted in executed_ yet?

        std::uint32_t nextFree = kNoSlot;
    };

    /** POD index entry; stale when seq no longer tags the slot. */
    struct HeapEntry
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        earlierThan(const HeapEntry &other) const
        {
            if (when != other.when)
                return when < other.when;
            return seq < other.seq;
        }
    };

    Event &
    slotRef(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    const Event &
    slotRef(std::uint32_t slot) const
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    std::uint32_t
    acquireSlot()
    {
        std::uint32_t slot;
        if (freeHead_ != kNoSlot) {
            slot = freeHead_;
            freeHead_ = slotRef(slot).nextFree;
        } else {
            if (totalSlots_ == (chunks_.size() << kChunkShift))
                addChunk();
            slot = totalSlots_++;
        }
        return slot;
    }

    void
    releaseSlot(std::uint32_t slot)
    {
        Event &ev = slotRef(slot);
        ev.nextFree = freeHead_;
        freeHead_ = slot;
    }

    void
    clearTrain(Event &ev)
    {
        ev.trainSink = nullptr;
        ev.trainPeriod = 0;
        ev.trainNextWhen = 0;
        ev.trainRemaining = 0;
        ev.trainHeadQueued = false;
        ev.trainSpeculative = false;
        ev.trainCounted = false;
    }

    EventHandle
    scheduleTrain(SimTime firstWhen, SimTime period, std::uint32_t count,
                  EdgeSink &sink, bool firstValue, bool speculative)
    {
        if (count == 0)
            return EventHandle();
        const std::uint32_t slot = acquireSlot();
        Event &ev = slotRef(slot);
        const std::uint64_t seq = ++nextSeq_;
        occupiedSeq_[slot] = seq;
        entrySeq_[slot] = seq;
        ev.trainSink = &sink;
        ev.trainPeriod = period;
        ev.trainNextWhen = firstWhen;
        ev.trainRemaining = count;
        ev.trainNextValue = firstValue;
        ev.trainSpeculative = speculative;
        ev.trainHeadQueued = true;
        ev.trainCounted = false;
        push(HeapEntry{firstWhen, seq, slot});
        live_ += speculative ? 1 : count;
        if (live_ > liveHighWater_)
            liveHighWater_ = live_;
        pendingTrainEdges_ += count;
        ++trainsScheduled_;
        return EventHandle(this, slot, seq);
    }

    /**
     * Deliver the next edge of a train whose head entry was just
     * popped, then advance the train in place. Self trains re-enter
     * the heap with a seq drawn after the callback returns (the
     * discrete self-reschedule tie-break position); speculative
     * trains go dormant until confirmed.
     */
    void
    dispatchTrainEdge(Event &ev, const HeapEntry &top)
    {
        const std::uint64_t occ = occupiedSeq_[top.slot];
        EdgeSink &sink = *ev.trainSink;
        const bool value = ev.trainNextValue;
        if (!ev.trainCounted) {
            ev.trainCounted = true;
            ++executed_;
        }
        --ev.trainRemaining;
        --live_;
        --pendingTrainEdges_;
        ++trainEdges_;
        ev.trainNextValue = !value;
        ev.trainNextWhen = top.when + ev.trainPeriod;
        entrySeq_[top.slot] = 0;
        ev.trainHeadQueued = false;
        sink.onEdge(value);
        // The callback may have cancelled the train (and the slot may
        // even have been reacquired); touch nothing if so. Re-index
        // the tag arrays: the callback may have grown the slab and
        // relocated them (ev itself is chunk-stable).
        if (occupiedSeq_[top.slot] != occ)
            return;
        if (ev.trainRemaining == 0) {
            occupiedSeq_[top.slot] = 0;
            clearTrain(ev);
            releaseSlot(top.slot);
            return;
        }
        if (!ev.trainSpeculative) {
            const std::uint64_t seq = ++nextSeq_;
            entrySeq_[top.slot] = seq;
            ev.trainHeadQueued = true;
            push(HeapEntry{ev.trainNextWhen, seq, top.slot});
        }
        // Speculative: dormant until confirmTrain().
    }

    bool
    isPending(std::uint32_t slot, std::uint64_t seq) const
    {
        return slot < totalSlots_ && occupiedSeq_[slot] == seq;
    }

    void cancel(std::uint32_t slot, std::uint64_t seq);

    /** Re-arm the next edge of a dormant speculative train (inline:
     *  every confirmed ring hop calls it). */
    bool
    confirmTrain(std::uint32_t slot, std::uint64_t seq)
    {
        if (!isPending(slot, seq))
            return false;
        Event &ev = slotRef(slot);
        if (ev.trainRemaining == 0 || !ev.trainSpeculative ||
            ev.trainHeadQueued) {
            return false;
        }
        const std::uint64_t fresh = ++nextSeq_;
        entrySeq_[slot] = fresh;
        ev.trainHeadQueued = true;
        ++live_;
        push(HeapEntry{ev.trainNextWhen, fresh, slot});
        return true;
    }

    std::uint32_t truncateTrainToHead(std::uint32_t slot,
                                      std::uint64_t seq);

    void addChunk();

    bool
    isStale(const HeapEntry &e) const
    {
        return entrySeq_[e.slot] != e.seq;
    }

    /** Index an entry: it takes the front slot if it beats everything
     *  queued (the previous front, if any, moves into the heap), and
     *  goes into the heap otherwise. Keeps front_ no later than any
     *  heap entry, stale ones included. */
    void
    push(const HeapEntry &entry)
    {
        if (hasFront_) {
            if (!entry.earlierThan(front_)) {
                heapPush(entry);
                return;
            }
            heapPush(front_);
        } else if (!heap_.empty() && !entry.earlierThan(heap_.front())) {
            heapPush(entry);
            return;
        }
        front_ = entry;
        hasFront_ = true;
    }

    void
    heapPush(const HeapEntry &entry)
    {
        heap_.push_back(entry);
        siftUp(heap_.size() - 1);
    }

    /** Drop stale (cancelled / superseded) entries from the front slot
     *  and the heap head, until the earliest entry is live. SoA hot
     *  loop: touches front_, heap_ and the dense entrySeq_ array only
     *  -- never the cold Event slots. */
    void
    skipStale() const
    {
        if (hasFront_) {
            if (!isStale(front_))
                return;
            hasFront_ = false;
        }
        while (!heap_.empty() && isStale(heap_.front()))
            popHeapTop();
    }

    void
    siftUp(std::size_t i)
    {
        HeapEntry entry = heap_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!entry.earlierThan(heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = entry;
    }

    void
    siftDown(std::size_t i) const
    {
        const std::size_t n = heap_.size();
        HeapEntry entry = heap_[i];
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                heap_[child + 1].earlierThan(heap_[child])) {
                ++child;
            }
            if (!heap_[child].earlierThan(entry))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = entry;
    }

    void
    popHeapTop() const
    {
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }

    /** The earliest entry, kept out of the heap while hasFront_: a
     *  step that pops what the previous step pushed then costs no
     *  sift at all. Never later than any heap entry. */
    mutable HeapEntry front_{};
    mutable bool hasFront_ = false;
    mutable std::vector<HeapEntry> heap_;
    std::vector<std::unique_ptr<Event[]>> chunks_;
    /** Hot generation tags, parallel to the slab (index = slot; see
     *  the SoA notes in the file header). Grown in addChunk() only. */
    std::vector<std::uint64_t> occupiedSeq_;
    std::vector<std::uint64_t> entrySeq_;
    std::uint32_t totalSlots_ = 0;
    std::uint32_t freeHead_ = kNoSlot;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t live_ = 0;
    std::uint64_t liveHighWater_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t slabGrowths_ = 0;
    std::uint64_t heapCallbacks_ = 0;
    std::uint64_t trainsScheduled_ = 0;
    std::uint64_t trainEdges_ = 0;
    std::uint64_t pendingTrainEdges_ = 0;
};

inline void
EventHandle::cancel()
{
    if (queue_)
        queue_->cancel(slot_, seq_);
}

inline bool
EventHandle::pending() const
{
    return queue_ && queue_->isPending(slot_, seq_);
}

inline bool
EventHandle::confirmTrainEdge()
{
    return queue_ && queue_->confirmTrain(slot_, seq_);
}

inline std::uint32_t
EventHandle::truncateTrainToHead()
{
    return queue_ ? queue_->truncateTrainToHead(slot_, seq_) : 0;
}

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_EVENT_QUEUE_HH
