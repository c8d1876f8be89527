/**
 * @file
 * Randomized differential test of the event queue's dispatch order.
 *
 * A model kept by the test -- a std::set of (when, draw#) keys whose
 * draw counter advances exactly where the queue draws a sequence
 * number -- predicts every dispatch. Random schedules and cancels run
 * between steps and from inside callbacks (delay-0 schedules
 * included), beside self and speculative edge trains that are
 * confirmed, truncated and cancelled at random. Every fired event
 * must be the model's earliest key; step() results under random
 * limits, nextTime(), size(), pendingTrainEdges(), pending() and the
 * confirm/truncate return values must agree with the model too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace mbus::sim;

namespace {

struct Harness;

/** A model train; also the queue's sink for it. */
struct Train final : EdgeSink
{
    Harness *h = nullptr;
    std::size_t id = 0;
    EventHandle handle;
    bool speculative = false;
    bool alive = true; ///< Holds its slot: what pending() reports.
    bool headQueued = true;
    std::uint32_t remaining = 0;
    SimTime period = 0;
    SimTime nextWhen = 0;
    bool nextValue = false;
    std::uint64_t headDraw = 0;

    void onEdge(bool value) override;
};

struct Plain
{
    EventHandle handle;
    bool pending = true;
    SimTime when = 0;
    std::uint64_t draw = 0;
};

/** What a model key stands for. */
struct Who
{
    bool train;
    std::size_t index;
};

struct Harness
{
    EventQueue q;
    Random rng;
    SimTime now = 0;
    std::uint64_t draws = 0;
    std::set<std::pair<SimTime, std::uint64_t>> model;
    std::map<std::uint64_t, Who> who;
    std::vector<Plain> plains;
    std::vector<std::unique_ptr<Train>> trains;
    Train *firedTrain = nullptr;
    std::uint64_t fired = 0;
    std::size_t budget;

    Harness(std::uint64_t seed, std::size_t budget_)
        : rng(seed), budget(budget_)
    {
    }

    void
    insert(SimTime when, Who w)
    {
        const std::uint64_t draw = ++draws;
        model.emplace(when, draw);
        who.emplace(draw, w);
        if (w.train)
            trains[w.index]->headDraw = draw;
        else
            plains[w.index].draw = draw;
    }

    void
    erase(SimTime when, std::uint64_t draw)
    {
        model.erase({when, draw});
        who.erase(draw);
    }

    /** The queue dispatched @p w at now: it must be the model's
     *  earliest key. */
    void
    expectNext(Who w)
    {
        ASSERT_FALSE(model.empty());
        const auto head = *model.begin();
        const Who expect = who.at(head.second);
        ASSERT_EQ(head.first, now) << "dispatch " << fired;
        ASSERT_EQ(expect.train, w.train) << "dispatch " << fired;
        ASSERT_EQ(expect.index, w.index) << "dispatch " << fired;
        erase(head.first, head.second);
        ++fired;
    }

    SimTime
    randomDelay()
    {
        switch (rng.below(4)) {
          case 0: return 0;
          case 1: return rng.between(1, 3);
          case 2: return rng.between(0, 40);
          default: return rng.between(0, 1000);
        }
    }

    void
    schedulePlain()
    {
        const std::size_t i = plains.size();
        plains.emplace_back();
        const SimTime when = now + randomDelay();
        plains[i].when = when;
        plains[i].handle = q.schedule(when, [this, i] { firePlain(i); });
        insert(when, Who{false, i});
    }

    void
    firePlain(std::size_t i)
    {
        expectNext(Who{false, i});
        plains[i].pending = false;
        act(2);
    }

    void
    cancelPlain(std::size_t i)
    {
        Plain &p = plains[i];
        p.handle.cancel();
        if (p.pending) {
            erase(p.when, p.draw);
            p.pending = false;
        }
    }

    void
    scheduleTrain()
    {
        const std::size_t i = trains.size();
        trains.push_back(std::make_unique<Train>());
        Train &t = *trains[i];
        t.h = this;
        t.id = i;
        t.speculative = rng.chance(0.5);
        t.remaining = static_cast<std::uint32_t>(rng.between(1, 8));
        t.period = rng.between(1, 50);
        t.nextWhen = now + randomDelay();
        t.nextValue = rng.chance(0.5);
        t.handle = t.speculative
                       ? q.scheduleSpeculativeEdgeTrain(
                             t.nextWhen, t.period, t.remaining, t,
                             t.nextValue)
                       : q.scheduleEdgeTrain(t.nextWhen, t.period,
                                             t.remaining, t, t.nextValue);
        insert(t.nextWhen, Who{true, i});
    }

    void
    confirm(Train &t)
    {
        const bool expect = t.alive && t.remaining > 0 &&
                            t.speculative && !t.headQueued;
        ASSERT_EQ(t.handle.confirmTrainEdge(), expect) << "train " << t.id;
        if (expect) {
            t.headQueued = true;
            insert(t.nextWhen, Who{true, t.id});
        }
    }

    void
    truncate(Train &t)
    {
        std::uint32_t expect = 0;
        if (t.alive && t.remaining > 0) {
            if (t.headQueued) {
                expect = t.remaining - 1;
                t.remaining = 1;
            } else {
                expect = t.remaining;
                t.alive = false;
            }
        }
        ASSERT_EQ(t.handle.truncateTrainToHead(), expect)
            << "train " << t.id;
    }

    void
    cancel(Train &t)
    {
        t.handle.cancel();
        if (t.alive && t.headQueued)
            erase(t.nextWhen, t.headDraw);
        t.alive = false;
    }

    /** Up to @p most random actions, in a callback or between steps. */
    void
    act(std::uint64_t most)
    {
        const std::uint64_t n = rng.below(most + 1);
        for (std::uint64_t k = 0; k < n; ++k) {
            const std::uint64_t r = rng.below(100);
            if (r < 35) {
                if (budget > 0) {
                    --budget;
                    schedulePlain();
                }
            } else if (r < 45) {
                if (!plains.empty())
                    cancelPlain(rng.below(plains.size()));
            } else if (r < 55) {
                if (budget > 0) {
                    --budget;
                    scheduleTrain();
                }
            } else if (r < 80) {
                if (!trains.empty())
                    confirm(*trains[rng.below(trains.size())]);
            } else if (r < 88) {
                if (!trains.empty())
                    truncate(*trains[rng.below(trains.size())]);
            } else if (r < 93) {
                if (!trains.empty())
                    cancel(*trains[rng.below(trains.size())]);
            }
        }
    }

    /** After a step: a self train whose edge fired re-enters the
     *  queue (drawing after its callback returned); an exhausted
     *  train gives up its slot. */
    void
    afterStep()
    {
        Train *t = firedTrain;
        firedTrain = nullptr;
        if (t == nullptr || !t->alive)
            return;
        if (t->remaining == 0) {
            t->alive = false;
            return;
        }
        if (!t->speculative) {
            t->headQueued = true;
            insert(t->nextWhen, Who{true, t->id});
        }
    }

    void
    checkAccounting()
    {
        std::uint64_t live = 0;
        std::uint64_t trainEdges = 0;
        for (const Plain &p : plains) {
            live += p.pending ? 1 : 0;
            ASSERT_EQ(p.handle.pending(), p.pending);
        }
        for (const auto &t : trains) {
            ASSERT_EQ(t->handle.pending(), t->alive) << "train " << t->id;
            if (!t->alive)
                continue;
            trainEdges += t->remaining;
            if (t->speculative)
                live += t->headQueued ? 1 : 0;
            else
                live += t->remaining;
        }
        ASSERT_EQ(q.size(), live);
        ASSERT_EQ(q.pendingTrainEdges(), trainEdges);
        ASSERT_EQ(q.nextTime(),
                  model.empty() ? kTimeForever : model.begin()->first);
    }

    /** One top-level step under a random limit. @return false once
     *  drained. */
    bool
    step()
    {
        SimTime limit = kTimeForever;
        EventQueue::Step expect = EventQueue::Step::Drained;
        if (!model.empty()) {
            const SimTime head = model.begin()->first;
            if (head > now && rng.chance(0.1)) {
                limit = rng.between(now, head - 1);
                expect = EventQueue::Step::BeyondLimit;
            } else {
                limit = rng.chance(0.5) ? head : head + rng.below(100);
                expect = EventQueue::Step::Executed;
            }
        }
        const EventQueue::Step got = q.step(limit, now);
        EXPECT_EQ(got, expect) << "after dispatch " << fired;
        afterStep();
        return got != EventQueue::Step::Drained;
    }
};

void
Train::onEdge(bool value)
{
    h->expectNext(Who{true, id});
    EXPECT_EQ(value, nextValue) << "train " << id;
    --remaining;
    nextValue = !value;
    nextWhen = h->now + period;
    headQueued = false;
    h->firedTrain = this;
    h->act(2);
}

TEST(QueueOrder, RandomScheduleCancelAndTrainsMatchAnOrderedSetModel)
{
    std::uint64_t totalFired = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Harness h(seed, 3000);
        std::uint64_t steps = 0;
        do {
            h.act(3);
            // The full handle scan is O(events): every 16th step.
            if (steps++ % 16 == 0)
                h.checkAccounting();
            if (::testing::Test::HasFatalFailure() ||
                ::testing::Test::HasNonfatalFailure())
                return;
        } while (h.step() || h.budget > 0);
        // Drained with the budget spent: only dormant speculative
        // trains may remain.
        EXPECT_TRUE(h.model.empty());
        EXPECT_TRUE(h.q.empty());
        totalFired += h.fired;
    }
    // The model must have seen real traffic, not a trivial run.
    EXPECT_GT(totalFired, 40u * 2000u);
}

} // namespace
