/**
 * @file
 * The fleet worker loop: cells in, stats out.
 *
 * One reader thread (the caller) pulls protocol lines and feeds a
 * queue drained by M simulation threads. Per cell: content-key the
 * (spec, seed) pair, try the cache, simulate on a miss, then --
 * strictly in this order -- journal the finished cell and report it
 * up the pipe. Journal-before-report is the fleet's zero-loss
 * invariant: any cell the coordinator never hears about is either in
 * the journal (finished) or unstarted (re-queued), never in between.
 *
 * The worker writes nothing to stdout beyond protocol lines (in exec
 * mode stdout *is* the pipe); progress goes to stderr with a
 * "[shard N]" label so interleaved fleet output stays attributable.
 */

#include <condition_variable>
#include <csignal>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fleet/cache.hh"
#include "fleet/fleet.hh"
#include "fleet/journal.hh"
#include "fleet/protocol.hh"
#include "sim/cpu_placement.hh"
#include "sim/fsio.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"

namespace mbus {
namespace fleet {

namespace {

struct CellTask
{
    std::uint64_t index = 0;
    std::uint64_t seed = 0;
    std::string specBytes;
};

} // namespace

int
workerMain(int inFd, int outFd)
{
    // The coordinator may die first; a write must fail, not kill us.
    std::signal(SIGPIPE, SIG_IGN);

    LineReader in(inFd);
    std::string line;
    Msg hello;
    if (!in.readLine(line) || !parseMsg(line, hello) ||
        hello.type != "hello")
        return 1;

    const unsigned id = static_cast<unsigned>(hello.u64("worker"));
    unsigned threads = static_cast<unsigned>(hello.u64("threads"));
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    if (threads == 0)
        threads = 1;

    sweep::SweepConfig scfg;
    scfg.masterSeed = hello.u64("seed");
    scfg.threads = 1; // Parallelism lives at the task-queue level.
    const sweep::SweepDriver driver(scfg);

    CellCache cache(hello.str("cache"), hello.u64("salt"));
    Journal journal(hello.str("journal"));

    std::function<void(std::size_t, std::size_t)> progress;
    if (hello.u64("progress") != 0)
        progress = sweep::stderrProgress("shard " + std::to_string(id));

    {
        Msg ready;
        ready.type = "ready";
        ready.fields["worker"] = std::to_string(id);
        if (!writeLine(outFd, encodeMsg(ready)))
            return 1;
    }

    std::mutex queueMu;
    std::condition_variable queueCv;
    std::deque<CellTask> queue;
    bool closing = false;
    bool broken = false; // Protocol or pipe failure: bail out.

    // Journal-then-report must be atomic per cell, and pipe writes
    // must never interleave; one sink mutex covers both.
    std::mutex sinkMu;
    std::size_t cellsDone = 0;

    auto simLoop = [&] {
        for (;;) {
            CellTask task;
            {
                std::unique_lock<std::mutex> lock(queueMu);
                queueCv.wait(lock, [&] {
                    return closing || broken || !queue.empty();
                });
                if (broken || (closing && queue.empty()))
                    return;
                task = std::move(queue.front());
                queue.pop_front();
            }

            sweep::ScenarioSpec spec;
            if (!sweep::decodeSpec(task.specBytes, spec)) {
                std::lock_guard<std::mutex> lock(queueMu);
                broken = true;
                queueCv.notify_all();
                return;
            }

            const std::uint64_t key =
                cache.key(task.specBytes, task.seed);
            std::string statsBytes;
            double wall = 0;
            bool cached = cache.lookup(key, statsBytes);
            if (!cached) {
                sweep::CellResult cell =
                    driver.runCell(spec, task.index);
                statsBytes = sweep::encodeStats(cell.stats);
                wall = cell.wallSeconds;
                cache.store(key, statsBytes);
            }

            Msg done;
            done.type = "done";
            done.fields["index"] = std::to_string(task.index);
            done.fields["cached"] = cached ? "1" : "0";
            done.fields["wall"] = sim::formatDouble(wall);
            done.fields["stats"] = statsBytes;

            {
                std::lock_guard<std::mutex> lock(sinkMu);
                // Journal FIRST: once this returns, the cell
                // survives any kill, reported or not.
                journal.append(task.index, key, statsBytes);
                if (!writeLine(outFd, encodeMsg(done))) {
                    std::lock_guard<std::mutex> qlock(queueMu);
                    broken = true;
                    queueCv.notify_all();
                    return;
                }
                if (progress)
                    progress(++cellsDone, 0);
            }
        }
    };

    // Simulation thread 0 shares the worker's CPU with this mostly
    // blocked reader; thread t starts t CPUs after it.
    const int workerCpu = sim::currentCpu();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&simLoop, t, workerCpu] {
            if (t > 0)
                sim::startOnOwnCpu(t - 1, workerCpu);
            simLoop();
        });

    int rc = 0;
    for (;;) {
        if (!in.readLine(line))
            break; // Coordinator gone: finish what is queued.
        Msg msg;
        if (!parseMsg(line, msg)) {
            rc = 1;
            break;
        }
        if (msg.type == "exit")
            break;
        if (msg.type == "cell") {
            CellTask task;
            task.index = msg.u64("index");
            task.seed = msg.u64("seed");
            task.specBytes = msg.str("spec");
            std::lock_guard<std::mutex> lock(queueMu);
            queue.push_back(std::move(task));
            queueCv.notify_one();
        }
        // Unknown types are ignored (forward compatibility).
    }

    {
        std::lock_guard<std::mutex> lock(queueMu);
        closing = true;
        queueCv.notify_all();
    }
    for (std::thread &t : pool)
        t.join();
    {
        std::lock_guard<std::mutex> lock(queueMu);
        if (broken)
            rc = 1;
    }
    return rc;
}

} // namespace fleet
} // namespace mbus
