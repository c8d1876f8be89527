/**
 * @file
 * The fleet coordinator: spawn, grant, steal, absorb, merge.
 *
 * Single-threaded poll(2) loop over the workers' report pipes. Cell
 * grants flow only in response to events (a worker's "ready", a
 * "done", or a death re-queue), each worker holding at most a small
 * in-flight window, so the pipes stay shallow, back-pressure is
 * automatic, and an idle worker steals from the tail of the fullest
 * shard the moment it drains its own.
 *
 * Recovery discipline (the order matters):
 *   worker dies -> absorb its journal (cells it finished but never
 *   reported become merged, not re-run) -> re-queue the remainder of
 *   its shard and its unreported in-flight cells to the orphan queue
 *   -> re-kick grants on every idle survivor.
 * The same absorb step, run against all `shard_*.journal` files at
 * startup, is whole-fleet resume.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/cache.hh"
#include "fleet/fleet.hh"
#include "fleet/journal.hh"
#include "fleet/protocol.hh"
#include "sim/cpu_placement.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"

namespace mbus {
namespace fleet {

namespace {

enum class CellState : char { Pending, Granted, Done };

struct WorkerProc
{
    unsigned id = 0;
    long pid = -1;
    int toFd = -1;   // Coordinator -> worker (grants).
    int fromFd = -1; // Worker -> coordinator (reports).
    std::unique_ptr<LineReader> reader;
    std::deque<std::uint64_t> shard; // Own queue; stolen from the back.
    std::vector<std::uint64_t> inflight;
    std::string journalPath;
    bool ready = false;
    bool alive = false;
};

/** The whole coordinator state for one runFleet() call. */
struct Coordinator
{
    const std::vector<sweep::ScenarioSpec> &grid;
    const FleetConfig &cfg;
    FleetStats stats;

    std::vector<std::string> specBytes;
    std::vector<std::uint64_t> seeds;
    std::vector<std::uint64_t> keys;

    std::vector<CellState> state;
    /** A Done cell's stats, decoded as it lands, while the loop would
     *  otherwise wait in poll(): the merge after the last cell only
     *  moves them. decoded[i] is false for a Done cell whose stats
     *  did not decode; the merge leaves it out. */
    std::vector<sweep::ScenarioStats> doneStats;
    std::vector<bool> decoded;
    std::vector<double> wall;
    std::uint64_t doneCount = 0;
    std::uint64_t mergedThisRun = 0;

    std::deque<std::uint64_t> orphans; // Served before any shard.
    std::vector<WorkerProc> workers;
    unsigned spawnCounter = 0;
    bool abortRequested = false;

    std::function<void(std::size_t, std::size_t)> progress;

    explicit Coordinator(const std::vector<sweep::ScenarioSpec> &g,
                         const FleetConfig &c)
        : grid(g), cfg(c)
    {
    }

    std::uint64_t total() const { return grid.size(); }

    /** Absorb @p journal: every entry whose key matches this grid
     *  and whose cell is not yet merged becomes Done without
     *  re-running. @return cells absorbed. */
    std::uint64_t
    absorb(const Journal &journal)
    {
        std::uint64_t absorbed = 0;
        for (const auto &kv : journal.entries()) {
            std::uint64_t idx = kv.first;
            if (idx >= total() || state[idx] == CellState::Done)
                continue;
            if (kv.second.key != keys[idx])
                continue; // Different grid/seed/salt: stale entry.
            if (!decodeInto(idx, kv.second.statsBytes))
                continue; // Unreadable: let the cell re-run.
            markDone(idx, true, 0.0);
            ++absorbed;
        }
        stats.cellsFromJournal += absorbed;
        return absorbed;
    }

    /** Decode @p bytes into cell @p idx's stats, from a fresh record.
     *  @return false, leaving them untouched, if they do not decode. */
    bool
    decodeInto(std::uint64_t idx, const std::string &bytes)
    {
        sweep::ScenarioStats fresh;
        if (!sweep::decodeStats(bytes, fresh))
            return false;
        doneStats[idx] = std::move(fresh);
        return true;
    }

    void
    markDone(std::uint64_t idx, bool statsDecoded, double w)
    {
        state[idx] = CellState::Done;
        decoded[idx] = statsDecoded;
        wall[idx] = w;
        ++doneCount;
        if (cfg.onCellDone)
            cfg.onCellDone(idx);
        if (progress)
            progress(doneCount, total());
    }

    /** Pick the next cell for @p w: orphans, then own shard front,
     *  then steal from the *tail* of the fullest other shard. */
    bool
    nextIndex(WorkerProc &w, std::uint64_t &idx)
    {
        while (!orphans.empty()) {
            idx = orphans.front();
            orphans.pop_front();
            if (state[idx] == CellState::Pending)
                return true;
        }
        while (!w.shard.empty()) {
            idx = w.shard.front();
            w.shard.pop_front();
            if (state[idx] == CellState::Pending)
                return true;
        }
        WorkerProc *victim = nullptr;
        for (WorkerProc &v : workers)
            if (&v != &w && !v.shard.empty() &&
                (victim == nullptr ||
                 v.shard.size() > victim->shard.size()))
                victim = &v;
        while (victim != nullptr && !victim->shard.empty()) {
            idx = victim->shard.back();
            victim->shard.pop_back();
            if (state[idx] == CellState::Pending) {
                ++stats.cellsStolen;
                return true;
            }
        }
        return false;
    }

    unsigned
    window() const
    {
        unsigned t = cfg.threadsPerWorker != 0 ? cfg.threadsPerWorker
                                               : 2;
        return std::max(1u, t * 2);
    }

    /** Keep @p w's in-flight window full. */
    void
    grant(WorkerProc &w)
    {
        while (w.alive && w.ready && w.inflight.size() < window()) {
            std::uint64_t idx;
            if (!nextIndex(w, idx))
                return;
            Msg cell;
            cell.type = "cell";
            cell.fields["index"] = std::to_string(idx);
            cell.fields["seed"] = std::to_string(seeds[idx]);
            cell.fields["spec"] = specBytes[idx];
            if (!writeLine(w.toFd, encodeMsg(cell))) {
                orphans.push_back(idx);
                onDeath(w);
                return;
            }
            state[idx] = CellState::Granted;
            w.inflight.push_back(idx);
        }
    }

    void
    grantAll()
    {
        for (WorkerProc &w : workers)
            grant(w);
    }

    void
    spawn(std::deque<std::uint64_t> shard)
    {
        WorkerProc w;
        w.id = spawnCounter++;
        w.shard = std::move(shard);
        if (!cfg.checkpointDir.empty())
            w.journalPath = cfg.checkpointDir + "/shard_" +
                            std::to_string(w.id) + ".journal";

        int toPipe[2] = {-1, -1};
        int fromPipe[2] = {-1, -1};
        if (::pipe(toPipe) != 0 || ::pipe(fromPipe) != 0) {
            std::perror("fleet: pipe");
            return;
        }
        std::fflush(nullptr); // No duplicated stdio in the child.
        const int parentCpu = sim::currentCpu();
        pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("fleet: fork");
            for (int fd : {toPipe[0], toPipe[1], fromPipe[0],
                           fromPipe[1]})
                ::close(fd);
            return;
        }
        if (pid == 0) {
            // Worker k starts k+1 CPUs after the coordinator's.
            sim::startOnOwnCpu(w.id, parentCpu);
            // Child: become a worker. Close the coordinator's ends
            // (and every other worker's fds we inherited).
            ::close(toPipe[1]);
            ::close(fromPipe[0]);
            for (const WorkerProc &other : workers) {
                if (other.toFd >= 0)
                    ::close(other.toFd);
                if (other.fromFd >= 0)
                    ::close(other.fromFd);
            }
            if (cfg.workerExe.empty()) {
                _exit(workerMain(toPipe[0], fromPipe[1]));
            }
            ::dup2(toPipe[0], 0);
            ::dup2(fromPipe[1], 1);
            ::close(toPipe[0]);
            ::close(fromPipe[1]);
            ::execl(cfg.workerExe.c_str(), cfg.workerExe.c_str(),
                    "--fleet-worker", static_cast<char *>(nullptr));
            std::perror("fleet: exec");
            _exit(127);
        }
        ::close(toPipe[0]);
        ::close(fromPipe[1]);
        w.pid = pid;
        w.toFd = toPipe[1];
        w.fromFd = fromPipe[0];
        w.reader = std::make_unique<LineReader>(w.fromFd);
        w.alive = true;
        ++stats.workersSpawned;

        Msg hello;
        hello.type = "hello";
        hello.fields["worker"] = std::to_string(w.id);
        hello.fields["threads"] =
            std::to_string(cfg.threadsPerWorker);
        hello.fields["seed"] = std::to_string(cfg.masterSeed);
        hello.fields["salt"] = std::to_string(cfg.cacheSalt);
        hello.fields["cache"] = cfg.cacheDir;
        hello.fields["journal"] = w.journalPath;
        hello.fields["progress"] = cfg.progress ? "1" : "0";
        workers.push_back(std::move(w));
        WorkerProc &placed = workers.back();
        if (!writeLine(placed.toFd, encodeMsg(hello))) {
            onDeath(placed);
            return;
        }
        if (cfg.onWorkerSpawn)
            cfg.onWorkerSpawn(placed.id,
                              static_cast<long>(placed.pid));
    }

    void
    reap(WorkerProc &w)
    {
        if (w.toFd >= 0)
            ::close(w.toFd);
        if (w.fromFd >= 0)
            ::close(w.fromFd);
        w.toFd = w.fromFd = -1;
        if (w.pid > 0) {
            int st = 0;
            ::waitpid(static_cast<pid_t>(w.pid), &st, 0);
            w.pid = -1;
        }
    }

    /** A worker's pipe died mid-sweep: absorb, re-queue, re-kick. */
    void
    onDeath(WorkerProc &w)
    {
        if (!w.alive)
            return;
        w.alive = false;
        w.ready = false;
        reap(w);
        ++stats.workerDeaths;

        // Absorb FIRST: anything it journaled is finished work.
        if (!w.journalPath.empty())
            absorb(Journal(w.journalPath));

        // Unreported in-flight cells and the rest of its shard go to
        // the orphan queue (served before any shard, so recovery has
        // priority over fresh work).
        for (std::uint64_t idx : w.inflight)
            if (state[idx] == CellState::Granted) {
                state[idx] = CellState::Pending;
                orphans.push_back(idx);
            }
        w.inflight.clear();
        for (std::uint64_t idx : w.shard)
            if (state[idx] == CellState::Pending)
                orphans.push_back(idx);
        w.shard.clear();

        // Survivors may be idle with empty queues; re-kick them.
        grantAll();
    }

    void
    handleMsg(WorkerProc &w, const Msg &msg)
    {
        if (msg.type == "ready") {
            w.ready = true;
            grant(w);
            return;
        }
        if (msg.type != "done")
            return; // Forward compatibility.
        std::uint64_t idx = msg.u64("index");
        if (idx >= total())
            return;
        auto it = std::find(w.inflight.begin(), w.inflight.end(), idx);
        if (it != w.inflight.end())
            w.inflight.erase(it);
        if (state[idx] != CellState::Done) {
            markDone(idx, decodeInto(idx, msg.str("stats")),
                     msg.dbl("wall"));
            ++mergedThisRun;
            bool cached = msg.u64("cached") != 0;
            if (!cfg.cacheDir.empty()) {
                if (cached)
                    ++stats.cacheHits;
                else
                    ++stats.cacheMisses;
            }
            if (!cached)
                ++stats.cellsSimulated;
            if (cfg.stopAfterCells != 0 &&
                mergedThisRun >= cfg.stopAfterCells)
                abortRequested = true;
        }
        if (!abortRequested)
            grant(w);
    }

    /** SIGKILL every live worker (abort path). */
    void
    killAll()
    {
        for (WorkerProc &w : workers) {
            if (!w.alive)
                continue;
            if (w.pid > 0)
                ::kill(static_cast<pid_t>(w.pid), SIGKILL);
            w.alive = false;
            reap(w);
        }
    }

    /** Graceful shutdown once every cell is merged. */
    void
    shutdownAll()
    {
        Msg bye;
        bye.type = "exit";
        for (WorkerProc &w : workers) {
            if (!w.alive)
                continue;
            writeLine(w.toFd, encodeMsg(bye));
            w.alive = false;
            reap(w);
        }
    }

    std::size_t
    aliveCount() const
    {
        std::size_t n = 0;
        for (const WorkerProc &w : workers)
            n += w.alive ? 1 : 0;
        return n;
    }

    bool
    pendingWork() const
    {
        return doneCount < total();
    }

    void
    loop()
    {
        // A worker that dies deterministically must not respawn
        // forever; past this the fleet gives up and reports abort.
        const unsigned respawnCap = cfg.workers * 2 + 4;

        while (pendingWork() && !abortRequested) {
            if (aliveCount() == 0) {
                if (spawnCounter >= respawnCap) {
                    stats.aborted = true;
                    return;
                }
                spawn({});
                grantAll();
                continue;
            }

            std::vector<struct pollfd> fds;
            std::vector<WorkerProc *> owners;
            for (WorkerProc &w : workers) {
                if (!w.alive)
                    continue;
                struct pollfd p;
                p.fd = w.fromFd;
                p.events = POLLIN;
                p.revents = 0;
                fds.push_back(p);
                owners.push_back(&w);
            }
            int n = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()), 5000);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                stats.aborted = true;
                return;
            }
            for (std::size_t i = 0; i < fds.size(); ++i) {
                if (abortRequested)
                    break;
                if ((fds[i].revents &
                     (POLLIN | POLLHUP | POLLERR)) == 0)
                    continue;
                WorkerProc &w = *owners[i];
                if (!w.alive)
                    continue; // Died while handling a sibling.
                if (!w.reader->fill()) {
                    // EOF before the sweep finished = death, unless
                    // buffered lines still complete the story.
                    std::string line;
                    while (w.reader->nextBuffered(line)) {
                        Msg msg;
                        if (!parseMsg(line, msg))
                            break;
                        handleMsg(w, msg);
                    }
                    if (w.alive)
                        onDeath(w);
                    continue;
                }
                std::string line;
                while (w.alive && w.reader->nextBuffered(line)) {
                    Msg msg;
                    if (!parseMsg(line, msg)) {
                        onDeath(w); // Torn line: treat as dead.
                        break;
                    }
                    handleMsg(w, msg);
                    if (abortRequested)
                        break;
                }
            }
        }
    }
};

} // namespace

FleetResult
runFleet(const std::vector<sweep::ScenarioSpec> &grid,
         const FleetConfig &cfg)
{
    std::signal(SIGPIPE, SIG_IGN);

    FleetResult out;
    Coordinator co(grid, cfg);
    co.stats.cellsTotal = grid.size();

    sweep::SweepConfig scfg;
    scfg.masterSeed = cfg.masterSeed;
    scfg.threads = 1;
    const sweep::SweepDriver driver(scfg);

    const std::size_t n = grid.size();
    co.specBytes.resize(n);
    co.seeds.resize(n);
    co.keys.resize(n);
    co.state.assign(n, CellState::Pending);
    co.doneStats.resize(n);
    co.decoded.assign(n, false);
    co.wall.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        co.specBytes[i] = sweep::encodeSpec(grid[i]);
        co.seeds[i] = driver.cellSeed(i);
        co.keys[i] = cellKey(co.specBytes[i], co.seeds[i],
                             cfg.cacheSalt);
    }
    if (cfg.progress)
        co.progress = sweep::stderrProgress("fleet");

    // Resume: absorb every shard journal in the checkpoint dir.
    if (!cfg.checkpointDir.empty()) {
        ::mkdir(cfg.checkpointDir.c_str(), 0777);
        if (DIR *d = ::opendir(cfg.checkpointDir.c_str())) {
            while (struct dirent *e = ::readdir(d)) {
                std::string name = e->d_name;
                if (name.rfind("shard_", 0) != 0 ||
                    name.size() < 14 ||
                    name.compare(name.size() - 8, 8, ".journal") != 0)
                    continue;
                co.absorb(Journal(cfg.checkpointDir + "/" + name));
            }
            ::closedir(d);
        }
    }

    if (co.pendingWork()) {
        // Contiguous shards over the still-pending cells.
        std::vector<std::uint64_t> pending;
        for (std::size_t i = 0; i < n; ++i)
            if (co.state[i] == CellState::Pending)
                pending.push_back(i);
        const unsigned P = std::max(1u, cfg.workers);
        std::size_t base = pending.size() / P;
        std::size_t rem = pending.size() % P;
        std::size_t at = 0;
        for (unsigned w = 0; w < P; ++w) {
            std::size_t len = base + (w < rem ? 1 : 0);
            std::deque<std::uint64_t> shard(
                pending.begin() +
                    static_cast<std::ptrdiff_t>(at),
                pending.begin() +
                    static_cast<std::ptrdiff_t>(at + len));
            at += len;
            co.spawn(std::move(shard));
        }
        co.loop();
    }

    if (co.abortRequested) {
        co.killAll();
        co.stats.aborted = true;
    } else {
        co.shutdownAll();
    }

    // Merge whatever is Done (everything, unless aborted).
    std::vector<sweep::CellResult> cells;
    cells.reserve(co.doneCount);
    bool decodeOk = true;
    for (std::size_t i = 0; i < n; ++i) {
        if (co.state[i] != CellState::Done)
            continue;
        if (!co.decoded[i]) {
            decodeOk = false;
            continue;
        }
        sweep::CellResult cell;
        cell.spec = grid[i];
        cell.index = i;
        cell.seed = co.seeds[i];
        cell.wallSeconds = co.wall[i];
        cell.stats = std::move(co.doneStats[i]);
        cells.push_back(std::move(cell));
    }
    out.result = sweep::SweepResult::fromCells(scfg, std::move(cells));
    out.stats = co.stats;
    out.complete = decodeOk && !co.stats.aborted &&
                   co.doneCount == co.total() &&
                   out.result.size() == grid.size();
    return out;
}

} // namespace fleet
} // namespace mbus
