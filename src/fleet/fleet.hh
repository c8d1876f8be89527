/**
 * @file
 * The distributed sweep fleet: one coordinator process fanning a
 * sweep grid across N worker OS processes, each running M sweep
 * threads.
 *
 * Architecture
 * ------------
 * runFleet() partitions the grid into one contiguous shard per
 * worker, spawns the workers (fork-only for in-process tests, or
 * fork+exec of `fleet_runner --fleet-worker` for the production
 * shape -- the latter speaks plain stdin/stdout JSON lines, so a
 * shell/SSH transport to another machine is the same protocol), and
 * feeds each worker cells from the front of its own shard. A worker
 * that drains its shard *steals from the tail of the shard with the
 * most cells remaining*, so a slow machine sheds work to fast ones
 * instead of capping the sweep. Grants are windowed (2x the worker's
 * thread count in flight) to keep pipes shallow and stealing
 * effective.
 *
 * Placement: on Linux each forked worker starts on a CPU of its own
 * before it runs or execs the worker loop. Worker k pins itself to
 * the (k+1)-th CPU of its inherited affinity mask after the
 * coordinator's, then restores the full mask. A kernel that never
 * balances load across the mask (a cpuset with sched_load_balance
 * off) would otherwise keep every worker on the coordinator's CPU,
 * and N workers would run no faster than one; a kernel that does
 * balance can still move them. No knob, and no output byte depends
 * on it.
 *
 * Determinism contract (extends sweep/sweep.hh): every deterministic
 * byte of the merged result -- CSV without wall times, JSON,
 * fingerprint -- is a pure function of (masterSeed, grid). N
 * processes x M threads produces the identical bytes to 1 process x
 * 1 thread, because cells carry their global grid index (hence seed)
 * end-to-end and the merge (SweepResult::fromCells) sorts them back
 * into grid order.
 *
 * Fault tolerance: workers journal every finished cell (crash-safe,
 * see fleet/journal.hh) *before* reporting it. When a worker dies the
 * coordinator absorbs its journal, then re-queues only the cells
 * that are in neither the journal nor the merged set -- a SIGKILLed
 * worker loses zero finished cells and no cell runs twice. The same
 * journals make whole-fleet resume work: a new coordinator pointed
 * at the same checkpoint directory loads them and only grants what
 * is missing.
 *
 * The content-addressed cell cache (fleet/cache.hh) sits under the
 * workers: a cell whose (spec, seed, harness salt) key hits skips
 * simulation entirely, so a re-sweep after changing one grid axis
 * simulates exactly the new cells.
 */

#ifndef MBUS_FLEET_FLEET_HH
#define MBUS_FLEET_FLEET_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/cache.hh"
#include "sweep/sweep.hh"

namespace mbus {
namespace fleet {

/** Fleet-level knobs. */
struct FleetConfig
{
    /** Worker processes to spawn (>= 1). */
    unsigned workers = 2;

    /** Sweep threads inside each worker; 0 = hardware concurrency. */
    unsigned threadsPerWorker = 1;

    /** Master seed; must match the solo run being reproduced. */
    std::uint64_t masterSeed = 0x6d627573ULL;

    /** Checkpoint directory for per-shard journals; empty disables
     *  journaling (and therefore kill-recovery and resume). */
    std::string checkpointDir;

    /** Content-addressed cell cache directory; empty disables. */
    std::string cacheDir;

    /** Harness-version salt folded into every cache key. */
    std::uint64_t cacheSalt = kHarnessVersionSalt;

    /**
     * Worker executable. Empty: workers are plain fork()s of the
     * calling process running workerMain() on inherited pipe fds (no
     * exec -- the mode tests use). Non-empty: fork+exec of this
     * binary with `--fleet-worker`, protocol on stdin/stdout (the
     * fleet_runner production shape).
     */
    std::string workerExe;

    /** Coordinator-side merged progress line on stderr (workers add
     *  their own "[shard N]" lines when set). */
    bool progress = false;

    /**
     * Test hook: abort the sweep after this many cells have merged
     * in this run (0 = never). Workers are SIGKILLed mid-flight and
     * the partial result returns with stats.aborted set -- the
     * journals on disk are exactly what a crashed coordinator would
     * leave, so a second runFleet() with the same checkpointDir
     * proves resume.
     */
    std::size_t stopAfterCells = 0;

    /** Test hook: observe each spawned worker (id, pid). */
    std::function<void(unsigned worker, long pid)> onWorkerSpawn;

    /** Test hook: observe each merged cell index in merge order. */
    std::function<void(std::uint64_t index)> onCellDone;
};

/** What the fleet did, beyond the merged result. */
struct FleetStats
{
    std::uint64_t cellsTotal = 0;     ///< Grid size.
    std::uint64_t cellsSimulated = 0; ///< Fresh simulations this run.
    std::uint64_t cacheHits = 0;      ///< Cells served from the cache.
    std::uint64_t cacheMisses = 0;    ///< Lookups that missed.
    std::uint64_t cellsFromJournal = 0; ///< Recovered, not re-run:
                                        ///< resume load + dead-worker
                                        ///< journal absorption.
    std::uint64_t workerDeaths = 0;   ///< Pipes that died mid-sweep.
    std::uint64_t cellsStolen = 0;    ///< Cross-shard steals granted.
    std::uint64_t workersSpawned = 0; ///< Including respawns.
    bool aborted = false;             ///< stopAfterCells tripped (or
                                      ///< the fleet lost all workers).
};

/** The merged sweep plus fleet bookkeeping. */
struct FleetResult
{
    sweep::SweepResult result;
    FleetStats stats;

    /** All cells merged (false after an abort). */
    bool complete = false;
};

/**
 * Run @p grid across a multi-process fleet and merge. The returned
 * result's deterministic bytes equal SweepDriver::run() of the same
 * grid and masterSeed, regardless of workers/threads/steals/kills.
 */
FleetResult runFleet(const std::vector<sweep::ScenarioSpec> &grid,
                     const FleetConfig &cfg);

/**
 * The worker side: speak the fleet protocol on @p inFd / @p outFd
 * until "exit" or EOF. This is what `fleet_runner --fleet-worker`
 * calls with (0, 1), and what fork-only workers call on their pipe
 * ends. @return a process exit code.
 */
int workerMain(int inFd, int outFd);

} // namespace fleet
} // namespace mbus

#endif // MBUS_FLEET_FLEET_HH
