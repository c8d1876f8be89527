/**
 * @file
 * The repository benchmark: workloads, checks and metrics.
 *
 * Runs one named workload for a fixed measurement budget and prints
 * its metrics, then one JSON result line. Two closed-batch
 * workloads, each submitting a whole sweep grid at once:
 *
 *  - app_mix: the canonical sensing+imaging+storm cell (full 90 s of
 *    simulated time) on all five fabrics, in-process through
 *    SweepDriver::run. Cells are long, so the kernel, wires, protocol
 *    FSMs and software members do almost all the work.
 *  - fault_grid: the CI faulty five-fabric grid at 2000 cells,
 *    in-process. Many short cells of very uneven cost stress per-cell
 *    set-up, the fault layer, watchdog and retry, and the sweep tail.
 *
 * With --trace 0 the end-to-end metrics are measured with no
 * instrumentation beyond the sweep's own per-cell wall times and the
 * host-speed reference (hostspeed.hh). With --trace 1 the benchmark
 * alternates untraced and traced passes: the traced pass runs every
 * cell solo through runCell with spans around the set-up calls
 * (makeBackend, FaultEngine construction + arm, the WorkloadEngine
 * constructor), the report writers and the codec. fault_grid's traced
 * run also sends the first 600 cells of its grid through
 * fleet::runFleet with exec-mode fleet_runner workers (a cold pass with
 * journal + cache, then warm all-hit passes), with spans around the
 * calls and instant events from the fleet's spawn/merge hooks. Per-layer
 * metrics come from those spans plus the deterministic counters in
 * ScenarioStats and FleetStats; the spans are written as Chrome
 * trace-event JSON at the end.
 *
 * The simulator is never modified or instrumented from inside: every
 * number here is taken from outside its public entry points.
 *
 * Usage:
 *   perfbench --workload app_mix|fault_grid --seed N
 *             --seconds S --trace 0|1 --runner PATH --work-dir DIR
 *             [--revision TEXT]
 *
 * Exit status: 0 iff every correctness check passed.
 */

#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "fault/fault.hh"
#include "fleet/cache.hh"
#include "fleet/fleet.hh"
#include "hostspeed.hh"
#include "spans.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"
#include "workload/workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mbus;
using perfbench::Clock;
using perfbench::HostMeter;
using perfbench::seconds;
using perfbench::SpanLog;
namespace fs = std::filesystem;

namespace {

/** Cells in the faulty grid (fault_grid). */
constexpr std::size_t kFaultCells = 2000;

/**
 * Cells the traced fault_grid run takes from the front of its grid
 * for the fleet passes. The journal rewrites its whole shard file for
 * every finished cell, so a cold pass writes bytes quadratic in the
 * shard size: about 500 MB at 2000 cells over two workers, 45 MB at
 * 600. The first 600 cells still hold one of the grid's runaway MBus
 * cells (525).
 *
 * The fleet has no end-to-end workload. Its workers spend as much
 * time in the kernel (journal and cache files, process spawn) as in
 * cells, and on a shared disk that kernel time swings: at 600 cells
 * the mean cold pass of successive 25 s windows ranged 0.98-1.37 s,
 * at 400 cells 0.31-0.77 s, with no change in the host-speed
 * reference. No bound a benchmark may set holds that.
 */
constexpr std::size_t kFleetCells = 600;

/** Traced fleet passes in fault_grid's traced run. */
constexpr int kFleetPasses = 2;

/** Sweep threads (in-process) or fleet workers x 1 thread. Fixed, so
 *  results from hosts of different sizes stay comparable; capped at
 *  the host's processor count. */
constexpr unsigned kParallelism = 2;

/**
 * app_mix runs one sweep thread. Its long cells keep every sweep
 * thread busy for the whole run, and at two threads a shared 4-vCPU
 * host slowed it by 25-35% over each of three 6-minute windows of
 * back-to-back runs (IQR/median 0.27-0.33). At one thread, ten runs
 * straight after 20 minutes of such load kept their throughput
 * spreads under 0.17.
 */
constexpr unsigned kAppMixParallelism = 1;

/** All-hit passes are short (tens of ms) and their decode work is the
 *  most sensitive to other load on the host, so each measured pass
 *  repeats them at least kWarmMinRepeats times, for at least
 *  kWarmBudgetS and at least kWarmShare of the pass's own wall time. */
constexpr double kWarmBudgetS = 0.5;
constexpr double kWarmShare = 0.1;
constexpr int kWarmMinRepeats = 3;

/** Whether another warm repeat is due after @p done of them, in a pass
 *  whose cold part took @p passS. */
bool
moreWarm(int done, Clock::time_point since, double passS)
{
    return done < kWarmMinRepeats ||
           seconds(since, Clock::now()) <
               std::max(kWarmBudgetS, kWarmShare * passS);
}

/** Grid generations timed per pass, for the same reason. */
constexpr int kGridRepeats = 10;

enum class Workload { AppMix, FaultGrid };

struct Options
{
    Workload workload = Workload::AppMix;
    std::string workloadName;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string runner;
    std::string workDir;
    std::string revision = "unknown";
};

/** Everything a pass needs to rebuild the workload's inputs. */
struct Context
{
    Options opt;
    unsigned threads = 1;
    std::uint64_t masterSeed = 0;
    std::string scratch; ///< This run's private directory.
};

// --- Inputs --------------------------------------------------------

/**
 * The sweep master seed for app_mix. Seed 0 keeps SweepConfig's default
 * (the seed every CI gate uses); any other seed derives a fresh one.
 */
std::uint64_t
appMixMasterSeed(std::uint64_t seed)
{
    std::uint64_t base = sweep::SweepConfig{}.masterSeed;
    return seed == 0 ? base : sim::Random(base).split(seed).next();
}

/**
 * Copies of each software-member cell in app_mix. With one copy,
 * bitbang and firmware had four cells each per pass (under a second
 * of host time), too few to time steadily: their ns/bit spread 0.13
 * over ten runs against 0.08 for MBus.
 */
constexpr int kSoftCopies = 3;

/**
 * app_mix: the canonical full-length mix cell crossed with ring size
 * (3..14 on the hardware fabrics, 3 on the software-member fabrics),
 * 400 kHz / 1 MHz, and storm on/off; the software-member cells run in
 * kSoftCopies copies, each with its own cell seed. The hardware cells
 * run largest ring first with the three fabrics interleaved, and the
 * software-member cells are spread evenly among them, so every
 * fabric's timings sample the whole pass rather than one stretch of
 * it: a host slows down and speeds up within seconds.
 */
std::vector<sweep::ScenarioSpec>
appMixGrid(std::uint64_t seed)
{
    using backend::BackendKind;
    auto cell = [seed](BackendKind kind, int n, double clock, double storm,
                       const std::string &suffix) {
        sweep::ScenarioSpec s =
            benchutil::canonicalWorkloadCell(n, clock, storm,
                                             /*smoke=*/false);
        s.backend = kind;
        s.name = "app_mix_s" + std::to_string(seed) + "_" +
                 backend::backendKindName(kind) + "_n" + std::to_string(n) +
                 (clock > 5e5 ? "_1mhz" : "_400khz") +
                 (storm > 0 ? "_storm" : "_quiet") + suffix;
        return s;
    };
    std::vector<sweep::ScenarioSpec> hard, soft;
    for (int n = 14; n >= 3; --n)
        for (BackendKind kind : {BackendKind::Mbus, BackendKind::I2cStd,
                                 BackendKind::I2cOracle})
            for (double clock : {400e3, 1e6})
                for (double storm : {0.0, 0.10})
                    hard.push_back(cell(kind, n, clock, storm, ""));
    for (int copy = 0; copy < kSoftCopies; ++copy)
        for (double clock : {400e3, 1e6})
            for (double storm : {0.0, 0.10})
                for (BackendKind kind :
                     {BackendKind::Bitbang, BackendKind::Firmware})
                    soft.push_back(cell(kind, 3, clock, storm,
                                        "_c" + std::to_string(copy)));

    std::vector<sweep::ScenarioSpec> grid;
    std::size_t h = 0;
    for (std::size_t k = 0; k < soft.size(); ++k) {
        std::size_t until = (k + 1) * hard.size() / (soft.size() + 1);
        while (h < until)
            grid.push_back(hard[h++]);
        grid.push_back(soft[k]);
    }
    while (h < hard.size())
        grid.push_back(hard[h++]);
    return grid;
}

/**
 * fault_grid and its fleet passes: the first @p cells of the CI faulty
 * five-fabric grid. The seed names the cells (so spec bytes, CSV, fingerprint and cache keys all
 * change with it); the recipe's draws and the master seed stay the
 * CI gates' own. Reseeding those would move the runaway MBus cells
 * (ROADMAP item 1) in and out of the grid: across eight master seeds
 * the same 2000 cells executed 4.8M to 37M kernel events. At seed 0
 * it extends the 25-cell grid fault_smoke and fleet_smoke sweep.
 */
std::vector<sweep::ScenarioSpec>
faultGrid(std::uint64_t seed, std::size_t cells)
{
    std::string prefix = seed == 0
                             ? std::string("fault_smoke")
                             : "fault_grid_s" + std::to_string(seed) + "_";
    return benchutil::faultyFiveFabricGrid(cells, prefix);
}

std::vector<sweep::ScenarioSpec>
makeGrid(const Context &ctx)
{
    switch (ctx.opt.workload) {
    case Workload::AppMix:
        return appMixGrid(ctx.opt.seed);
    case Workload::FaultGrid:
        return faultGrid(ctx.opt.seed, kFaultCells);
    }
    return {};
}

/**
 * The seeded generator at the default seed must extend the CI grid:
 * its first cells are, byte for byte (encodeSpec), the cells
 * fault_smoke and fleet_smoke sweep (faultyFiveFabricGrid() with its
 * defaults), so this benchmark and the gates measure the same cells.
 */
bool
faultGridExtendsCi()
{
    std::vector<sweep::ScenarioSpec> ours = faultGrid(0, kFaultCells);
    std::vector<sweep::ScenarioSpec> ci = benchutil::faultyFiveFabricGrid();
    if (ci.empty() || ours.size() < ci.size())
        return false;
    for (std::size_t i = 0; i < ci.size(); ++i)
        if (sweep::encodeSpec(ours[i]) != sweep::encodeSpec(ci[i]))
            return false;
    return true;
}

// --- Correctness and accounting ------------------------------------

/** Completed wire data bits, recovered as perf_gate does. */
double
cellBits(const sweep::ScenarioStats &s)
{
    return s.eventsPerBit > 0
               ? static_cast<double>(s.eventsExecuted) / s.eventsPerBit
               : 0.0;
}

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems; ///< Run-level check failures.

    bool correct() const { return failed == 0 && problems.empty(); }

    void
    problem(const std::string &what)
    {
        if (problems.size() < 16)
            problems.push_back(what);
    }
};

/**
 * Per-cell rules: no wedge, and every planned transaction ends in
 * exactly one terminal outcome (the fault_smoke rule). app_mix cells
 * must also deliver samples without payload corruption (the
 * workload_mix rule). On the faulty grid corrupted deliveries are
 * correct physics (MBus carries no payload CRC) and do not count.
 */
bool
cellOk(const Context &ctx, const sweep::ScenarioStats &s)
{
    if (s.wedged)
        return false;
    if (s.planned != s.acked + s.naked + s.broadcasts + s.interrupted +
                         s.rxAborts + s.failed)
        return false;
    if (ctx.opt.workload == Workload::AppMix &&
        (s.samplesDelivered == 0 || s.payloadMismatches != 0))
        return false;
    return true;
}

void
checkCells(const Context &ctx, const sweep::SweepResult &r,
           std::size_t gridSize, Tally &tally)
{
    tally.attempted += gridSize;
    if (r.size() < gridSize)
        tally.failed += gridSize - r.size(); // Missing from the merge.
    for (const sweep::CellResult &c : r.cells())
        if (!cellOk(ctx, c.stats))
            ++tally.failed;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The report a user takes away: CSV out plus the fingerprint. */
std::uint64_t
report(const sweep::SweepResult &r)
{
    std::ostringstream csv;
    r.writeCsv(csv);
    return r.fingerprint();
}

// --- Passes ----------------------------------------------------------

/** One measured pass over the whole grid. */
struct Pass
{
    std::vector<double> gridS;  ///< Grid generation, each repeat.
    /** SweepDriver::run entry to first cell start. */
    std::vector<double> startS;
    double wallS = 0;  ///< Grid in to merged result and CSV out.
    std::vector<double> warmS; ///< All-hit passes, grid in to CSV out.
    /** One grid generation plus the timed calls: what the traced run
     *  compares against a traced pass. */
    double totalS = 0;
    std::uint64_t fingerprint = 0;
    sweep::SweepResult result;
    std::vector<sweep::ScenarioSpec> grid;
};

/** Fleet hooks' observations, shared with the hooks by value so the
 *  FleetConfig copies never hold a dangling reference. */
struct FleetObs
{
    Clock::time_point lastSpawn{};
    Clock::time_point firstDone{};
    std::int64_t firstIndex = -1;
};

/**
 * Hand the allocator's free memory back to the system, so the set-up
 * that follows pays for fresh pages as a newly started process does.
 * Otherwise whether set-up reuses pages depends on the heap the last
 * pass left behind: allocating a 2000-cell result table took 0.25 ms
 * on reused pages and 1-1.5 ms on fresh ones, and which one a run saw
 * flipped from run to run.
 */
void
freshHeap()
{
#ifdef __GLIBC__
    ::malloc_trim(0);
#endif
}

/**
 * Generate the grid kGridRepeats times, timing each, and keep the
 * last: set-up is short, so one sample per pass would be noise.
 */
std::vector<sweep::ScenarioSpec>
timedGrid(const Context &ctx, std::vector<double> &samples)
{
    std::vector<sweep::ScenarioSpec> grid;
    for (int k = 0; k < kGridRepeats; ++k) {
        freshHeap();
        Clock::time_point a = Clock::now();
        grid = makeGrid(ctx);
        samples.push_back(seconds(a, Clock::now()));
    }
    return grid;
}

/**
 * An in-process pass through SweepDriver::run. The first cell's start
 * is recovered from outside. The calling thread is the pool's worker
 * 0 and claims cell 0 before any pool thread is scheduled, so its
 * first completion (stamped by the progress hook) minus cell 0's wall
 * time is when the first cell started. A pool thread's start latency,
 * which is scheduler jitter rather than set-up, stays out of it. If a
 * pool thread did win cell 0, that difference falls before the call;
 * the next of the first `threads` cells is then tried.
 *
 * With a @p meter, the progress hook on the calling thread also times
 * the host-speed reference, and that time is taken out of the pass
 * wall. Cell walls are measured inside the sweep and never include it.
 */
Pass
inProcessPass(const Context &ctx, HostMeter *meter = nullptr)
{
    Pass p;
    p.grid = timedGrid(ctx, p.gridS);
    auto callerDone = std::make_shared<Clock::time_point>();
    auto metered = std::make_shared<double>(0.0);
    std::thread::id caller = std::this_thread::get_id();
    sweep::SweepConfig cfg;
    cfg.threads = ctx.threads;
    cfg.masterSeed = ctx.masterSeed;
    cfg.progress = [callerDone, metered, meter,
                    caller](std::size_t, std::size_t) {
        if (std::this_thread::get_id() != caller)
            return;
        if (*callerDone == Clock::time_point{})
            *callerDone = Clock::now();
        if (meter)
            *metered += meter->tick();
    };
    freshHeap();
    Clock::time_point t1 = Clock::now();
    p.result = sweep::SweepDriver(cfg).run(p.grid);
    p.fingerprint = report(p.result);
    Clock::time_point t2 = Clock::now();
    p.wallS = seconds(t1, t2) - *metered;
    p.totalS = median(p.gridS) + p.wallS;

    double done = seconds(t1, *callerDone);
    for (std::size_t i = 0;
         i < std::min<std::size_t>(ctx.threads, p.result.size()); ++i) {
        double start = done - p.result.cell(i).wallSeconds;
        if (start >= 0) {
            p.startS.push_back(start);
            break;
        }
    }
    return p;
}

/** Write every cell of @p r into @p cache (untimed: this is what a
 *  cold fleet pass leaves behind). */
void
fillCache(const sweep::SweepResult &r, fleet::CellCache &cache)
{
    for (const sweep::CellResult &c : r.cells())
        cache.store(cache.key(sweep::encodeSpec(c.spec), c.seed),
                    sweep::encodeStats(c.stats));
}

/**
 * The in-process warm pass: serve every cell of @p grid from the
 * content-addressed cell cache exactly as a fleet worker does on a
 * hit (key the canonical spec bytes, read, decode), merge, and write
 * the report. @return the wall time; misses and a fingerprint that
 * differs from @p expect are failures.
 */
double
warmReplay(const Context &ctx, const std::vector<sweep::ScenarioSpec> &grid,
           fleet::CellCache &cache, std::uint64_t expect, Tally &tally)
{
    sweep::SweepConfig cfg;
    cfg.masterSeed = ctx.masterSeed;
    sweep::SweepDriver driver(cfg);
    Clock::time_point t0 = Clock::now();
    std::vector<sweep::CellResult> cells(grid.size());
    std::size_t misses = 0;
    std::string statsBytes;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        sweep::CellResult &c = cells[i];
        c.spec = grid[i];
        c.index = i;
        c.seed = driver.cellSeed(i);
        if (!cache.lookup(cache.key(sweep::encodeSpec(c.spec), c.seed),
                          statsBytes) ||
            !sweep::decodeStats(statsBytes, c.stats))
            ++misses;
    }
    sweep::SweepResult r =
        sweep::SweepResult::fromCells(cfg, std::move(cells));
    std::uint64_t fp = report(r);
    double wall = seconds(t0, Clock::now());
    tally.attempted += grid.size();
    tally.failed += misses;
    if (fp != expect)
        tally.problem("warm replay fingerprint " + hex(fp) +
                      " != cold " + hex(expect));
    return wall;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry &e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

/** 1 - Σ cell wall / (pass wall x lanes): the share of the pass's
 *  processor time not spent inside a cell. */
double
overheadShare(const sweep::SweepResult &r, double wallS, unsigned lanes)
{
    double cellWall = r.totalWallSeconds();
    return wallS > 0 ? 1.0 - cellWall / (wallS * lanes) : 0.0;
}

/** What the traced run reads from one fleet pass. */
struct FleetPass
{
    fleet::FleetStats cold;
    fleet::FleetStats warm;
    double spawnMs = 0;     ///< runFleet entry to last worker spawn.
    double firstCellMs = 0; ///< runFleet entry to first merged cell.
    double coldOverhead = 0;
    double warmOverhead = 0;
    std::uint64_t journalBytes = 0;
};

/**
 * One traced fleet pass over @p grid from fresh checkpoint and cache
 * directories: the cold pass (journal + cache, every cell simulated)
 * then warm passes over the cache it filled (cache only, every cell a
 * hit). The fleet hooks become instant events and the runFleet calls
 * spans on @p lane. Every merged result must match @p expect, the
 * in-process fingerprint of the same grid.
 */
FleetPass
fleetPass(const Context &ctx, std::size_t passNo,
          const std::vector<sweep::ScenarioSpec> &grid, std::uint64_t expect,
          Tally &tally, SpanLog &log, std::size_t lane)
{
    FleetPass p;
    std::string dir = ctx.scratch + "/fleet" + std::to_string(passNo);
    std::string ckpt = dir + "/ckpt";
    std::string cache = dir + "/cache";
    fs::remove_all(dir);
    fs::create_directories(ckpt);
    fs::create_directories(cache);

    SpanLog *logp = &log;
    auto makeCfg = [&](std::shared_ptr<FleetObs> obs) {
        fleet::FleetConfig cfg;
        cfg.workers = ctx.threads;
        cfg.threadsPerWorker = 1;
        cfg.masterSeed = ctx.masterSeed;
        cfg.cacheDir = cache;
        cfg.workerExe = ctx.opt.runner;
        cfg.onWorkerSpawn = [obs, logp, lane](unsigned, long) {
            obs->lastSpawn = Clock::now();
            logp->instant(lane, "fleet.worker_spawn", obs->lastSpawn);
        };
        cfg.onCellDone = [obs, logp, lane](std::uint64_t idx) {
            Clock::time_point t = Clock::now();
            if (obs->firstIndex < 0) {
                obs->firstIndex = static_cast<std::int64_t>(idx);
                obs->firstDone = t;
            }
            logp->instant(lane, "fleet.cell_done", t,
                          static_cast<std::int64_t>(idx));
        };
        return cfg;
    };
    auto check = [&](const fleet::FleetResult &r, std::uint64_t fp,
                     const char *pass) {
        checkCells(ctx, r.result, grid.size(), tally);
        if (!r.complete)
            tally.problem(std::string(pass) +
                          " fleet pass did not merge every cell");
        if (fp != expect)
            tally.problem(std::string(pass) + " fleet fingerprint " +
                          hex(fp) + " != in-process " + hex(expect));
    };

    auto coldObs = std::make_shared<FleetObs>();
    fleet::FleetConfig cold = makeCfg(coldObs);
    cold.checkpointDir = ckpt;
    Clock::time_point t1 = Clock::now();
    fleet::FleetResult fr = fleet::runFleet(grid, cold);
    Clock::time_point t2 = Clock::now();
    std::uint64_t fp = report(fr.result);
    log.span(lane, "fleet.run_cold", t1, t2);
    log.span(lane, "sweep.report", t2, Clock::now());
    check(fr, fp, "cold");
    p.cold = fr.stats;
    p.spawnMs = 1e3 * seconds(t1, coldObs->lastSpawn);
    p.firstCellMs = 1e3 * seconds(t1, coldObs->firstDone);
    p.coldOverhead = overheadShare(fr.result, seconds(t1, t2), ctx.threads);
    p.journalBytes = dirBytes(ckpt);

    std::vector<double> warmOverhead;
    Clock::time_point warmStart = Clock::now();
    for (int k = 0; moreWarm(k, warmStart, seconds(t1, t2)); ++k) {
        fleet::FleetConfig warm = makeCfg(std::make_shared<FleetObs>());
        Clock::time_point t4 = Clock::now();
        fleet::FleetResult wr = fleet::runFleet(grid, warm);
        Clock::time_point t5 = Clock::now();
        std::uint64_t warmFp = report(wr.result);
        log.span(lane, "fleet.run_warm", t4, t5);
        log.span(lane, "sweep.report", t5, Clock::now());
        check(wr, warmFp, "warm");
        if (wr.stats.cacheHits != grid.size() ||
            wr.stats.cellsSimulated != 0)
            tally.problem("warm fleet pass was not all cache hits");
        warmOverhead.push_back(
            overheadShare(wr.result, seconds(t4, t5), ctx.threads));
        p.warm = wr.stats;
    }
    p.warmOverhead = median(warmOverhead);
    fs::remove_all(dir);
    return p;
}

// --- Traced solo pass ------------------------------------------------

/** Span names per fabric (span names must outlive the log). */
const char *
makeSpanName(backend::BackendKind k)
{
    switch (k) {
    case backend::BackendKind::Mbus:
        return "backend.make.mbus";
    case backend::BackendKind::I2cStd:
        return "backend.make.i2c_std";
    case backend::BackendKind::I2cOracle:
        return "backend.make.i2c_oracle";
    case backend::BackendKind::Bitbang:
        return "backend.make.bitbang";
    case backend::BackendKind::Firmware:
        return "backend.make.firmware";
    }
    return "backend.make";
}

/**
 * Time the set-up calls runScenario makes for one cell, each on its
 * own fresh simulator: makeBackend, the FaultEngine constructor plus
 * arm, and the WorkloadEngine constructor. The parameter mapping
 * mirrors runScenario's.
 */
void
probeSetup(const sweep::ScenarioSpec &spec, std::uint64_t seed,
           std::size_t lane, std::int64_t cell, SpanLog &log)
{
    sim::Simulator simulator;
    simulator.seedRng(seed);
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

    Clock::time_point a = Clock::now();
    std::unique_ptr<backend::BusBackend> bus =
        backend::makeBackend(spec.backend, simulator, params);
    Clock::time_point b = Clock::now();
    log.span(lane, makeSpanName(spec.backend), a, b, cell);

    if (spec.faults.enabled()) {
        int faultable = spec.nodes;
        if (spec.backend == backend::BackendKind::Bitbang ||
            spec.backend == backend::BackendKind::Firmware)
            --faultable;
        a = Clock::now();
        fault::FaultEngine engine(spec.faults, seed, faultable);
        engine.arm(*bus, simulator);
        b = Clock::now();
        log.span(lane, "fault.compile_arm", a, b, cell);
    }
    if (spec.workload.enabled()) {
        a = Clock::now();
        workload::WorkloadEngine engine(spec.workload, seed, spec.nodes);
        b = Clock::now();
        log.span(lane, "workload.compile", a, b, cell);
    }
}

struct TracedPass
{
    double totalS = 0;
    std::uint64_t fingerprint = 0;
    sweep::SweepResult result;
};

/**
 * Every cell solo through SweepDriver::runCell on a pool of
 * ctx.threads threads, each cell preceded by its set-up probes, then
 * the merge and report. Lanes 0..threads-1 are the pool; lane
 * `threads` is the calling thread.
 */
TracedPass
tracedSoloPass(const Context &ctx, SpanLog &log)
{
    TracedPass tp;
    std::size_t main = ctx.threads;
    Clock::time_point t0 = Clock::now();
    std::vector<sweep::ScenarioSpec> grid = makeGrid(ctx);
    sweep::SweepConfig cfg;
    cfg.threads = ctx.threads;
    cfg.masterSeed = ctx.masterSeed;
    sweep::SweepDriver driver(cfg);
    log.span(main, "grid", t0, Clock::now());

    std::vector<sweep::CellResult> cells(grid.size());
    std::atomic<std::size_t> cursor{0};
    auto work = [&](std::size_t lane) {
        for (;;) {
            std::size_t i = cursor.fetch_add(1);
            if (i >= grid.size())
                return;
            auto cell = static_cast<std::int64_t>(i);
            probeSetup(grid[i], driver.cellSeed(i), lane, cell, log);
            Clock::time_point a = Clock::now();
            cells[i] = driver.runCell(grid[i], i);
            log.span(lane, "cell", a, Clock::now(), cell);
        }
    };
    {
        std::vector<std::thread> pool;
        for (std::size_t lane = 0; lane < ctx.threads; ++lane)
            pool.emplace_back(work, lane);
        for (std::thread &t : pool)
            t.join();
    }

    Clock::time_point t1 = Clock::now();
    tp.result = sweep::SweepResult::fromCells(cfg, std::move(cells));
    tp.fingerprint = report(tp.result);
    Clock::time_point t2 = Clock::now();
    log.span(main, "sweep.report", t1, t2);
    tp.totalS = seconds(t0, t2);
    return tp;
}

/** Encode and decode every cell with spans; a round trip that does
 *  not reproduce the bytes is a failure. */
void
probeCodec(const sweep::SweepResult &r, std::size_t lane, SpanLog &log,
           Tally &tally)
{
    for (const sweep::CellResult &c : r.cells()) {
        auto cell = static_cast<std::int64_t>(c.index);
        Clock::time_point a = Clock::now();
        std::string specBytes = sweep::encodeSpec(c.spec);
        std::string statsBytes = sweep::encodeStats(c.stats);
        Clock::time_point b = Clock::now();
        sweep::ScenarioSpec spec;
        sweep::ScenarioStats stats;
        bool ok = sweep::decodeSpec(specBytes, spec) &&
                  sweep::decodeStats(statsBytes, stats);
        Clock::time_point d = Clock::now();
        log.span(lane, "codec.encode", a, b, cell);
        log.span(lane, "codec.decode", b, d, cell);
        if (!ok || sweep::encodeSpec(spec) != specBytes ||
            sweep::encodeStats(stats) != statsBytes) {
            ++tally.failed;
            tally.problem("codec round trip differs on cell " +
                          std::to_string(c.index));
        }
    }
}

// --- Statistics ------------------------------------------------------

/** Nearest-rank percentile (the sweep's own definition). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return sweep::nearestRankPercentile(v, q);
}

/** The fabric group an end-to-end ns/bit metric pools. */
const char *
fabricGroup(backend::BackendKind k)
{
    switch (k) {
    case backend::BackendKind::Mbus:
        return "mbus";
    case backend::BackendKind::I2cStd:
    case backend::BackendKind::I2cOracle:
        return "i2c";
    case backend::BackendKind::Bitbang:
        return "bitbang";
    case backend::BackendKind::Firmware:
        return "firmware";
    }
    return "other";
}

const char *const kGroups[] = {"mbus", "i2c", "bitbang", "firmware"};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

class Report
{
  public:
    /** Print and keep one metric; @p measured, when given, is the
     *  figure before scaling to nominal host speed. */
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = std::string(), double measured = -1)
    {
        metrics_.push_back({name, value, unit});
        char raw[40] = "";
        if (measured >= 0)
            std::snprintf(raw, sizeof raw, "[%.6g]", measured);
        std::printf("  %-34s %16.6g %-8s %-14s %s\n", name.c_str(), value,
                    unit.c_str(), raw, note.c_str());
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

double
peakRssMb()
{
    struct rusage self = {};
    ::getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

// --- Trace 0: end-to-end metrics --------------------------------------

void
endToEnd(const Context &ctx, Tally &tally, Report &out)
{
    // A warm-up pass first, checked but left out of every metric: the
    // first pass in a fresh process runs on cold caches and an unwarmed
    // heap. It also yields the reference every timed pass is checked
    // against, and fills the cell cache the warm replays read.
    Pass w = inProcessPass(ctx);
    checkCells(ctx, w.result, w.grid.size(), tally);
    std::uint64_t expect = w.fingerprint;
    fleet::CellCache cache(ctx.scratch + "/cache");
    fillCache(w.result, cache);
    w.warmS.push_back(warmReplay(ctx, w.grid, cache, expect, tally));
    std::printf("warm-up pass (not in the metrics): grid %.4f s, first "
                "cell at %.4f s, wall %.3f s, warm %.3f s\n",
                median(w.gridS), median(w.startS), w.wallS, median(w.warmS));

    // The host's speed is sampled all through the measured passes
    // (HostMeter::tick from the sweep's progress hook and between cache
    // replays); every timing is reported at the nominal host speed.
    HostMeter meter;

    // Rates are totals over every pass: work done / time taken.
    double bits = 0, wall = 0, warmWall = 0;
    std::size_t gridSize = 0, warmPasses = 0;
    std::vector<double> gridS, startS;
    std::vector<double> cellMs; // Every cell of every pass.
    std::map<std::string, std::pair<double, double>> fab; // wall, bits
    // Passes repeat until the budget is spent (at least three), and
    // stop where the budget's end falls in the first half of the next.
    Clock::time_point start = Clock::now();
    std::size_t passNo = 0;
    auto more = [&] {
        double spent = seconds(start, Clock::now());
        return passNo < 3 ||
               spent + 0.5 * spent / static_cast<double>(passNo) <
                   ctx.opt.seconds;
    };
    while (more()) {
        Pass p = inProcessPass(ctx, &meter);
        checkCells(ctx, p.result, p.grid.size(), tally);
        if (p.fingerprint != expect)
            tally.problem("pass " + std::to_string(passNo + 1) +
                          " fingerprint " + hex(p.fingerprint) +
                          " != warm-up " + hex(expect));
        Clock::time_point warmStart = Clock::now();
        for (int k = 0; moreWarm(k, warmStart, p.wallS); ++k) {
            meter.tick();
            p.warmS.push_back(warmReplay(ctx, p.grid, cache, expect, tally));
        }
        ++passNo;

        for (const sweep::CellResult &c : p.result.cells()) {
            double b = cellBits(c.stats);
            bits += b;
            auto &f = fab[fabricGroup(c.spec.backend)];
            f.first += c.wallSeconds;
            f.second += b;
            cellMs.push_back(1e3 * c.wallSeconds);
        }
        gridSize = p.grid.size();
        wall += p.wallS;
        for (double w : p.warmS)
            warmWall += w;
        warmPasses += p.warmS.size();
        gridS.insert(gridS.end(), p.gridS.begin(), p.gridS.end());
        startS.insert(startS.end(), p.startS.begin(), p.startS.end());
        std::printf("pass %zu: grid %.4f s, first cell at %.4f s, wall "
                    "%.3f s, warm %.3f s, fingerprint %s\n",
                    passNo, median(p.gridS), median(p.startS), p.wallS,
                    median(p.warmS), hex(p.fingerprint).c_str());
    }

    double slow = meter.slowdown();

    std::printf("\nhost slowdown %.4f (median reference chunk %.3f ms over "
                "%zu chunks); timings below are at nominal host speed, "
                "as measured in brackets\n",
                slow, 1e3 * meter.medianChunkS(), meter.chunks());
    std::printf("end-to-end metrics (%zu passes; rates and per-cell "
                "figures pool all of them):\n",
                passNo);
    // A rate at nominal speed is the measured rate x the slowdown; a
    // time is the measured time / the slowdown.
    auto rate = [&](const std::string &name, double measured,
                    const std::string &unit, const std::string &note) {
        out.add(name, measured * slow, unit, note, measured);
    };
    auto time = [&](const std::string &name, double measured,
                    const std::string &unit, const std::string &note) {
        out.add(name, measured / slow, unit, note, measured);
    };
    rate("bits_per_s", bits / wall, "bit/s",
         "completed wire bits / pass wall");
    for (const char *g : kGroups)
        time(std::string("ns_per_bit.") + g,
             fab[g].second > 0 ? 1e9 * fab[g].first / fab[g].second : 0,
             "ns/bit", "sum cell wall / sum bits");
    rate("cells_per_s", static_cast<double>(gridSize * passNo) / wall,
         "cells/s", "grid in to merged result and CSV out");
    std::string n = std::to_string(cellMs.size()) + " samples";
    time("cell_ms_p50", percentile(cellMs, 0.50), "ms", n);
    time("cell_ms_p99", percentile(cellMs, 0.99), "ms", n);
    rate("warm_cells_per_s",
         static_cast<double>(gridSize * warmPasses) / warmWall, "cells/s",
         std::to_string(warmPasses) + " cache replays");
    time("setup_s", median(gridS) + median(startS), "s",
         "grid generation + run entry to first cell start");
    out.add("peak_rss_mb", peakRssMb(), "MB", "benchmark process");
}

// --- Trace 1: per-layer metrics ---------------------------------------

struct Pooled
{
    double events = 0, bits = 0, dispatch = 0;
};

/** Per-layer counts from the deterministic ScenarioStats. */
void
countMetrics(const sweep::SweepResult &r, Report &out)
{
    std::map<std::string, Pooled> fab;
    double events = 0, bits = 0, trainEdges = 0, heapCallbacks = 0;
    double livePeak = 0, mbusNodeEdges = 0, mbusCycles = 0, arbRetries = 0;
    double samplesPlanned = 0, samplesDelivered = 0, missed = 0;
    double faultEvents = 0, busResets = 0, retries = 0, recovered = 0,
           abandoned = 0;
    const sweep::CellResult *costliest = nullptr;
    for (const sweep::CellResult &c : r.cells()) {
        const sweep::ScenarioStats &s = c.stats;
        double b = cellBits(s);
        Pooled &f = fab[fabricGroup(c.spec.backend)];
        f.events += static_cast<double>(s.eventsExecuted);
        f.bits += b;
        f.dispatch += static_cast<double>(s.dispatchCalls);
        events += static_cast<double>(s.eventsExecuted);
        bits += b;
        trainEdges += static_cast<double>(s.trainEdges);
        heapCallbacks += static_cast<double>(s.heapCallbacks);
        livePeak = std::max(livePeak, static_cast<double>(s.liveHighWater));
        if (c.spec.backend == backend::BackendKind::Mbus) {
            for (std::uint64_t e : s.perNodeEdges)
                mbusNodeEdges += static_cast<double>(e);
            mbusCycles += static_cast<double>(s.clockCycles);
        }
        arbRetries += static_cast<double>(s.arbitrationRetries);
        samplesPlanned += s.samplesPlanned;
        samplesDelivered += s.samplesDelivered;
        missed += s.missedDeadlines;
        faultEvents += s.faultEvents;
        busResets += static_cast<double>(s.busResets);
        retries += static_cast<double>(s.retries);
        recovered += s.recoveredTx;
        abandoned += s.abandonedTx;
        if (!costliest ||
            s.eventsExecuted > costliest->stats.eventsExecuted)
            costliest = &c;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    for (const char *g : kGroups)
        out.add(std::string("sim.events_per_bit.") + g,
                ratio(fab[g].events, fab[g].bits), "events/bit");
    out.add("sim.train_edges_per_bit", ratio(trainEdges, bits), "edges/bit");
    out.add("sim.heap_callbacks", heapCallbacks, "count");
    out.add("sim.slab_live_peak", livePeak, "count");
    out.add("sim.events_total", events, "count");
    for (const char *g : {"mbus", "bitbang", "firmware"})
        out.add(std::string("wire.dispatch_per_bit.") + g,
                ratio(fab[g].dispatch, fab[g].bits), "calls/bit");
    out.add("wire.node_edges_per_bit", ratio(mbusNodeEdges, fab["mbus"].bits),
            "edges/bit", "MBus cells");
    out.add("mbus.clock_cycles_per_bit", ratio(mbusCycles, fab["mbus"].bits),
            "cycles/bit", "MBus cells");
    out.add("mbus.arb_retries", arbRetries, "count");
    out.add("mbus.top_cell_clock_cycles",
            costliest ? static_cast<double>(costliest->stats.clockCycles) : 0,
            "count",
            costliest ? "cell " + std::to_string(costliest->index) : "");
    out.add("workload.sample_frac", ratio(samplesDelivered, samplesPlanned),
            "ratio", samplesPlanned > 0 ? "" : "no workload cells");
    out.add("workload.missed_deadlines", missed, "count");
    out.add("fault.events", faultEvents, "count");
    out.add("fault.bus_resets", busResets, "count");
    out.add("fault.retries", retries, "count");
    out.add("fault.recovered_frac", ratio(recovered, recovered + abandoned),
            "ratio",
            recovered + abandoned > 0 ? "" : "no failed transactions");
    out.add("sweep.straggler_event_share",
            costliest ? ratio(static_cast<double>(
                                  costliest->stats.eventsExecuted),
                              events)
                      : 0,
            "ratio");
}

/** Median span duration in µs over every name in @p names. */
double
medianUs(const SpanLog &log, std::initializer_list<const char *> names)
{
    std::vector<double> all;
    for (const char *n : names) {
        std::vector<double> d = log.durationsUs(n);
        all.insert(all.end(), d.begin(), d.end());
    }
    return median(all);
}

void
perLayer(const Context &ctx, Tally &tally, Report &out)
{
    Clock::time_point start = Clock::now();
    bool withFleet = ctx.opt.workload == Workload::FaultGrid;
    std::size_t main = ctx.threads;
    SpanLog log(ctx.threads + 1);

    // The solo traced pass: spans around every set-up call and cell.
    TracedPass solo = tracedSoloPass(ctx, log);
    checkCells(ctx, solo.result, solo.result.size(), tally);
    probeCodec(solo.result, main, log, tally);
    std::uint64_t expect = solo.fingerprint;

    // sweep.idle_share from an untraced SweepDriver::run pass.
    Pass plain = inProcessPass(ctx);
    checkCells(ctx, plain.result, plain.grid.size(), tally);
    double idleShare = overheadShare(plain.result, plain.wallS, ctx.threads);
    if (plain.fingerprint != expect)
        tally.problem("traced solo fingerprint " + hex(expect) +
                      " != SweepDriver::run " + hex(plain.fingerprint));

    // fault_grid: the fleet passes over the grid's first kFleetCells
    // cells, checked against their in-process fingerprint.
    std::vector<FleetPass> fleetPasses;
    if (withFleet) {
        std::vector<sweep::ScenarioSpec> grid =
            faultGrid(ctx.opt.seed, kFleetCells);
        sweep::SweepConfig cfg;
        cfg.threads = ctx.threads;
        cfg.masterSeed = ctx.masterSeed;
        std::uint64_t fleetExpect = report(sweep::SweepDriver(cfg).run(grid));
        for (int k = 0; k < kFleetPasses; ++k)
            fleetPasses.push_back(fleetPass(
                ctx, static_cast<std::size_t>(k), grid, fleetExpect, tally,
                log, main));
    }

    // Untraced vs traced, alternating, for the tracing overhead.
    std::vector<double> untraced{plain.totalS}, traced{solo.totalS};
    while (seconds(start, Clock::now()) < ctx.opt.seconds) {
        Pass u = inProcessPass(ctx);
        checkCells(ctx, u.result, u.grid.size(), tally);
        TracedPass t = tracedSoloPass(ctx, log);
        checkCells(ctx, t.result, t.result.size(), tally);
        if (u.fingerprint != expect || t.fingerprint != expect)
            tally.problem("pass fingerprint differs from pass 0");
        untraced.push_back(u.totalS);
        traced.push_back(t.totalS);
    }

    std::printf("\nper-layer metrics (%zu traced passes, %zu spans):\n",
                traced.size(), log.size());
    countMetrics(solo.result, out);

    double i2cMake = medianUs(log, {"backend.make.i2c_std",
                                    "backend.make.i2c_oracle"});
    out.add("backend.make_us.mbus", medianUs(log, {"backend.make.mbus"}),
            "us", "median makeBackend span");
    out.add("backend.make_us.i2c", i2cMake, "us");
    out.add("backend.make_us.bitbang",
            medianUs(log, {"backend.make.bitbang"}), "us");
    out.add("backend.make_us.firmware",
            medianUs(log, {"backend.make.firmware"}), "us");
    out.add("workload.compile_us", medianUs(log, {"workload.compile"}), "us",
            ctx.opt.workload == Workload::AppMix
                ? "median WorkloadEngine constructor"
                : "not exercised: no workload cells");
    out.add("fault.arm_us", medianUs(log, {"fault.compile_arm"}), "us",
            ctx.opt.workload == Workload::AppMix
                ? "not exercised: no fault cells"
                : "median FaultEngine constructor + arm");

    double setupUs = 0;
    for (const char *n :
         {"backend.make.mbus", "backend.make.i2c_std",
          "backend.make.i2c_oracle", "backend.make.bitbang",
          "backend.make.firmware", "fault.compile_arm", "workload.compile"})
        setupUs += log.totalUs(n);
    double cellUs = log.totalUs("cell");
    out.add("sweep.idle_share", idleShare, "ratio",
            "untraced SweepDriver::run");
    out.add("sweep.setup_share", cellUs > 0 ? setupUs / cellUs : 0, "ratio",
            "set-up spans / cell spans");
    out.add("sweep.report_ms", medianUs(log, {"sweep.report"}) / 1e3, "ms",
            "writeCsv + fingerprint");

    double cells = static_cast<double>(solo.result.size());
    std::vector<double> enc = log.durationsUs("codec.encode");
    std::vector<double> dec = log.durationsUs("codec.decode");
    double encSum = 0, decSum = 0;
    for (double d : enc)
        encSum += d;
    for (double d : dec)
        decSum += d;
    out.add("codec.encode_us_per_cell", cells > 0 ? encSum / cells : 0, "us",
            "encodeSpec + encodeStats");
    out.add("codec.decode_us_per_cell", cells > 0 ? decSum / cells : 0, "us",
            "decodeSpec + decodeStats");

    std::vector<double> spawn, first, ovCold, ovWarm, jbytes, hitCold,
        hitWarm, stolen;
    double deaths = 0;
    for (const FleetPass &p : fleetPasses) {
        spawn.push_back(p.spawnMs);
        first.push_back(p.firstCellMs);
        ovCold.push_back(p.coldOverhead);
        ovWarm.push_back(p.warmOverhead);
        jbytes.push_back(static_cast<double>(p.journalBytes));
        hitCold.push_back(static_cast<double>(p.cold.cacheHits) /
                          static_cast<double>(p.cold.cellsTotal));
        hitWarm.push_back(static_cast<double>(p.warm.cacheHits) /
                          static_cast<double>(p.warm.cellsTotal));
        stolen.push_back(static_cast<double>(p.cold.cellsStolen));
        deaths += static_cast<double>(p.cold.workerDeaths +
                                      p.warm.workerDeaths);
    }
    const std::string na =
        withFleet ? std::to_string(fleetPasses.size()) + " passes over " +
                        std::to_string(kFleetCells) + " cells"
                  : "not exercised: app_mix runs in-process";
    out.add("fleet.spawn_ms", median(spawn), "ms", na);
    out.add("fleet.first_cell_ms", median(first), "ms", na);
    out.add("fleet.overhead_share.cold", median(ovCold), "ratio", na);
    out.add("fleet.overhead_share.warm", median(ovWarm), "ratio",
            withFleet ? "1 by construction: hits report no cell wall" : na);
    out.add("fleet.journal_bytes", median(jbytes), "byte", na);
    out.add("fleet.cache_hit_frac.cold", median(hitCold), "ratio", na);
    out.add("fleet.cache_hit_frac.warm", median(hitWarm), "ratio", na);
    out.add("fleet.cells_stolen", median(stolen), "count", na);
    out.add("fleet.worker_deaths", deaths, "count", na);

    double overheadMs = 1e3 * (median(traced) - median(untraced));
    out.add("perfbench.trace_overhead_ms", overheadMs, "ms",
            "median traced - median untraced pass");
    std::printf("tracing overhead: traced %.3f s - untraced %.3f s = "
                "%.1f ms (%zu + %zu passes)\n",
                median(traced), median(untraced), overheadMs,
                traced.size(), untraced.size());
    std::printf("not measured: power.* (ledger charges need an "
                "in-program counter), trace.* (protocol tracing is off in "
                "every run), analysis.* (not on any hot path)\n");

    std::string tracePath = ctx.opt.workDir + "/trace-" +
                            ctx.opt.workloadName + "-seed" +
                            std::to_string(ctx.opt.seed) + ".json";
    if (log.writeChromeJson(tracePath, "perfbench " + ctx.opt.workloadName))
        std::printf("wrote %s (Chrome trace-event JSON, %zu events)\n",
                    tracePath.c_str(), log.size());
    else
        tally.problem("could not write " + tracePath);
}

// --- Entry point -------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** The host descriptor printed with every result. */
void
printHost(const Context &ctx)
{
    double load[3] = {-1, -1, -1};
    if (::getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1;
    std::printf("host: {\"nproc\": %ld, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"revision\": \"%s\", "
                "\"loadavg\": [%.2f, %.2f, %.2f], \"threads\": %u}\n",
                ::sysconf(_SC_NPROCESSORS_ONLN),
                jsonEscape(compilerName()).c_str(), PERFBENCH_BUILD_TYPE,
                jsonEscape(ctx.opt.revision).c_str(), load[0], load[1],
                load[2], ctx.threads);
}

bool
parse(int argc, char **argv, Options &o)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            o.workloadName = v;
            haveWorkload = true;
            if (v == "app_mix")
                o.workload = Workload::AppMix;
            else if (v == "fault_grid")
                o.workload = Workload::FaultGrid;
            else
                return false;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 0);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            o.trace = v != "0";
        } else if (k == "--runner") {
            o.runner = v;
        } else if (k == "--work-dir") {
            o.workDir = v;
        } else if (k == "--revision") {
            o.revision = v;
        } else {
            return false;
        }
    }
    return haveWorkload && !o.workDir.empty() &&
           (o.workload != Workload::FaultGrid || !o.runner.empty());
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    if (!parse(argc, argv, ctx.opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload app_mix|fault_grid "
                     "--seed N --seconds S --trace 0|1 "
                     "--runner PATH --work-dir DIR [--revision TEXT]\n");
        return 2;
    }
    long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    unsigned want = ctx.opt.workload == Workload::AppMix ? kAppMixParallelism
                                                         : kParallelism;
    ctx.threads =
        static_cast<unsigned>(std::max(1L, std::min<long>(want, nproc)));
    ctx.masterSeed = ctx.opt.workload == Workload::AppMix
                         ? appMixMasterSeed(ctx.opt.seed)
                         : sweep::SweepConfig{}.masterSeed;
    ctx.scratch = ctx.opt.workDir + "/run-" + ctx.opt.workloadName + "-" +
                  std::to_string(::getpid());
    fs::remove_all(ctx.scratch);
    fs::create_directories(ctx.scratch);

    printHost(ctx);
    std::printf("workload %s seed %llu master_seed %s budget %.0f s "
                "trace %d\n",
                ctx.opt.workloadName.c_str(),
                static_cast<unsigned long long>(ctx.opt.seed),
                hex(ctx.masterSeed).c_str(), ctx.opt.seconds,
                ctx.opt.trace ? 1 : 0);

    Tally tally;
    if (ctx.opt.workload != Workload::AppMix && !faultGridExtendsCi())
        tally.problem("fault grid at seed 0 does not extend "
                      "benchutil::faultyFiveFabricGrid()");

    Report out;
    if (ctx.opt.trace)
        perLayer(ctx, tally, out);
    else
        endToEnd(ctx, tally, out);
    fs::remove_all(ctx.scratch);

    std::printf("cells attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (const std::string &p : tally.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    std::string json = "{\"correct\": ";
    json += tally.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics().size(); ++i) {
        const Metric &m = out.metrics()[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                sim::formatDouble(m.value) + ", \"unit\": \"" + m.unit +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return tally.correct() ? 0 : 1;
}
