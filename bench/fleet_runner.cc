/**
 * @file
 * fleet_runner: the distributed sweep fleet's one binary.
 *
 * Two personalities:
 *
 *  - Coordinator (default): build a preset grid, fan it across N
 *    worker processes x M threads, merge, and emit CSV/JSON plus the
 *    fingerprint. Workers are fork+execs of this same binary unless
 *    --fork-only is given.
 *
 *  - `fleet_runner --fleet-worker`: speak the fleet protocol on
 *    stdin/stdout until told to exit. This is what the coordinator
 *    execs -- and because the protocol is plain JSON lines on
 *    stdin/stdout, `ssh host fleet_runner --fleet-worker` is a
 *    remote worker with no further machinery.
 *
 * Usage (coordinator):
 *   fleet_runner [--grid faulty|mix] [--cells N] [--workers N]
 *                [--threads M] [--seed S] [--ckpt DIR] [--cache DIR]
 *                [--salt X] [--csv PATH] [--json PATH] [--progress]
 *                [--fork-only]
 *
 * Exit status: 0 iff every cell merged (the fingerprint line is
 * printed either way, so a resumed run can be compared by eye).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "fleet/fleet.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

/** This binary's own path, for self-exec worker spawning. */
std::string
selfExe(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

std::vector<sweep::ScenarioSpec>
buildGrid(const std::string &kind, std::size_t cells)
{
    if (kind == "mix") {
        std::vector<sweep::ScenarioSpec> grid;
        for (std::size_t i = 0; i < cells; ++i) {
            int nodes = 3 + static_cast<int>(i % 6);
            double clock = (i % 2) != 0 ? 1e6 : 400e3;
            double storm = (i % 4) == 3 ? 0.10 : 0.0;
            sweep::ScenarioSpec s = benchutil::canonicalWorkloadCell(
                nodes, clock, storm, /*smoke=*/true);
            s.name = "fleet_mix" + std::to_string(i);
            grid.push_back(std::move(s));
        }
        return grid;
    }
    return benchutil::faultyFiveFabricGrid(cells, "fleet_cell");
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker personality: nothing but protocol on stdin/stdout.
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--fleet-worker") == 0)
            return fleet::workerMain(0, 1);

    std::string gridKind = "faulty";
    std::size_t cells = 25;
    fleet::FleetConfig cfg;
    cfg.workers = 2;
    cfg.threadsPerWorker = 1;
    bool forkOnly = false;
    std::string csvPath;
    std::string jsonPath;

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--grid"))
            gridKind = argv[++i];
        else if (arg("--cells"))
            cells = std::strtoull(argv[++i], nullptr, 10);
        else if (arg("--workers"))
            cfg.workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg("--threads"))
            cfg.threadsPerWorker = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg("--seed"))
            cfg.masterSeed = std::strtoull(argv[++i], nullptr, 0);
        else if (arg("--ckpt"))
            cfg.checkpointDir = argv[++i];
        else if (arg("--cache"))
            cfg.cacheDir = argv[++i];
        else if (arg("--salt"))
            cfg.cacheSalt = std::strtoull(argv[++i], nullptr, 0);
        else if (arg("--csv"))
            csvPath = argv[++i];
        else if (arg("--json"))
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--progress") == 0)
            cfg.progress = true;
        else if (std::strcmp(argv[i], "--fork-only") == 0)
            forkOnly = true;
    }
    if (!forkOnly)
        cfg.workerExe = selfExe(argv[0]);

    benchutil::banner(
        "fleet_runner: distributed sweep coordinator",
        "N processes x M threads == 1 process x 1 thread, by byte");

    std::vector<sweep::ScenarioSpec> grid = buildGrid(gridKind, cells);
    std::printf("grid=%s cells=%zu workers=%u threads=%u %s%s%s\n",
                gridKind.c_str(), grid.size(), cfg.workers,
                cfg.threadsPerWorker,
                forkOnly ? "fork-only" : "self-exec",
                cfg.checkpointDir.empty() ? "" : " ckpt",
                cfg.cacheDir.empty() ? "" : " cache");

    fleet::FleetResult fr = fleet::runFleet(grid, cfg);
    const fleet::FleetStats &st = fr.stats;

    std::printf("merged %zu/%llu cells  fingerprint=%016llx\n",
                fr.result.size(),
                static_cast<unsigned long long>(st.cellsTotal),
                static_cast<unsigned long long>(
                    fr.result.fingerprint()));
    std::uint64_t totalEvents = 0;
    const sweep::CellResult *straggler =
        benchutil::costliestCell(fr.result, totalEvents);
    if (straggler && straggler->stats.eventsExecuted > 0)
        std::printf("amdahl ceiling %.2fx (%llu events / %llu in "
                    "straggler cell %llu %s)\n",
                    static_cast<double>(totalEvents) /
                        static_cast<double>(
                            straggler->stats.eventsExecuted),
                    static_cast<unsigned long long>(totalEvents),
                    static_cast<unsigned long long>(
                        straggler->stats.eventsExecuted),
                    static_cast<unsigned long long>(straggler->index),
                    straggler->spec.name.c_str());
    std::printf("simulated=%llu cache hit/miss=%llu/%llu "
                "journal-recovered=%llu stolen=%llu deaths=%llu "
                "spawned=%llu%s\n",
                static_cast<unsigned long long>(st.cellsSimulated),
                static_cast<unsigned long long>(st.cacheHits),
                static_cast<unsigned long long>(st.cacheMisses),
                static_cast<unsigned long long>(st.cellsFromJournal),
                static_cast<unsigned long long>(st.cellsStolen),
                static_cast<unsigned long long>(st.workerDeaths),
                static_cast<unsigned long long>(st.workersSpawned),
                st.aborted ? "  ABORTED" : "");

    if (!csvPath.empty())
        std::printf("csv %s: %s\n", csvPath.c_str(),
                    fr.result.writeCsvFile(csvPath) ? "written"
                                                    : "FAILED");
    if (!jsonPath.empty())
        std::printf("json %s: %s\n", jsonPath.c_str(),
                    fr.result.writeJsonFile(jsonPath) ? "written"
                                                      : "FAILED");
    return fr.complete ? 0 : 1;
}
