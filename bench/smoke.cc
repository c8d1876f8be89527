/**
 * @file
 * The CI smoke gates, one driver: `smoke NAME [--out PATH]` runs the
 * named grid on 2 worker threads and again on 1, then applies every
 * check to it, skipping a check only where a cell's spec says it
 * does not apply: byte identity across thread counts (CSV, JSON,
 * fingerprint, per-cell trace bytes); per-cell health; the Sec 6.6
 * differential (every bitbang cell replayed with edge trains flipped,
 * which also switches the software member's coalesced CLK ISR
 * retirements, must match on the bus); and, where the flight
 * recorder is on, a forced wedge that must dump its stalled
 * transaction. Writes the CSV (plus cell 0's Perfetto JSON for a
 * traced grid) via the crash-safe writer; exits 1 on any failed
 * check or write.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/fsio.hh"
#include "sim/random.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

using Grid = std::vector<sweep::ScenarioSpec>;

/** Mediator-only rings of 2-8 nodes under random-pair interjection,
 *  each capturing its VCD. */
Grid
sweepGrid()
{
    Grid grid;
    for (int nodes : {2, 4, 8}) {
        for (std::size_t payload : {std::size_t{0}, std::size_t{8},
                                    std::size_t{32}}) {
            sweep::ScenarioSpec s;
            s.name = "smoke_n" + std::to_string(nodes) + "_b" +
                     std::to_string(payload);
            s.nodes = nodes;
            s.payloadBytes = payload;
            s.messages = 4;
            s.traffic = sweep::TrafficPattern::RandomPairs;
            s.interjectRate = 0.25;
            s.captureVcd = true;
            grid.push_back(std::move(s));
        }
    }
    return grid;
}

/** A compact application mix still covering the storm, node-fault
 *  and power-gate schedules. */
Grid
workloadGrid()
{
    Grid grid;
    for (int nodes : {3, 5}) {
        for (double storm : {0.0, 0.15}) {
            sweep::ScenarioSpec s = benchutil::canonicalWorkloadCell(
                nodes, 400e3, storm, /*smoke=*/true);
            s.workload.durationS = 4.0;
            s.name += storm > 0 ? "_storm" : "_quiet";
            s.captureVcd = true;

            workload::ScheduleSpec fault;
            fault.kind = workload::ScheduleKind::NodeFault;
            fault.atS = 1.0;
            fault.durationS = 0.5;
            s.workload.schedules.push_back(fault);

            workload::ScheduleSpec gate;
            gate.kind = workload::ScheduleKind::PowerGateWindow;
            gate.node = 1;
            gate.atS = 2.0;
            gate.durationS = 0.4;
            s.workload.schedules.push_back(gate);
            grid.push_back(std::move(s));
        }
    }
    return grid;
}

/** One WorkloadSpec on each of @p kinds, quiet and stormy. */
Grid
fabricGrid(std::initializer_list<backend::BackendKind> kinds)
{
    Grid grid;
    for (backend::BackendKind kind : kinds) {
        for (double storm : {0.0, 0.15}) {
            sweep::ScenarioSpec s = benchutil::canonicalWorkloadCell(
                /*nodes=*/3, /*clockHz=*/400e3, storm, /*smoke=*/true);
            s.workload.durationS = 6.0;
            s.backend = kind;
            s.name = std::string(backend::backendKindName(kind)) +
                     (storm > 0 ? "_storm" : "_quiet");
            grid.push_back(std::move(s));
        }
    }
    return grid;
}

/** The canonical mix on all five fabrics (firmware last, so the
 *  first four fabrics keep their rows and cell seeds). */
Grid
backendGrid()
{
    using backend::BackendKind;
    return fabricGrid({BackendKind::Mbus, BackendKind::I2cStd,
                       BackendKind::I2cOracle, BackendKind::Bitbang,
                       BackendKind::Firmware});
}

/** The canonical mix on both software-member flavors. */
Grid
firmwareGrid()
{
    using backend::BackendKind;
    return fabricGrid({BackendKind::Bitbang, BackendKind::Firmware});
}

/** The faulty five-fabric grid fleet_smoke sweeps too, so the fleet
 *  gate checks the very cells this gate pins in-process. */
Grid
faultGrid()
{
    return benchutil::faultyFiveFabricGrid(25);
}

/** A faulty five-fabric grid with protocol tracing and the flight
 *  recorder on in every cell. */
Grid
traceGrid()
{
    sim::Random rng(0x7124CE00ULL);
    Grid grid;
    for (std::size_t i = 0; i < 25; ++i) {
        sweep::ScenarioSpec s;
        s.name = "trace_smoke" + std::to_string(i);
        s.backend = benchutil::kFiveFabrics[i % 5];
        s.nodes = static_cast<int>(rng.between(3, 6));
        s.payloadBytes = rng.below(9);
        s.messages = static_cast<int>(rng.between(2, 4));
        s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
        s.powerGated = rng.chance(0.3);
        s.interjectRate = rng.chance(0.5) ? 0.4 : 0.0;
        s.retry.maxRetries = static_cast<int>(rng.below(3));
        s.retry.backoffEpochs = 8;

        fault::FaultEntry e;
        e.kind = static_cast<fault::FaultKind>(rng.below(6));
        e.count = 1 + static_cast<int>(rng.below(2));
        e.endS = 1.5e-3;
        e.durationS = 1e-4 + 9e-4 * rng.uniform();
        e.jitterFrac = 0.3;
        e.pulses = 1 + static_cast<int>(rng.below(4));
        e.driftFrac = 0.05;
        s.faults.name = "smoke";
        s.faults.watchdogEpochs = 32;
        s.faults.entries.push_back(e);

        s.trace.protocol = true;
        s.trace.flight = true;
        grid.push_back(std::move(s));
    }
    return grid;
}

struct GridEntry
{
    const char *name;
    Grid (*build)();
};

const GridEntry kGrids[] = {
    {"sweep", sweepGrid},       {"workload", workloadGrid},
    {"backend", backendGrid},   {"firmware", firmwareGrid},
    {"fault", faultGrid},       {"trace", traceGrid},
};

/** Failed-check counter; each failure names itself on stderr. */
int failures = 0;

void
fail(const std::string &what)
{
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
}

/** Identity: every deterministic byte matches across thread counts. */
void
checkIdentity(const sweep::SweepResult &a, const sweep::SweepResult &b)
{
    std::ostringstream csvA, csvB, jsonA, jsonB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    a.writeJson(jsonA);
    b.writeJson(jsonB);
    if (csvA.str() != csvB.str())
        fail("CSV diverged between 2 threads and 1");
    if (jsonA.str() != jsonB.str())
        fail("JSON diverged between 2 threads and 1");
    if (a.fingerprint() != b.fingerprint())
        fail("fingerprint diverged between 2 threads and 1");
    for (std::size_t i = 0; i < a.size(); ++i) {
        const sweep::ScenarioStats &sa = a.cell(i).stats;
        const sweep::ScenarioStats &sb = b.cell(i).stats;
        if (sa.traceJson != sb.traceJson ||
            sa.traceHash != sb.traceHash ||
            sa.flightDumps != sb.flightDumps)
            fail(a.cell(i).spec.name + ": trace diverged");
    }
}

/** Health: per-cell invariants, plus a fault schedule that fired. */
void
checkHealth(const sweep::SweepResult &a)
{
    bool anyFaults = false;
    for (const sweep::CellResult &c : a.cells()) {
        const sweep::ScenarioSpec &spec = c.spec;
        const sweep::ScenarioStats &s = c.stats;
        anyFaults = anyFaults || spec.faults.enabled();
        if (s.wedged)
            fail(spec.name + " wedged");
        if (s.planned != s.acked + s.naked + s.broadcasts +
                             s.interrupted + s.rxAborts + s.failed)
            fail(spec.name + ": outcomes do not sum to plan");
        if (s.payloadMismatches != 0 && !spec.faults.enabled())
            fail(spec.name + ": corrupted delivery without faults");
        if (spec.workload.enabled() && s.samplesDelivered == 0)
            fail(spec.name + " delivered no samples");
        if (spec.trace.enabled() && s.traceEvents == 0)
            fail(spec.name + " recorded no trace events");
    }
    if (anyFaults && a.aggregate().faultEvents == 0)
        fail("the grid schedules faults but none fired");
}

/** Differential: each bitbang cell, replayed on its own seed with
 *  edge trains flipped, is indistinguishable on the bus. */
void
checkDifferential(const sweep::SweepResult &a)
{
    for (const sweep::CellResult &c : a.cells()) {
        if (c.spec.backend != backend::BackendKind::Bitbang)
            continue;
        sweep::ScenarioSpec twin = c.spec;
        twin.edgeTrains = !twin.edgeTrains;
        sweep::ScenarioStats f = sweep::runScenario(twin, c.seed);
        const sweep::ScenarioStats &m = c.stats;
        bool same = m.samplesDelivered == f.samplesDelivered &&
                    m.missedDeadlines == f.missedDeadlines &&
                    m.acked == f.acked && m.naked == f.naked &&
                    m.interrupted == f.interrupted &&
                    m.failed == f.failed &&
                    m.bytesDelivered == f.bytesDelivered &&
                    m.clockCycles == f.clockCycles &&
                    m.switchingJ == f.switchingJ &&
                    m.vcdHash == f.vcdHash;
        std::printf("differential %-16s: edge trains flipped %s\n",
                    c.spec.name.c_str(), same ? "EQUAL" : "DIVERGED");
        if (!same)
            fail(c.spec.name + ": edge-train twin diverged");
    }
}

/** Forced wedge: a time limit far below the traffic must trip the
 *  wedge guard and dump the stalled transaction. */
void
checkForcedWedge(const Grid &grid)
{
    auto base = std::find_if(grid.begin(), grid.end(),
                             [](const auto &s) { return s.trace.flight; });
    if (base == grid.end())
        return;
    sweep::ScenarioSpec wedged = *base;
    wedged.name = "forced_wedge";
    wedged.faults = fault::FaultSpec{};
    wedged.messages = 8;
    wedged.payloadBytes = 16;
    wedged.timeLimit = 40 * sim::kMicrosecond;
    sweep::ScenarioStats w = sweep::SweepDriver().runCell(wedged, 0).stats;
    std::string dump = w.flightDumps.empty() ? "" : w.flightDumps.back();
    if (!w.wedged)
        fail("forced-wedge cell did not wedge");
    else if (dump.find("wedge-guard") == std::string::npos ||
             dump.find("tx#") == std::string::npos)
        fail("wedge dump does not name the stalled transaction:\n" + dump);
    else
        std::printf("forced wedge: dump names the stalled transaction\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const GridEntry *entry = nullptr;
    for (const GridEntry &g : kGrids)
        if (argc > 1 && std::strcmp(argv[1], g.name) == 0)
            entry = &g;
    if (!entry ||
        (argc != 2 && !(argc == 4 && std::strcmp(argv[2], "--out") == 0))) {
        std::fprintf(stderr, "usage: smoke NAME [--out PATH]; NAME:");
        for (const GridEntry &g : kGrids)
            std::fprintf(stderr, " %s", g.name);
        std::fprintf(stderr, "\n");
        return 2;
    }
    std::string out =
        argc == 4 ? argv[3] : std::string(entry->name) + "_smoke.csv";

    benchutil::banner(std::string("Smoke: ") + entry->name +
                          " grid, 2-thread vs 1-thread byte identity",
                      "CI self-check gate");

    Grid grid = entry->build();
    sweep::SweepConfig sharded;
    sharded.threads = 2;
    sweep::SweepConfig solo;
    solo.threads = 1;
    sweep::SweepResult a = sweep::SweepDriver(sharded).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(solo).run(grid);

    std::printf("%-18s %-10s %7s %7s %9s %6s %6s %6s %6s\n", "cell",
                "fabric", "planned", "acked", "samples", "faults",
                "mism", "trace", "wedged");
    for (const sweep::CellResult &c : a.cells()) {
        const sweep::ScenarioStats &s = c.stats;
        std::printf("%-18s %-10s %7d %7d %5d/%-3d %6llu %6llu %6llu "
                    "%6s\n",
                    c.spec.name.c_str(),
                    backend::backendKindName(c.spec.backend), s.planned,
                    s.acked + s.broadcasts, s.samplesDelivered,
                    s.samplesPlanned,
                    static_cast<unsigned long long>(s.faultEvents),
                    static_cast<unsigned long long>(s.payloadMismatches),
                    static_cast<unsigned long long>(s.traceEvents),
                    s.wedged ? "WEDGED" : "no");
    }

    checkIdentity(a, b);
    checkHealth(a);
    checkDifferential(a);
    checkForcedWedge(grid);
    std::printf("fingerprint=%016llx, wall: %.3f s across %zu cells "
                "(2 threads)\n",
                static_cast<unsigned long long>(a.fingerprint()),
                a.totalWallSeconds(), a.size());

    if (!a.writeCsvFile(out, /*includeWallTime=*/true))
        fail("could not write " + out);
    if (!grid.empty() && grid[0].trace.protocol) {
        std::string stem = out.substr(0, out.rfind(".csv"));
        if (!sim::atomicWriteFile(stem + "_cell0.json",
                                  a.cell(0).stats.traceJson))
            fail("could not write " + stem + "_cell0.json");
    }
    std::printf("SMOKE %s %s\n", entry->name, failures ? "FAILED" : "OK");
    return failures ? 1 : 0;
}
