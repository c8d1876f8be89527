/**
 * @file
 * CI smoke sweep: a small grid on 2 worker threads, re-run
 * single-threaded, with the shard-determinism property checked
 * end-to-end (byte-identical CSV and JSON + equal fingerprints). Exits
 * non-zero on any divergence, wedge, or corruption, so CI fails the
 * PR. Writes the deterministic CSV (plus wall times to stdout).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sweep/sweep.hh"

using namespace mbus;

int
main(int argc, char **argv)
{
    const char *out = "sweep_smoke.csv";
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];

    benchutil::banner("Sweep smoke: shard determinism on a small grid",
                      "sweep engine self-check (CI gate)");

    std::vector<sweep::ScenarioSpec> grid;
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

    sweep::SweepConfig sharded;
    sharded.threads = 2;
    sweep::SweepConfig solo;
    solo.threads = 1;
    sweep::SweepResult a = sweep::SweepDriver(sharded).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(solo).run(grid);

    std::ostringstream csvA, csvB, jsonA, jsonB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    a.writeJson(jsonA);
    b.writeJson(jsonB);
    bool identical = csvA.str() == csvB.str() &&
                     jsonA.str() == jsonB.str() &&
                     a.fingerprint() == b.fingerprint();

    sweep::SweepAggregate agg = a.aggregate();
    std::printf("cells=%llu planned=%llu acked=%llu interrupted=%llu "
                "mismatches=%llu wedged=%llu\n",
                static_cast<unsigned long long>(agg.cells),
                static_cast<unsigned long long>(agg.planned),
                static_cast<unsigned long long>(agg.acked),
                static_cast<unsigned long long>(agg.interrupted),
                static_cast<unsigned long long>(agg.mismatches),
                static_cast<unsigned long long>(agg.wedgedCells));
    std::printf("fingerprint=%016llx (2 threads) vs %016llx (1 "
                "thread), CSV + JSON bytes: %s\n",
                static_cast<unsigned long long>(a.fingerprint()),
                static_cast<unsigned long long>(b.fingerprint()),
                identical ? "IDENTICAL" : "DIVERGED");
    std::printf("wall: %.3f s across %zu cells (2 threads)\n",
                a.totalWallSeconds(), a.size());

    std::ofstream os(out);
    a.writeCsv(os, /*includeWallTime=*/true);
    std::printf("wrote %s\n", out);

    bool healthy = agg.mismatches == 0 && agg.wedgedCells == 0 &&
                   agg.planned == agg.acked + agg.naked +
                                      agg.broadcasts + agg.interrupted +
                                      agg.rxAborts + agg.failed;
    if (!identical || !healthy) {
        std::printf("SMOKE SWEEP FAILED\n");
        return 1;
    }
    std::printf("SMOKE SWEEP OK\n");
    return 0;
}
