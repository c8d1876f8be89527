/**
 * @file
 * Differential harness: the ported libmbus firmware node vs the
 * behavioral BitbangMbus model, driven through identical randomized
 * scenarios (same spec, same cell seed, only the backend kind --
 * bitbang or firmware -- differs).
 *
 * The two engines are intended to be indistinguishable from the
 * wire's point of view: same delivered bytes, same terminal status
 * per transaction, same retry counts, same wire edge counts (the VCD
 * hash covers every net transition), same switching energy. Kernel
 * bookkeeping (eventsExecuted, ISR-train counters) is deliberately
 * NOT compared -- the model coalesces CLK retirements into kernel
 * trains while the firmware replays each edge, which changes how
 * many events the kernel executes but nothing observable on the bus.
 *
 * Compiled into the sweep test binary (`ctest -L sweep`): ~200
 * randomized pairs is sweep-sized work, not tier-1 unit work.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/random.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

/** Everything bus-observable must agree between the two flavors. */
void
expectFlavorsAgree(const sweep::ScenarioStats &model,
                   const sweep::ScenarioStats &fw,
                   const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(model.planned, fw.planned);
    EXPECT_EQ(model.acked, fw.acked);
    EXPECT_EQ(model.naked, fw.naked);
    EXPECT_EQ(model.broadcasts, fw.broadcasts);
    EXPECT_EQ(model.interrupted, fw.interrupted);
    EXPECT_EQ(model.rxAborts, fw.rxAborts);
    EXPECT_EQ(model.failed, fw.failed);
    EXPECT_EQ(model.bytesDelivered, fw.bytesDelivered);
    EXPECT_EQ(model.payloadMismatches, fw.payloadMismatches);
    EXPECT_EQ(model.arbitrationRetries, fw.arbitrationRetries);
    EXPECT_EQ(model.clockCycles, fw.clockCycles);
    // Bit-identical, not approximately equal: both flavors price the
    // same edges and the same ISR cycles through the same ledger.
    EXPECT_EQ(model.switchingJ, fw.switchingJ);
    EXPECT_EQ(model.leakageJ, fw.leakageJ);
    EXPECT_EQ(model.wedged, fw.wedged);
    EXPECT_FALSE(model.wedged); // A wedge is a bug even when shared.
    // The waveform is the strongest claim: every transition on every
    // net, in order, at the same timestamps.
    EXPECT_EQ(model.vcdBytes, fw.vcdBytes);
    EXPECT_EQ(model.vcdHash, fw.vcdHash);
    EXPECT_EQ(model.vcd, fw.vcd);
}

/** One randomized mixed-ring spec; the backend is filled in later. */
sweep::ScenarioSpec
randomSpec(sim::Random &rng, std::size_t i)
{
    sweep::ScenarioSpec s;
    s.name = "diff" + std::to_string(i);
    s.nodes = static_cast<int>(rng.between(3, 5));
    s.busClockHz = 50e3 + 350e3 * rng.uniform();
    s.messages = static_cast<int>(rng.between(1, 5));
    s.payloadBytes = rng.below(17);
    s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
    s.fullAddressing = rng.chance(0.25);
    s.powerGated = rng.chance(0.3);
    s.priorityRate = rng.chance(0.5) ? 0.5 : 0.0;
    s.interjectRate = rng.chance(0.4) ? 0.35 : 0.0;
    s.edgeTrains = rng.chance(0.8);
    s.chunkedDispatch = rng.chance(0.8);
    if (rng.chance(0.2))
        s.softRxCapacity = rng.between(8, 16); // Force RX overflow.
    s.captureVcd = i % 4 == 0; // Waveform identity on a quarter.
    return s;
}

} // namespace

TEST(FirmwareDifferential, TwoHundredRandomizedScenariosAgree)
{
    const std::size_t kScenarios = 200;
    sim::Random master(0x6c69626d627573ULL); // "libmbus"
    for (std::size_t i = 0; i < kScenarios; ++i) {
        sweep::ScenarioSpec spec = randomSpec(master, i);
        const std::uint64_t seed = sim::Random(0xd1ff).split(i).next();

        sweep::ScenarioSpec m = spec;
        m.backend = backend::BackendKind::Bitbang;
        sweep::ScenarioSpec f = spec;
        f.backend = backend::BackendKind::Firmware;

        sweep::ScenarioStats sm = sweep::runScenario(m, seed);
        sweep::ScenarioStats sf = sweep::runScenario(f, seed);
        expectFlavorsAgree(
            sm, sf,
            spec.name + " nodes=" + std::to_string(spec.nodes) +
                " clk=" + std::to_string(spec.busClockHz) + " traffic=" +
                sweep::trafficPatternName(spec.traffic) + " msgs=" +
                std::to_string(spec.messages) + " rxcap=" +
                std::to_string(spec.softRxCapacity));
        if (HasFatalFailure() || HasNonfatalFailure())
            break; // One divergence is enough context; stop early.
    }
}

TEST(FirmwareDifferential, WorkloadMixAgrees)
{
    // The application-mix generator (duty-cycled sensor, imager
    // bursts, interjection storms, fault schedule) through both
    // flavors: the full workload pipeline, not just classic traffic.
    for (double storm : {0.0, 0.15}) {
        sweep::ScenarioSpec spec = benchutil::canonicalWorkloadCell(
            /*nodes=*/3, /*clockHz=*/400e3, storm, /*smoke=*/true);
        spec.workload.durationS = 6.0;

        sweep::ScenarioSpec m = spec;
        m.backend = backend::BackendKind::Bitbang;
        sweep::ScenarioSpec f = spec;
        f.backend = backend::BackendKind::Firmware;

        sweep::ScenarioStats sm = sweep::runScenario(m, 0x1757);
        sweep::ScenarioStats sf = sweep::runScenario(f, 0x1757);
        expectFlavorsAgree(sm, sf,
                           "workload storm=" + std::to_string(storm));
        EXPECT_EQ(sm.samplesDelivered, sf.samplesDelivered);
        EXPECT_EQ(sm.missedDeadlines, sf.missedDeadlines);
        EXPECT_EQ(sm.stormInterjections, sf.stormInterjections);
        EXPECT_GT(sf.samplesDelivered, 0);
    }
}

TEST(FirmwareDifferential, ReplayIsDeterministicAcrossThreadCounts)
{
    // The firmware backend inherits the sweep determinism contract:
    // a sharded sweep and a solo re-run must be byte-identical.
    sim::Random master(0xf1f2);
    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t i = 0; i < 10; ++i) {
        sweep::ScenarioSpec s = randomSpec(master, i);
        s.captureVcd = true;
        s.backend = backend::BackendKind::Firmware;
        grid.push_back(std::move(s));
    }

    sweep::SweepConfig sharded;
    sharded.threads = 2;
    sweep::SweepConfig solo;
    solo.threads = 1;
    sweep::SweepResult a = sweep::SweepDriver(sharded).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(solo).run(grid);

    std::ostringstream csvA, csvB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    EXPECT_EQ(csvA.str(), csvB.str());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // And any single cell replays solo, bit for bit.
    const sweep::CellResult &cell = a.cells()[3];
    sweep::ScenarioStats replay =
        sweep::runScenario(cell.spec, cell.seed);
    EXPECT_EQ(replay.vcdHash, cell.stats.vcdHash);
    EXPECT_EQ(replay.bytesDelivered, cell.stats.bytesDelivered);
    EXPECT_EQ(replay.switchingJ, cell.stats.switchingJ);
}
