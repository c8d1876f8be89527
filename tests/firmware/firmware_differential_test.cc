/**
 * @file
 * Differential harness for the software MBus member, driven through
 * randomized scenarios and the application mix.
 *
 * Two references. A behavioural model of the member, written
 * independently of the libmbus port, was differentially tested
 * against it: same delivered bytes, same terminal status per
 * transaction, same retry counts, same wire edges (the VCD covers
 * every net transition), same switching energy. The model is gone;
 * its runs survive as one digest per test over every field compared
 * below, which the firmware member must reproduce. And scenario by
 * scenario, the same cell with edge trains flipped must agree on
 * those fields: the member's coalesced CLK retirement trains (and the
 * wire's) change how many events the kernel executes but nothing
 * observable on the bus.
 *
 * Compiled into the sweep test binary (`ctest -L sweep`): ~200
 * randomized pairs is sweep-sized work, not tier-1 unit work.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/hash.hh"
#include "sim/random.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

/** Everything bus-observable must agree between two runs. */
void
expectFlavorsAgree(const sweep::ScenarioStats &a,
                   const sweep::ScenarioStats &b, const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.planned, b.planned);
    EXPECT_EQ(a.acked, b.acked);
    EXPECT_EQ(a.naked, b.naked);
    EXPECT_EQ(a.broadcasts, b.broadcasts);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.rxAborts, b.rxAborts);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.bytesDelivered, b.bytesDelivered);
    EXPECT_EQ(a.payloadMismatches, b.payloadMismatches);
    EXPECT_EQ(a.arbitrationRetries, b.arbitrationRetries);
    EXPECT_EQ(a.clockCycles, b.clockCycles);
    // Bit-identical, not approximately equal: both runs price the
    // same edges and the same ISR cycles through the same ledger.
    EXPECT_EQ(a.switchingJ, b.switchingJ);
    EXPECT_EQ(a.leakageJ, b.leakageJ);
    EXPECT_EQ(a.wedged, b.wedged);
    EXPECT_FALSE(a.wedged); // A wedge is a bug even when shared.
    // The waveform is the strongest claim: every transition on every
    // net, in order, at the same timestamps.
    EXPECT_EQ(a.vcdBytes, b.vcdBytes);
    EXPECT_EQ(a.vcdHash, b.vcdHash);
    EXPECT_EQ(a.vcd, b.vcd);
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Fold every field expectFlavorsAgree compares into @p h. */
void
foldObservable(sim::Fnv1a &h, const sweep::ScenarioStats &s)
{
    for (int v : {s.planned, s.acked, s.naked, s.broadcasts, s.interrupted,
                  s.rxAborts, s.failed})
        h.update(static_cast<std::uint64_t>(v));
    h.update(s.bytesDelivered)
        .update(s.payloadMismatches)
        .update(s.arbitrationRetries)
        .update(s.clockCycles)
        .update(bitsOf(s.switchingJ))
        .update(bitsOf(s.leakageJ))
        .update(static_cast<std::uint64_t>(s.wedged))
        .update(static_cast<std::uint64_t>(s.vcdBytes))
        .update(s.vcdHash)
        .update(s.vcd);
}

/** The same cell with edge trains flipped. */
sweep::ScenarioSpec
trainsFlipped(sweep::ScenarioSpec spec)
{
    spec.edgeTrains = !spec.edgeTrains;
    return spec;
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
    // Digest of the behavioural model's runs of these 200 cells.
    const std::uint64_t kModelDigest = 0x205b3189676bb129ULL;
    const std::size_t kScenarios = 200;
    sim::Random master(0x6c69626d627573ULL); // "libmbus"
    sim::Fnv1a digest;
    for (std::size_t i = 0; i < kScenarios; ++i) {
        sweep::ScenarioSpec spec = randomSpec(master, i);
        spec.backend = backend::BackendKind::Bitbang;
        const std::uint64_t seed = sim::Random(0xd1ff).split(i).next();

        sweep::ScenarioStats s = sweep::runScenario(spec, seed);
        foldObservable(digest, s);
        expectFlavorsAgree(
            s, sweep::runScenario(trainsFlipped(spec), seed),
            spec.name + " nodes=" + std::to_string(spec.nodes) +
                " clk=" + std::to_string(spec.busClockHz) + " traffic=" +
                sweep::trafficPatternName(spec.traffic) + " msgs=" +
                std::to_string(spec.messages) + " rxcap=" +
                std::to_string(spec.softRxCapacity) + " trains=" +
                std::to_string(spec.edgeTrains));
        if (HasFatalFailure() || HasNonfatalFailure())
            break; // One divergence is enough context; stop early.
    }
    EXPECT_EQ(digest.digest(), kModelDigest);
}

TEST(FirmwareDifferential, WorkloadMixAgrees)
{
    // The application-mix generator (duty-cycled sensor, imager
    // bursts, interjection storms, fault schedule): the full workload
    // pipeline, not just classic traffic.
    const std::uint64_t kModelDigest = 0xfcc49f78f7549c2dULL;
    sim::Fnv1a digest;
    for (double storm : {0.0, 0.15}) {
        sweep::ScenarioSpec spec = benchutil::canonicalWorkloadCell(
            /*nodes=*/3, /*clockHz=*/400e3, storm, /*smoke=*/true);
        spec.workload.durationS = 6.0;
        spec.backend = backend::BackendKind::Bitbang;

        sweep::ScenarioStats s = sweep::runScenario(spec, 0x1757);
        sweep::ScenarioStats flipped =
            sweep::runScenario(trainsFlipped(spec), 0x1757);
        foldObservable(digest, s);
        for (int v :
             {s.samplesDelivered, s.missedDeadlines, s.stormInterjections})
            digest.update(static_cast<std::uint64_t>(v));
        expectFlavorsAgree(s, flipped,
                           "workload storm=" + std::to_string(storm));
        EXPECT_EQ(s.samplesDelivered, flipped.samplesDelivered);
        EXPECT_EQ(s.missedDeadlines, flipped.missedDeadlines);
        EXPECT_EQ(s.stormInterjections, flipped.stormInterjections);
        EXPECT_GT(s.samplesDelivered, 0);
    }
    EXPECT_EQ(digest.digest(), kModelDigest);
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
