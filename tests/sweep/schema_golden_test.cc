/**
 * @file
 * Byte goldens for every serialized form of a sweep cell: the
 * canonical spec codec ("spec1"), the stats codec ("stat1"), the
 * sweep CSV and the sweep JSON. A fixed ten-cell grid spans all five
 * fabrics, classic / workload / faulty / traced / VCD-capturing
 * cells, a retry policy, names carrying ',', '"', '\', '|' and a
 * newline, a -0.0 and 17-digit doubles. Each artifact is pinned by
 * its FNV-1a hash and length, so any schema change -- a reordered
 * column, a dropped field, a changed escape -- fails here first.
 *
 * Updating a constant is a wire-format change: existing cell caches
 * and journals stop decoding unless the codec tag and
 * fleet::kHarnessVersionSalt move with it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/hash.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

/** A short two-actor mix with a storm window. */
workload::WorkloadSpec
smallMix(const std::string &name, const std::string &actorName)
{
    workload::WorkloadSpec w;
    w.name = name;
    w.durationS = 0.06;
    workload::ActorSpec sensor;
    sensor.name = actorName;
    sensor.kind = workload::ActorKind::PeriodicSensor;
    sensor.node = 1;
    sensor.periodS = 0.01;
    sensor.jitterFrac = 0.2;
    sensor.payloadBytes = 4;
    w.actors.push_back(sensor);
    workload::ActorSpec imager;
    imager.kind = workload::ActorKind::BurstImager;
    imager.node = 2;
    imager.periodS = 0.03;
    imager.payloadBytes = 16;
    imager.burstBytes = 48;
    imager.retry.maxRetries = 1;
    w.actors.push_back(imager);
    workload::ScheduleSpec storm;
    storm.kind = workload::ScheduleKind::InterjectionStorm;
    storm.atS = 0.01;
    storm.durationS = 0.03;
    storm.rateHz = 100;
    w.schedules.push_back(storm);
    return w;
}

fault::FaultSpec
faults(const std::string &name, fault::FaultKind kind, int count)
{
    fault::FaultSpec fs;
    fs.name = name;
    fs.watchdogEpochs = 32;
    fault::FaultEntry e;
    e.kind = kind;
    e.count = count;
    e.endS = 1.5e-3;
    e.durationS = 2e-4;
    e.jitterFrac = 0.3;
    e.pulses = 2;
    fs.entries.push_back(e);
    return fs;
}

/** The pinned grid; cell order is part of the golden. */
std::vector<sweep::ScenarioSpec>
goldenGrid()
{
    using backend::BackendKind;
    std::vector<sweep::ScenarioSpec> g;

    sweep::ScenarioSpec s; // 0: classic MBus, VCD, hostile name.
    s.name = "a,b\"c\\d|e\nf";
    s.nodes = 4;
    s.busClockHz = 1e6 / 3;
    s.hopDelayNs = 0.1;
    s.priorityRate = -0.0;
    s.traffic = sweep::TrafficPattern::RandomPairs;
    s.messages = 3;
    s.payloadBytes = 5;
    s.captureVcd = true;
    g.push_back(s);

    s = {}; // 1: faulty I2C with a retry policy.
    s.name = "i2c,std";
    s.backend = BackendKind::I2cStd;
    s.messages = 3;
    s.faults = faults("glitch|1", fault::FaultKind::GlitchBurst, 2);
    s.retry.maxRetries = 2;
    s.retry.backoffEpochs = 8;
    s.retry.multiplier = 1.5;
    g.push_back(s);

    s = {}; // 2: traced faulty oracle I2C under an interjection storm.
    s.name = "oracle";
    s.backend = BackendKind::I2cOracle;
    s.nodes = 5;
    s.messages = 3;
    s.interjectRate = 0.4;
    s.faults = faults("", fault::FaultKind::EdgeDrop, 1);
    s.trace.protocol = true;
    s.trace.flight = true;
    g.push_back(s);

    s = {}; // 3: bit-banged member, flight recorder only, faulty.
    s.name = "bitbang";
    s.backend = BackendKind::Bitbang;
    s.nodes = 4;
    s.messages = 2;
    s.traffic = sweep::TrafficPattern::AllToOne;
    s.faults = faults("stuck", fault::FaultKind::StuckAt0, 1);
    s.trace.flight = true;
    s.trace.flightDepth = 64;
    g.push_back(s);

    s = {}; // 4: firmware member with a VCD.
    s.name = "firmware";
    s.backend = BackendKind::Firmware;
    s.messages = 2;
    s.payloadBytes = 3;
    s.captureVcd = true;
    g.push_back(s);

    s = {}; // 5: workload cell, hostile workload and actor names.
    s.name = "mix";
    s.nodes = 4;
    s.powerGated = true;
    s.workload = smallMix("w,o\"r\\k|l\no", "s,e\"n\\s|o\nr");
    g.push_back(s);

    s = {}; // 6: traced faulty workload cell.
    s.name = "mix_traced";
    s.nodes = 3;
    s.workload = smallMix("traced", "sensor");
    s.faults = faults("brown", fault::FaultKind::Brownout, 1);
    s.trace.protocol = true;
    g.push_back(s);

    s = {}; // 7: gated, full-addressed two-lane MBus, drift + retry.
    s.name = "lanes";
    s.nodes = 5;
    s.dataLanes = 2;
    s.powerGated = true;
    s.fullAddressing = true;
    s.traffic = sweep::TrafficPattern::BroadcastMix;
    s.messages = 4;
    s.payloadBytes = 9;
    s.priorityRate = 0.5;
    s.faults = faults("drift", fault::FaultKind::ClockDrift, 1);
    s.retry.maxRetries = 1;
    g.push_back(s);

    s = {}; // 8: forced wedge: the flight recorder dumps.
    s.name = "wedge";
    s.messages = 8;
    s.payloadBytes = 16;
    s.timeLimit = 40 * sim::kMicrosecond;
    s.trace.flight = true;
    g.push_back(s);

    s = {}; // 9: the same mix on the standard I2C fabric.
    s.name = "mix_i2c";
    s.backend = BackendKind::I2cStd;
    s.workload = smallMix("mix", "sensor");
    g.push_back(s);
    return g;
}

struct Golden
{
    std::uint64_t hash;
    std::size_t bytes;
};

void
expectGolden(const char *what, const std::string &bytes, Golden want)
{
    EXPECT_EQ(bytes.size(), want.bytes) << what << " length moved";
    EXPECT_EQ(sim::fnv1a(bytes), want.hash)
        << what << " bytes moved: 0x" << std::hex << sim::fnv1a(bytes);
}

} // namespace

TEST(SchemaGolden, SpecStatsCsvAndJsonBytesArePinned)
{
    std::vector<sweep::ScenarioSpec> grid = goldenGrid();
    sweep::SweepConfig cfg;
    cfg.threads = 2;
    sweep::SweepResult r = sweep::SweepDriver(cfg).run(grid);
    ASSERT_EQ(r.size(), grid.size());

    std::string specs, stats;
    for (const sweep::CellResult &c : r.cells()) {
        specs += sweep::encodeSpec(c.spec) + "\n";
        stats += sweep::encodeStats(c.stats) + "\n";
    }
    std::ostringstream csv, json;
    r.writeCsv(csv);
    r.writeJson(json);

    // The grid really covers what the file comment promises.
    EXPECT_GT(r.cell(0).stats.vcdBytes, 0u);
    EXPECT_GT(r.cell(6).stats.traceJson.size(), 0u);
    EXPECT_FALSE(r.cell(6).stats.actorStats.empty());
    EXPECT_FALSE(r.cell(8).stats.flightDumps.empty());
    EXPECT_NE(specs.find("|-0|"), std::string::npos);
    EXPECT_NE(specs.find("0.10000000000000001"), std::string::npos);

    // Captured before the field-table codec and writers landed.
    expectGolden("encodeSpec", specs, {0x2270f17c8c2b077fULL, 2224});
    expectGolden("encodeStats", stats, {0x0ad24c5e10af048fULL, 53849});
    expectGolden("writeCsv", csv.str(), {0x19c5d748d1290481ULL, 8893});
    expectGolden("writeJson", json.str(),
                 {0x2a475af9af7f19dbULL, 12319});
}
