/**
 * @file
 * Unit tests for the fleet's building blocks: the canonical
 * spec/stats codec, the content-addressed cell cache, the per-shard
 * checkpoint journal, and the runRange/fromCells merge contract the
 * multi-process fleet is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "fleet/cache.hh"
#include "fleet/journal.hh"
#include "fleet/protocol.hh"
#include "sim/hash.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

/** A spec exercising every codec subtree. */
sweep::ScenarioSpec
richSpec()
{
    sweep::ScenarioSpec s;
    s.name = "rich|cell %100\tweird";
    s.nodes = 7;
    s.busClockHz = 1.23456789e6;
    s.hopDelayNs = 11.5;
    s.dataLanes = 2;
    s.powerGated = true;
    s.fullAddressing = true;
    s.traffic = sweep::TrafficPattern::BroadcastMix;
    s.messages = 17;
    s.payloadBytes = 33;
    s.priorityRate = 0.125;
    s.interjectRate = 0.0625;
    s.captureVcd = true;
    s.edgeTrains = false;
    s.backend = backend::BackendKind::Firmware;

    workload::ActorSpec a;
    a.name = "sensor|odd";
    a.kind = workload::ActorKind::BurstImager;
    a.node = 2;
    a.dest = 1;
    a.periodS = 0.1;
    a.jitterFrac = 0.3;
    a.payloadBytes = 16;
    a.burstBytes = 256;
    a.deadlineS = 0.05;
    a.priority = true;
    a.startS = 0.7;
    a.dutyCycled = false;
    a.retry.maxRetries = 3;
    a.retry.backoffEpochs = 4;
    s.workload.name = "mix%1";
    s.workload.durationS = 2.5;
    s.workload.actors.push_back(a);

    workload::ScheduleSpec sched;
    sched.kind = workload::ScheduleKind::InterjectionStorm;
    sched.node = 3;
    sched.atS = 0.5;
    sched.durationS = 0.25;
    sched.rateHz = 40.0;
    s.workload.schedules.push_back(sched);

    fault::FaultEntry fe;
    fe.kind = fault::FaultKind::GlitchBurst;
    fe.node = 4;
    fe.lane = 1;
    fe.startS = 0.01;
    fe.endS = 0.9;
    fe.count = 3;
    fe.durationS = 2e-4;
    fe.jitterFrac = 0.2;
    fe.driftFrac = 0.07;
    fe.pulses = 5;
    fe.stream = 9;
    s.faults.name = "storm";
    s.faults.watchdog = true;
    s.faults.watchdogEpochs = 48;
    s.faults.entries.push_back(fe);

    s.retry.maxRetries = 2;
    s.retry.backoffEpochs = 8;
    s.retry.multiplier = 1.5;

    s.trace.protocol = true;
    s.trace.flight = true;
    s.trace.flightDepth = 128;
    return s;
}

/** A tiny, fast grid for the merge-contract tests. */
std::vector<sweep::ScenarioSpec>
tinyGrid(std::size_t cells)
{
    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        sweep::ScenarioSpec s;
        s.name = "tiny" + std::to_string(i);
        s.nodes = 3 + static_cast<int>(i % 3);
        s.messages = 2;
        s.payloadBytes = 1 + i % 4;
        s.traffic = static_cast<sweep::TrafficPattern>(i % 4);
        grid.push_back(std::move(s));
    }
    return grid;
}

/** @p bytes with its '|'-separated token @p index replaced. */
std::string
withToken(const std::string &bytes, std::size_t index,
          const std::string &token)
{
    std::size_t start = 0;
    for (std::size_t i = 0; i < index; ++i)
        start = bytes.find('|', start) + 1;
    std::size_t end = bytes.find('|', start);
    if (end == std::string::npos)
        end = bytes.size();
    return bytes.substr(0, start) + token + bytes.substr(end);
}

std::string
csvOf(const sweep::SweepResult &r)
{
    std::ostringstream os;
    r.writeCsv(os);
    return os.str();
}

} // namespace

TEST(FleetCodec, EscapeTokenRoundTrips)
{
    std::string raw;
    for (int c = 0; c < 256; ++c)
        raw += static_cast<char>(c);
    raw += "pipe|percent%newline\n done";
    std::string tok = sweep::escapeToken(raw);
    EXPECT_EQ(tok.find('|'), std::string::npos);
    EXPECT_EQ(tok.find('\n'), std::string::npos);
    EXPECT_EQ(tok.find(' '), std::string::npos);
    std::string back;
    ASSERT_TRUE(sweep::unescapeToken(tok, back));
    EXPECT_EQ(back, raw);
    ASSERT_TRUE(sweep::unescapeToken(sweep::escapeToken(""), back));
    EXPECT_EQ(back, "");
    // Only escapeToken()'s own output decodes.
    for (const char *bad : {"a b", "%2", "%2c", "%41", "a|b", "%ZZ"})
        EXPECT_FALSE(sweep::unescapeToken(bad, back)) << bad;
}

TEST(FleetCodec, SpecRoundTripsEveryField)
{
    sweep::ScenarioSpec spec = richSpec();
    std::string bytes = sweep::encodeSpec(spec);
    sweep::ScenarioSpec back;
    ASSERT_TRUE(sweep::decodeSpec(bytes, back));
    // Canonical form: identical content iff identical bytes.
    EXPECT_EQ(sweep::encodeSpec(back), bytes);
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.workload.actors.size(), 1u);
    EXPECT_EQ(back.workload.actors[0].name, "sensor|odd");
    EXPECT_EQ(back.workload.actors[0].retry.maxRetries, 3);
    EXPECT_EQ(back.faults.entries.size(), 1u);
    EXPECT_EQ(back.faults.entries[0].pulses, 5);
    EXPECT_EQ(back.trace.flightDepth, 128u);
    EXPECT_DOUBLE_EQ(back.busClockHz, spec.busClockHz);
}

TEST(FleetCodec, SpecEncodingIsCanonical)
{
    // Two default specs encode identically; any field change changes
    // the bytes (spot-checked on a few axes the cache keys off).
    sweep::ScenarioSpec a, b;
    EXPECT_EQ(sweep::encodeSpec(a), sweep::encodeSpec(b));
    b.payloadBytes = 5;
    EXPECT_NE(sweep::encodeSpec(a), sweep::encodeSpec(b));
    b = a;
    b.trace.flightDepth = 99;
    EXPECT_NE(sweep::encodeSpec(a), sweep::encodeSpec(b));
}

TEST(FleetCodec, SpecRejectsMalformedInput)
{
    sweep::ScenarioSpec out;
    EXPECT_FALSE(sweep::decodeSpec("", out));
    EXPECT_FALSE(sweep::decodeSpec("nonsense", out));
    EXPECT_FALSE(sweep::decodeSpec("spec999|x", out));
    std::string good = sweep::encodeSpec(sweep::ScenarioSpec());
    EXPECT_FALSE(
        sweep::decodeSpec(good.substr(0, good.size() / 2), out));
    EXPECT_FALSE(sweep::decodeSpec(good + "|trailing", out));
    EXPECT_TRUE(sweep::decodeSpec(good, out));

    // Out-of-range enums and integers that overflow their field are
    // rejected, never wrapped: a wrapped backend would reach
    // makeBackend's fatal error inside a fleet worker.
    const std::size_t kNodes = 2, kGated = 8, kTraffic = 10,
                      kPayload = 12, kBackend = 20;
    const std::size_t kFlightDepth =
        static_cast<std::size_t>(std::count(good.begin(), good.end(), '|'));
    EXPECT_TRUE(sweep::decodeSpec(withToken(good, kBackend, "4"), out));
    EXPECT_EQ(out.backend, backend::BackendKind::Firmware);
    for (const char *bad : {"5", "99"})
        EXPECT_FALSE(sweep::decodeSpec(withToken(good, kBackend, bad), out))
            << "backend " << bad;
    for (const char *bad : {"4", "7"})
        EXPECT_FALSE(sweep::decodeSpec(withToken(good, kTraffic, bad), out))
            << "traffic " << bad;
    for (const char *bad : {"99999999999999999999999", "4294967299",
                            "2147483648", "-2147483649"})
        EXPECT_FALSE(sweep::decodeSpec(withToken(good, kNodes, bad), out))
            << "nodes " << bad;
    EXPECT_FALSE(sweep::decodeSpec(
        withToken(good, kPayload, "18446744073709551616"), out));
    EXPECT_FALSE(
        sweep::decodeSpec(withToken(good, kFlightDepth, "4294967296"), out));
    EXPECT_FALSE(sweep::decodeSpec(withToken(good, kGated, "2"), out));

    sweep::ScenarioSpec faulty;
    fault::FaultEntry fe;
    faulty.faults.entries.push_back(fe);
    std::string faultBytes = sweep::encodeSpec(faulty);
    std::string kindToken = "|1|64|1|0|"; // watchdog, epochs, count, kind
    std::size_t at = faultBytes.find(kindToken);
    ASSERT_NE(at, std::string::npos);
    EXPECT_FALSE(sweep::decodeSpec(
        faultBytes.replace(at, kindToken.size(), "|1|64|1|6|"), out));
}

TEST(FleetCodec, StatsRoundTripExactlyIncludingDoubles)
{
    sweep::ScenarioStats st;
    st.planned = 9;
    st.acked = 7;
    st.naked = 1;
    st.failed = 1;
    st.bytesDelivered = 1234567890123ULL;
    st.wedged = true;
    st.txPerSecond = 0.1; // Not exactly representable: must survive.
    st.goodputBps = 1.0 / 3.0;
    st.eventsPerBit = 1e-300;
    st.switchingJ = 6.02214076e23;
    st.avgTxLatencyS = -0.0;
    st.txLatenciesS = {1e-9, 0.25, 0.3333333333333333};
    st.eventsExecuted = ~0ULL;
    st.simTime = 123456789;
    st.perNodeEdges = {1, 2, 3, 4};
    workload::ActorStats as;
    as.name = "imager|2";
    as.kind = workload::ActorKind::ControlPlane;
    as.acked = 5;
    as.sampleLatenciesS = {0.5, 0.75};
    st.actorStats.push_back(as);
    st.vcd = "$date\n today |%| $end\n";
    st.vcdBytes = st.vcd.size();
    st.vcdHash = sim::fnv1a(st.vcd);
    st.traceJson = "{\"evs\": []}";
    st.traceHash = sim::fnv1a(st.traceJson);
    st.flightDumps = {"dump one\nline2", "dump|two"};
    st.metrics.push_back({"events_executed", "42"});
    st.metrics.push_back({"weird name", "0.1"});

    std::string bytes = sweep::encodeStats(st);
    sweep::ScenarioStats back;
    ASSERT_TRUE(sweep::decodeStats(bytes, back));
    EXPECT_EQ(sweep::encodeStats(back), bytes);
    EXPECT_EQ(back.txPerSecond, 0.1);
    EXPECT_EQ(back.goodputBps, 1.0 / 3.0);
    EXPECT_EQ(back.eventsPerBit, 1e-300);
    EXPECT_TRUE(std::signbit(back.avgTxLatencyS));
    EXPECT_EQ(back.txLatenciesS, st.txLatenciesS);
    EXPECT_EQ(back.vcd, st.vcd);
    EXPECT_EQ(back.flightDumps, st.flightDumps);
    ASSERT_EQ(back.metrics.size(), 2u);
    EXPECT_EQ(back.metrics[1].name, "weird name");
    ASSERT_EQ(back.actorStats.size(), 1u);
    EXPECT_EQ(back.actorStats[0].sampleLatenciesS,
              st.actorStats[0].sampleLatenciesS);

    sweep::ScenarioStats junk;
    EXPECT_FALSE(sweep::decodeStats("stat1|broken", junk));
    EXPECT_FALSE(sweep::decodeStats("", junk));

    // An actor kind past the last enumerator is malformed.
    std::string kindToken = "|imager%7C2|3|";
    std::size_t at = bytes.find(kindToken);
    ASSERT_NE(at, std::string::npos);
    EXPECT_FALSE(sweep::decodeStats(
        bytes.replace(at, kindToken.size(), "|imager%7C2|4|"), junk));
}

TEST(FleetCodec, DecodersRejectOrRoundTripDamagedInput)
{
    // A real traced, faulty workload cell's stats truncated at every
    // token boundary, and a small spec with every byte replaced by
    // every other value: decoding either fails or reproduces the
    // input byte for byte. It never crashes (the sanitizer job runs
    // this).
    sweep::ScenarioSpec s;
    s.name = "damaged";
    s.workload.durationS = 0.03;
    workload::ActorSpec sensor;
    sensor.periodS = 0.01;
    s.workload.actors.push_back(sensor);
    fault::FaultEntry fe;
    fe.kind = fault::FaultKind::GlitchBurst;
    fe.endS = 1e-3;
    s.faults.entries.push_back(fe);
    s.trace.protocol = true;
    s.trace.flight = true;
    std::string stats = sweep::encodeStats(sweep::runScenario(s, 7));
    sweep::ScenarioStats st;
    ASSERT_TRUE(sweep::decodeStats(stats, st));
    ASSERT_FALSE(st.actorStats.empty());
    ASSERT_FALSE(st.traceJson.empty());
    auto statsOk = [](const std::string &bytes) {
        sweep::ScenarioStats back;
        return !sweep::decodeStats(bytes, back) ||
               sweep::encodeStats(back) == bytes;
    };
    for (std::size_t i = 0; i < stats.size(); ++i) {
        if (stats[i] != '|')
            continue;
        ASSERT_TRUE(statsOk(stats.substr(0, i))) << "cut at " << i;
        ASSERT_TRUE(statsOk(stats.substr(0, i + 1))) << "cut at " << i;
    }

    sweep::ScenarioSpec small;
    small.name = "n,1";
    small.retry.maxRetries = 1;
    const std::string spec = sweep::encodeSpec(small);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        for (int b = 0; b < 256; ++b) {
            if (static_cast<char>(b) == spec[i])
                continue;
            std::string damaged = spec;
            damaged[i] = static_cast<char>(b);
            sweep::ScenarioSpec back;
            if (!sweep::decodeSpec(damaged, back))
                continue;
            ++accepted;
            ASSERT_EQ(sweep::encodeSpec(back), damaged)
                << "byte " << i << " := " << b;
        }
    }
    EXPECT_GT(accepted, 0u); // Some flips are legitimate edits.
}

TEST(FleetProtocol, MsgRoundTripAndRejection)
{
    fleet::Msg m;
    m.type = "done";
    m.fields["index"] = "42";
    m.fields["stats"] = "stat1|a%7C\"quoted\"\\back";
    std::string line = fleet::encodeMsg(m);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    fleet::Msg back;
    ASSERT_TRUE(fleet::parseMsg(line, back));
    EXPECT_EQ(back.type, "done");
    EXPECT_EQ(back.u64("index"), 42u);
    EXPECT_EQ(back.str("stats"), m.fields["stats"]);

    fleet::Msg junk;
    EXPECT_FALSE(fleet::parseMsg("", junk));
    EXPECT_FALSE(fleet::parseMsg("{\"index\":1}", junk)); // No type.
    EXPECT_FALSE(fleet::parseMsg("{\"type\":\"x\"", junk));
    EXPECT_FALSE(fleet::parseMsg("not json", junk));
}

TEST(FleetCache, KeySaltHitMissAndCorruption)
{
    const std::string dir = "fleet_test_cache";
    ::mkdir(dir.c_str(), 0777);

    std::string specBytes =
        sweep::encodeSpec(sweep::ScenarioSpec());
    EXPECT_NE(fleet::cellKey(specBytes, 1), fleet::cellKey(specBytes, 2));
    EXPECT_NE(fleet::cellKey(specBytes, 1, 10),
              fleet::cellKey(specBytes, 1, 11));

    fleet::CellCache cache(dir);
    sweep::ScenarioStats st;
    st.acked = 3;
    std::string payload = sweep::encodeStats(st);
    std::uint64_t key = cache.key(specBytes, 7);

    std::string got;
    EXPECT_FALSE(cache.lookup(key, got));
    EXPECT_TRUE(cache.store(key, payload));
    ASSERT_TRUE(cache.lookup(key, got));
    EXPECT_EQ(got, payload);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    // A different salt resolves to a different file: cold again.
    fleet::CellCache bumped(dir, fleet::kHarnessVersionSalt + 1);
    EXPECT_FALSE(bumped.lookup(bumped.key(specBytes, 7), got));

    // Corruption is a miss, never a wrong answer.
    {
        std::ofstream f(cache.pathFor(key),
                        std::ios::binary | std::ios::trunc);
        f << "stat1|torn";
    }
    EXPECT_FALSE(cache.lookup(key, got));

    // Disabled cache: everything misses, stores drop.
    fleet::CellCache off{std::string()};
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.store(key, payload));
    EXPECT_FALSE(off.lookup(key, got));
}

TEST(FleetJournal, AppendReloadAndDedupe)
{
    const std::string path = "fleet_test_journal.journal";
    std::remove(path.c_str());
    {
        fleet::Journal j(path);
        EXPECT_EQ(j.size(), 0u);
        EXPECT_TRUE(j.append(3, 0xAAULL, "stat1|a"));
        EXPECT_TRUE(j.append(1, 0xBBULL, "stat1|b"));
        EXPECT_TRUE(j.append(3, 0xCCULL, "stat1|c")); // Overwrite.
        EXPECT_EQ(j.size(), 2u);
    }
    // The file never holds an index twice.
    {
        std::ifstream in(path);
        std::string line;
        std::set<std::string> firstFields;
        std::size_t cellLines = 0;
        while (std::getline(in, line)) {
            if (line.rfind("cell|", 0) != 0)
                continue;
            ++cellLines;
            firstFields.insert(line.substr(0, line.find('|', 5)));
        }
        EXPECT_EQ(cellLines, 2u);
        EXPECT_EQ(firstFields.size(), 2u);
    }
    fleet::Journal back(path);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.entries().at(3).key, 0xCCULL);
    EXPECT_EQ(back.entries().at(3).statsBytes, "stat1|c");
    EXPECT_EQ(back.entries().at(1).statsBytes, "stat1|b");
    std::remove(path.c_str());

    // Unbound journal still dedupes in memory.
    fleet::Journal mem;
    EXPECT_TRUE(mem.append(0, 1, "x"));
    EXPECT_TRUE(mem.append(0, 2, "y"));
    EXPECT_EQ(mem.size(), 1u);
}

TEST(FleetMerge, RunRangeConcatenationMatchesRun)
{
    std::vector<sweep::ScenarioSpec> grid = tinyGrid(7);
    sweep::SweepConfig cfg;
    cfg.threads = 1;
    sweep::SweepDriver driver(cfg);

    sweep::SweepResult whole = driver.run(grid);

    // Three uneven disjoint ranges, concatenated out of order.
    std::vector<sweep::CellResult> cells;
    for (auto range : {std::pair<std::size_t, std::size_t>{5, 2},
                       {0, 3},
                       {3, 2}}) {
        sweep::SweepResult part =
            driver.runRange(grid, range.first, range.second);
        ASSERT_EQ(part.size(), range.second);
        for (const sweep::CellResult &c : part.cells())
            cells.push_back(c);
    }
    sweep::SweepResult merged =
        sweep::SweepResult::fromCells(cfg, std::move(cells));

    EXPECT_EQ(csvOf(merged), csvOf(whole));
    EXPECT_EQ(merged.fingerprint(), whole.fingerprint());

    // Global indexing: cell 5 replayed solo matches the sweep's.
    sweep::SweepResult solo5 = driver.runRange(grid, 5, 1);
    EXPECT_EQ(solo5.cell(0).seed, whole.cell(5).seed);
    EXPECT_EQ(sweep::encodeStats(solo5.cell(0).stats),
              sweep::encodeStats(whole.cell(5).stats));

    // Range clamping.
    EXPECT_EQ(driver.runRange(grid, 5, 100).size(), 2u);
    EXPECT_EQ(driver.runRange(grid, 100, 3).size(), 0u);
}

TEST(FleetMerge, StatsCodecRoundTripsRealSimulation)
{
    // Real simulated stats (traced, faulted) survive the codec
    // byte-exactly -- the property the whole fleet merge rides on.
    sweep::ScenarioSpec s;
    s.name = "real";
    s.nodes = 4;
    s.messages = 3;
    s.captureVcd = true;
    s.trace.protocol = true;
    fault::FaultEntry fe;
    fe.kind = fault::FaultKind::GlitchBurst;
    fe.endS = 1e-3;
    s.faults.entries.push_back(fe);
    s.retry.maxRetries = 1;

    sweep::ScenarioStats st = sweep::runScenario(s, 0x5eedULL);
    std::string bytes = sweep::encodeStats(st);
    sweep::ScenarioStats back;
    ASSERT_TRUE(sweep::decodeStats(bytes, back));
    EXPECT_EQ(sweep::encodeStats(back), bytes);
    EXPECT_EQ(back.vcd, st.vcd);
    EXPECT_EQ(back.traceJson, st.traceJson);
    EXPECT_EQ(back.eventsExecuted, st.eventsExecuted);
}
