/**
 * @file
 * Randomized fault-survivability fuzz: >= 200 seeded scenarios across
 * all five fabrics, each with a random fault schedule, watchdog, and
 * retry policy. The acceptance properties:
 *
 *  - zero wedges: every run finishes inside its time limit, with the
 *    watchdog reclaiming any hung transmitter;
 *  - every planned transaction reaches exactly one terminal status
 *    (delivered / NAK / interrupted / abort / reset / failed), i.e.
 *    planned == acked + naked + broadcasts + interrupted + rxAborts
 *    + failed holds under arbitrary physical damage;
 *  - every arbitration win ends in exactly one terminal status on its
 *    trace span: a cell that reached idle exports no span closed as
 *    status -1 (re-arbitrated or never resolved);
 *  - recovery bookkeeping is internally consistent;
 *  - on the MBus-framed fabrics the watchdog's "clocking with no
 *    owner" rule fires somewhere across the seeds, so the fuzz keeps
 *    exercising the stall it exists for.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/random.hh"
#include "sweep/scenario.hh"
#include "trace/trace.hh"

using namespace mbus;

namespace {

constexpr int kScenariosPerFabric = 45; // 8 passes -> 360 total.

/** A random schedule of 1-3 fault entries inside [0, @p windowS). */
fault::FaultSpec
randomFaults(sim::Random &rng, double windowS)
{
    fault::FaultSpec fs;
    fs.name = "fuzz";
    fs.watchdogEpochs = 32;
    std::size_t entries = 1 + rng.below(3);
    for (std::size_t j = 0; j < entries; ++j) {
        fault::FaultEntry e;
        e.kind = static_cast<fault::FaultKind>(rng.below(6));
        e.count = 1 + static_cast<int>(rng.below(3));
        e.startS = 0.0;
        e.endS = windowS;
        e.durationS = 1e-4 + 1.4e-3 * rng.uniform();
        e.jitterFrac = 0.4;
        e.pulses = 1 + static_cast<int>(rng.below(4));
        e.driftFrac = 0.08;
        fs.entries.push_back(e);
    }
    return fs;
}

/** WatchdogRescue events in a Chrome export that name @p rule. */
int
rescuesByRule(const std::string &json, trace::StallRule rule)
{
    const std::string b =
        "\"b\": " + std::to_string(static_cast<int>(rule)) + ",";
    int n = 0;
    for (std::size_t at = json.find("\"watchdog_rescue\"");
         at != std::string::npos;
         at = json.find("\"watchdog_rescue\"", at + 1)) {
        std::size_t args = json.find("\"b\": ", at);
        n += args != std::string::npos &&
             json.compare(args, b.size(), b) == 0;
    }
    return n;
}

/** Fuzz one fabric; @return the no-owner rescues seen. */
int
fuzzFabric(backend::BackendKind kind, std::uint64_t masterSeed,
           double faultWindowS = 0.02)
{
    sim::Random rng(masterSeed);
    int faultEventsSeen = 0;
    int noOwnerRescues = 0;
    for (int i = 0; i < kScenariosPerFabric; ++i) {
        sweep::ScenarioSpec s;
        s.name = "fuzz" + std::to_string(i);
        s.backend = kind;
        s.nodes = static_cast<int>(rng.between(3, 6));
        s.payloadBytes = rng.below(9);
        s.messages = static_cast<int>(rng.between(2, 4));
        s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
        s.powerGated = rng.chance(0.3);
        s.interjectRate = rng.chance(0.3) ? 0.3 : 0.0;
        s.faults = randomFaults(rng, faultWindowS);
        s.retry.maxRetries = static_cast<int>(rng.below(4));
        s.retry.backoffEpochs = 8;
        // Observational only: spans and rescue causes, same physics.
        s.trace.protocol = true;
        std::uint64_t seed = rng.next();

        SCOPED_TRACE("scenario " + std::to_string(i) + " seed " +
                     std::to_string(seed));
        sweep::ScenarioStats st = sweep::runScenario(s, seed);

        // Zero wedges: the watchdog must reclaim every hang.
        EXPECT_FALSE(st.wedged) << "scenario wedged under faults";
        // Every planned transaction ended in exactly one terminal
        // status -- nothing lost, nothing double-counted.
        EXPECT_EQ(st.planned, st.acked + st.naked + st.broadcasts +
                                  st.interrupted + st.rxAborts +
                                  st.failed);
        EXPECT_EQ(st.planned, s.messages);
        // Recovery bookkeeping consistency.
        EXPECT_LE(st.recoveredTx + st.abandonedTx, st.planned);
        EXPECT_GE(st.txResets, 0);
        EXPECT_LE(st.txResets, st.failed);
        if (st.recoveredTx == 0) {
            EXPECT_EQ(st.recoveryP50S, 0.0);
        }
        // One terminal status per arbitration win.
        if (!st.wedged) {
            EXPECT_EQ(st.traceJson.find("\"status\": -1"),
                      std::string::npos)
                << "a transaction span never closed";
        }
        faultEventsSeen += st.faultEvents;
        noOwnerRescues +=
            rescuesByRule(st.traceJson, trace::StallRule::NoOwner);
    }
    // The fuzz actually exercised the fault engine.
    EXPECT_GT(faultEventsSeen, 0);
    return noOwnerRescues;
}

} // namespace

TEST(FaultFuzz, MbusSurvivesRandomFaultSchedules)
{
    fuzzFabric(backend::BackendKind::Mbus, 0x1001);
}

TEST(FaultFuzz, I2cStdSurvivesRandomFaultSchedules)
{
    fuzzFabric(backend::BackendKind::I2cStd, 0x1002);
}

TEST(FaultFuzz, I2cOracleSurvivesRandomFaultSchedules)
{
    fuzzFabric(backend::BackendKind::I2cOracle, 0x1003);
}

TEST(FaultFuzz, BitbangSurvivesRandomFaultSchedules)
{
    fuzzFabric(backend::BackendKind::Bitbang, 0x1004);
}

TEST(FaultFuzz, FirmwareSurvivesRandomFaultSchedules)
{
    fuzzFabric(backend::BackendKind::Firmware, 0x1005);
}

TEST(FaultFuzz, NoOwnerRuleFiresOnMbusFramedFabrics)
{
    // Faults packed into the first 1.5 ms land inside transactions
    // (the CI grid's window), where a glitch can leave the members
    // out of step with a clocking mediator. Every check above holds
    // there too, and the no-owner rule must be what reclaims some of
    // those buses on each MBus-framed fabric.
    EXPECT_GT(fuzzFabric(backend::BackendKind::Mbus, 0x2001, 1.5e-3), 0);
    EXPECT_GT(fuzzFabric(backend::BackendKind::Bitbang, 0x2004, 1.5e-3),
              0);
    EXPECT_GT(fuzzFabric(backend::BackendKind::Firmware, 0x2005, 1.5e-3),
              0);
}
