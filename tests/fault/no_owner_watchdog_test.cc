/**
 * @file
 * The "clocking with no owner" watchdog rule on the cells that
 * motivated it: six MBus cells of the 2000-cell CI faulty grid in
 * which a glitch desynchronizes the members from the mediator mid-
 * transaction. Without the rule the mediator clocked each phantom
 * message until the Sec 7 runaway limit, 8192 cycles (about 20.5 ms)
 * later, while glitch pulses orbited the forwarding ring as millions
 * of kernel events. With it, the Sec 4.9 rescue reclaims the bus
 * within two watchdog polls.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sweep/sweep.hh"

using namespace mbus;

TEST(NoOwnerWatchdog, RunawayGridCellsRecoverWithinTwoMilliseconds)
{
    const std::vector<sweep::ScenarioSpec> grid =
        benchutil::faultyFiveFabricGrid(2000);
    sweep::SweepDriver driver;
    for (std::size_t i : {15, 525, 810, 1145, 1585, 1715}) {
        SCOPED_TRACE("cell " + std::to_string(i));
        sweep::ScenarioSpec spec = grid[i];
        ASSERT_EQ(spec.backend, backend::BackendKind::Mbus);
        // Tracing is observational: the cell runs exactly as in the
        // grid, and the export shows how every span closed.
        spec.trace.protocol = true;
        sweep::ScenarioStats st = driver.runCell(spec, i).stats;

        EXPECT_FALSE(st.wedged);
        EXPECT_LT(st.simTime, 2 * sim::kMillisecond);
        EXPECT_EQ(st.runawayKills, 0u);
        EXPECT_GT(st.busResets, 0u);
        EXPECT_EQ(st.planned, st.acked + st.naked + st.broadcasts +
                                  st.interrupted + st.rxAborts +
                                  st.failed);
        EXPECT_EQ(st.traceJson.find("\"status\": -1"), std::string::npos)
            << "a transaction span never closed";
    }
}
