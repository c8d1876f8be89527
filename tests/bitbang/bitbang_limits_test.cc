/**
 * @file
 * Negative and stress tests for the bitbang engine: frequency
 * envelopes (a software member cannot keep up beyond its ISR budget)
 * and sustained mixed-ring traffic.
 */

#include <gtest/gtest.h>

#include "tests/bitbang/mixed_ring.hh"
#include "sim/simulator.hh"

using namespace mbus;
using namespace mbus::bitbang;

TEST(BitbangLimits, FasterCpuSupportsFasterBus)
{
    // A 32 MHz core quadruples the envelope; run at 60 kHz.
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    bb.cost.cpuHz = 32e6;
    auto ring = buildMixedRing(simulator, 60e3, bb);

    std::optional<bus::TxResult> result;
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, 0);
    msg.payload = {0x11, 0x22};
    ring->node(0).send(msg, [&](const bus::TxResult &r) { result = r; });
    simulator.runUntil([&] { return result.has_value(); },
                       sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
}

TEST(BitbangLimitsDeath, OverfastMixedRingIsRejected)
{
    // 200 kHz against an 8 MHz software member: the builder refuses
    // (the member's 65-cycle ISR cannot meet the ring budget).
    EXPECT_EXIT(
        {
            sim::Simulator simulator;
            firmware::FirmwareNode::Config bb;
            bb.shortPrefix = 3;
            buildMixedRing(simulator, 200e3, bb);
        },
        testing::ExitedWithCode(1), "too fast for the bitbang");
}

TEST(BitbangLimits, SustainedBidirectionalTraffic)
{
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    auto ring = buildMixedRing(simulator, 20e3, bb);
    auto &soft = ring->softMemberAs<firmware::FirmwareNode>();

    int sw_rx = 0, hw_rx = 0;
    soft.setReceiveCallback(
        [&](const bus::ReceivedMessage &) { ++sw_rx; });
    ring->node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++hw_rx; });

    const int kRounds = 5;
    int completions = 0;
    for (int i = 0; i < kRounds; ++i) {
        bus::Message down;
        down.dest = bus::Address::shortAddr(3, 0);
        down.payload = {static_cast<std::uint8_t>(i)};
        bool d = false;
        ring->node(0).send(down, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            ++completions;
            d = true;
        });
        simulator.runUntil([&] { return d; }, sim::kSecond);

        bus::Message up;
        up.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
        up.payload = {static_cast<std::uint8_t>(0x80 + i), 0xFF};
        bool u = false;
        soft.send(up, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            ++completions;
            u = true;
        });
        simulator.runUntil([&] { return u; }, 2 * sim::kSecond);
    }
    simulator.run(simulator.now() + 200 * sim::kMillisecond);

    EXPECT_EQ(completions, 2 * kRounds);
    EXPECT_EQ(sw_rx, kRounds);
    EXPECT_EQ(hw_rx, kRounds);
    // The ISR accounting never exceeded the modelled worst case.
    EXPECT_LE(soft.maxObservedPathCycles(),
              bb.cost.worstPathCycles());
}

TEST(BitbangLimits, CpuSerializationIsAccounted)
{
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    auto ring = buildMixedRing(simulator, 20e3, bb);
    auto &soft = ring->softMemberAs<firmware::FirmwareNode>();

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    msg.payload.assign(16, 0xA5);
    bool done = false;
    soft.send(msg, [&](const bus::TxResult &) { done = true; });
    simulator.runUntil([&] { return done; }, 2 * sim::kSecond);

    const auto &st = soft.stats();
    EXPECT_GT(st.isrInvocations, 100u); // Every edge cost an ISR.
    // CPU-seconds spent must equal cycles / f: sanity of accounting.
    double cpu_s = static_cast<double>(st.cyclesSpent) / bb.cost.cpuHz;
    EXPECT_GT(cpu_s, 0.0);
    EXPECT_LT(cpu_s, sim::toSeconds(simulator.now()));
}
