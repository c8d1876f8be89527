/**
 * @file
 * Section 6.6 tests: the MSP430 cost model and a bitbanged MBus
 * member interoperating with hardware nodes on one ring.
 */

#include <gtest/gtest.h>

#include "bitbang/bitbang_i2c.hh"
#include "bitbang/cost_model.hh"
#include "tests/bitbang/mixed_ring.hh"
#include "sim/simulator.hh"

using namespace mbus;
using namespace mbus::bitbang;

TEST(CostModel, WorstPathIs65CyclesAnd20Instructions)
{
    Msp430CostModel cost;
    EXPECT_EQ(cost.worstPathCycles(), 65);
    EXPECT_EQ(cost.worstPathInstructions(), 20);
}

TEST(CostModel, PaperMaxBusClockIsAbout120kHz)
{
    // "With an 8 MHz system clock speed, the MSP430 can support up
    // to a 120 kHz MBus clock" (8 MHz / 65 = 123 kHz).
    Msp430CostModel cost;
    EXPECT_NEAR(cost.maxBusClockHzPaper(), 123e3, 1e3);
    EXPECT_NEAR(cost.maxBusClockHzConservative(), 61.5e3, 1e3);
}

TEST(CostModel, ScalesWithCpuClock)
{
    Msp430CostModel slow;
    slow.cpuHz = 1e6;
    EXPECT_NEAR(slow.maxBusClockHzPaper(), 15.4e3, 0.2e3);
}

TEST(BitbangI2cRef, LongestPathIs21Instructions)
{
    BitbangI2c i2c;
    EXPECT_EQ(i2c.longestPath().instructions, 21);
    // Similar overhead to the MBus bitbang (the paper's point).
    Msp430CostModel cost;
    EXPECT_NEAR(static_cast<double>(i2c.longestPath().cycles),
                static_cast<double>(cost.worstPathCycles()), 15.0);
}

TEST(MixedRing, HardwareToBitbangDelivery)
{
    // A hardware node sends; the software member receives. 20 kHz is
    // comfortably inside the conservative envelope for an 8 MHz CPU.
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    auto ring = buildMixedRing(simulator, 20e3, bb);
    auto &soft = ring->softMemberAs<firmware::FirmwareNode>();

    std::vector<std::uint8_t> seen;
    soft.setReceiveCallback(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, 0);
    msg.payload = {0xCA, 0xFE};
    std::optional<bus::TxResult> result;
    ring->node(0).send(msg, [&](const bus::TxResult &r) { result = r; });

    simulator.runUntil([&] { return result.has_value(); },
                       sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    simulator.run(simulator.now() + 100 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
    EXPECT_EQ(soft.stats().messagesReceived, 1u);
}

TEST(MixedRing, BitbangToHardwareDelivery)
{
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    auto ring = buildMixedRing(simulator, 20e3, bb);
    auto &soft = ring->softMemberAs<firmware::FirmwareNode>();

    std::vector<std::uint8_t> seen;
    ring->node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    msg.payload = {0x12, 0x34, 0x56};
    std::optional<bus::TxResult> result;
    soft.send(msg, [&](const bus::TxResult &r) { result = r; });

    simulator.runUntil([&] { return result.has_value(); },
                       sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    simulator.run(simulator.now() + 100 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
}

TEST(MixedRing, SoftwareMemberForwardsThirdPartyTraffic)
{
    // hw0 -> hw1 passes THROUGH the software member's forwarding
    // path: interoperability with zero tuning (Sec 6.5).
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    auto ring = buildMixedRing(simulator, 20e3, bb);
    auto &soft = ring->softMemberAs<firmware::FirmwareNode>();

    std::vector<std::uint8_t> seen;
    ring->node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    msg.payload = {0x99};
    std::optional<bus::TxResult> result;
    ring->node(0).send(msg, [&](const bus::TxResult &r) { result = r; });

    simulator.runUntil([&] { return result.has_value(); },
                       sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    simulator.run(simulator.now() + 100 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
    EXPECT_GT(soft.stats().isrInvocations, 0u);
}

TEST(MixedRing, ObservedIsrPathWithinModelledWorstCase)
{
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    auto ring = buildMixedRing(simulator, 20e3, bb);
    auto &soft = ring->softMemberAs<firmware::FirmwareNode>();

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, 0);
    msg.payload = {1, 2, 3, 4};
    std::optional<bus::TxResult> result;
    ring->node(0).send(msg, [&](const bus::TxResult &r) { result = r; });
    simulator.runUntil([&] { return result.has_value(); },
                       sim::kSecond);

    Msp430CostModel cost;
    EXPECT_LE(soft.maxObservedPathCycles(),
              cost.worstPathCycles());
    EXPECT_GT(soft.stats().cyclesSpent, 0u);
}

TEST(MixedRing, MaxLengthConfigReachesTheMediator)
{
    // Sec 7 run-time configuration works on a mixed ring exactly as
    // on a hardware one: a max-length broadcast from a member
    // reaches the mediator host, which applies it.
    sim::Simulator simulator;
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    auto ring = buildMixedRing(simulator, 20e3, bb);
    ASSERT_NE(ring->mediator().maxMessageBytes(), 4096u);

    ring->broadcastMaxMessageLength(1, 4096);
    EXPECT_TRUE(ring->runUntilIdle(sim::kSecond));
    EXPECT_EQ(ring->mediator().maxMessageBytes(), 4096u);
}
