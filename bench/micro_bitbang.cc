/**
 * @file
 * Regenerates the Section 6.6 bitbang analysis: MSP430 worst-case
 * path accounting, the resulting maximum bus clock, the comparison
 * with Wikipedia's bitbang I2C, and a live mixed hardware/software
 * ring demonstration.
 *
 * Exits non-zero unless both demo transfers are ACKed and each side
 * counts exactly one delivery.
 */

#include <cstdio>
#include <string>

#include "bench/bench_util.hh"
#include "bitbang/bitbang_i2c.hh"
#include "firmware/firmware_node.hh"
#include "mbus/system.hh"

using namespace mbus;
using namespace mbus::bitbang;

int
main()
{
    benchutil::banner("Sec 6.6: Bitbanging MBus",
                      "Pannuto et al., ISCA'15, Sec 6.6");

    Msp430CostModel cost;
    benchutil::section("Worst-case edge-to-output path (MSP430, "
                       "msp430-gcc)");
    std::printf("instructions: %d (paper: 20)\n",
                cost.worstPathInstructions());
    std::printf("cycles incl. interrupt entry/exit: %d (paper: "
                "65)\n", cost.worstPathCycles());
    std::printf("max MBus clock at 8 MHz, paper arithmetic "
                "(cpu/worst): %.0f kHz (paper: \"up to 120 kHz\")\n",
                cost.maxBusClockHzPaper() / 1e3);
    std::printf("conservative (response within half period, "
                "hardware peer latching): %.1f kHz\n",
                cost.maxBusClockHzConservative() / 1e3);

    benchutil::section("Bitbang I2C reference ([2], compiled per the "
                       "paper's footnote)");
    BitbangI2c i2c;
    std::printf("longest path: %d instructions (paper: 21) / %d "
                "cycles -- \"similar overhead\"\n",
                i2c.longestPath().instructions,
                i2c.longestPath().cycles);
    std::printf("max SCL from straight-line path: %.0f kHz\n",
                i2c.maxSclHz() / 1e3);

    benchutil::section("Mixed ring demo: 2 hardware nodes + 1 "
                       "software member at 20 kHz");
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.busClockHz = 20e3;
    bus::MBusSystem ring(simulator, cfg);
    for (std::uint8_t i = 1; i <= 2; ++i) {
        bus::NodeConfig nc;
        nc.name = "hw" + std::to_string(i - 1);
        nc.fullPrefix = 0x11111u * i;
        nc.staticShortPrefix = i;
        nc.powerGated = false;
        ring.addNode(nc);
    }
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    firmware::addFirmwareMember(ring, "bb", bb);
    ring.finalize();
    auto &soft = ring.softMemberAs<firmware::FirmwareNode>();

    int sw_rx = 0, hw_rx = 0;
    int acked = 0;
    soft.setReceiveCallback(
        [&](const bus::ReceivedMessage &) { ++sw_rx; });
    ring.node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++hw_rx; });

    // hw0 -> software member.
    bus::Message to_sw;
    to_sw.dest = bus::Address::shortAddr(3, 0);
    to_sw.payload = {0xBE, 0xEF};
    bool d1 = false;
    ring.node(0).send(to_sw, [&](const bus::TxResult &r) {
        std::printf("hw0 -> bitbang: %s\n",
                    bus::txStatusName(r.status));
        acked += r.status == bus::TxStatus::Ack;
        d1 = true;
    });
    simulator.runUntil([&] { return d1; }, sim::kSecond);

    // Software member -> hw1 (full TX path in software).
    bus::Message to_hw;
    to_hw.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    to_hw.payload = {0x42, 0x24, 0x99};
    bool d2 = false;
    soft.send(to_hw, [&](const bus::TxResult &r) {
        std::printf("bitbang -> hw1: %s\n",
                    bus::txStatusName(r.status));
        acked += r.status == bus::TxStatus::Ack;
        d2 = true;
    });
    simulator.runUntil([&] { return d2; }, 2 * sim::kSecond);
    simulator.run(simulator.now() + 100 * sim::kMillisecond);

    std::printf("deliveries: software member %d, hardware member "
                "%d\n", sw_rx, hw_rx);
    std::printf("software ISR stats: %llu invocations, %llu cycles, "
                "max path %d cycles (model bound %d)\n",
                static_cast<unsigned long long>(
                    soft.stats().isrInvocations),
                static_cast<unsigned long long>(
                    soft.stats().cyclesSpent),
                soft.maxObservedPathCycles(),
                cost.worstPathCycles());
    std::printf("\nShape: software members interoperate with "
                "hardware MBus with zero tuning, at clocks bounded "
                "by cpu_clock / worst_isr_path -- the Sec 6.6 "
                "claim.\n");
    if (acked != 2 || sw_rx != 1 || hw_rx != 1) {
        std::fprintf(stderr,
                     "FAIL: expected 2 ACKs and one delivery per "
                     "side, got %d ACKs, %d/%d deliveries\n",
                     acked, sw_rx, hw_rx);
        return 1;
    }
    return 0;
}
