/**
 * @file
 * Bitbanged MBus on four GPIOs (Sec 6.6): an off-the-shelf
 * microcontroller with no MBus peripheral joins a hardware ring,
 * forwards traffic, receives, and transmits -- at a bus clock
 * bounded by its ISR worst path.
 */

#include <cstdio>
#include <string>

#include "firmware/firmware_node.hh"
#include "mbus/system.hh"

using namespace mbus;
using namespace mbus::bitbang;

int
main()
{
    Msp430CostModel cost; // 8 MHz MSP430-class core.
    std::printf("software member: worst ISR path %d instructions / "
                "%d cycles -> max bus clock ~%.0f kHz (paper: "
                "\"up to 120 kHz\")\n",
                cost.worstPathInstructions(), cost.worstPathCycles(),
                cost.maxBusClockHzPaper() / 1e3);

    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.busClockHz = 20e3; // Well inside the software envelope.
    bus::MBusSystem ring(simulator, cfg);
    // Two hardware chips (hw0 hosts the mediator) ...
    for (std::uint8_t i = 1; i <= 2; ++i) {
        bus::NodeConfig nc;
        nc.name = "hw" + std::to_string(i - 1);
        nc.fullPrefix = 0x11111u * i;
        nc.staticShortPrefix = i;
        nc.powerGated = false;
        ring.addNode(nc);
    }
    // ... and the software member, last on the ring. The system
    // budgets its ISR latency into the ring round trip.
    firmware::FirmwareNode::Config bb;
    bb.shortPrefix = 3;
    bb.cost = cost;
    firmware::addFirmwareMember(ring, "bb", bb);
    ring.finalize();
    auto &soft = ring.softMemberAs<firmware::FirmwareNode>();

    soft.setReceiveCallback(
        [](const bus::ReceivedMessage &rx) {
            std::printf("[bitbang] received %zu bytes via GPIO "
                        "ISRs\n", rx.payload.size());
        });
    ring.node(1).layer().setMailboxHandler(
        [](const bus::ReceivedMessage &rx) {
            std::printf("[hw1] received %zu bytes from the software "
                        "member\n", rx.payload.size());
        });

    // Hardware -> software.
    bus::Message down;
    down.dest = bus::Address::shortAddr(3, 0);
    down.payload = {0x01, 0x02, 0x03, 0x04};
    bool d1 = false;
    ring.node(0).send(down, [&](const bus::TxResult &r) {
        std::printf("[hw0] -> bitbang: %s\n",
                    bus::txStatusName(r.status));
        d1 = true;
    });
    simulator.runUntil([&] { return d1; }, sim::kSecond);

    // Software -> hardware (the full TX path runs in ISRs).
    bus::Message up;
    up.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    up.payload = {0xAA, 0xBB};
    bool d2 = false;
    soft.send(up, [&](const bus::TxResult &r) {
        std::printf("[bitbang] -> hw1: %s\n",
                    bus::txStatusName(r.status));
        d2 = true;
    });
    simulator.runUntil([&] { return d2; }, 2 * sim::kSecond);
    simulator.run(simulator.now() + 100 * sim::kMillisecond);

    auto &st = soft.stats();
    std::printf("\nCPU accounting: %llu ISRs, %llu cycles total "
                "(%.1f ms at 8 MHz), max observed path %d cycles\n",
                static_cast<unsigned long long>(st.isrInvocations),
                static_cast<unsigned long long>(st.cyclesSpent),
                st.cyclesSpent / cost.cpuHz * 1e3,
                soft.maxObservedPathCycles());
    std::printf("zero per-chip tuning was needed -- the "
                "interoperability claim of Sec 6.5/6.6.\n");
    return 0;
}
