/**
 * @file
 * The Sec 6.6 interoperability ring the bitbang tests share: hw0
 * (hardware, hosts the mediator) -> hw1 (hardware) -> a bit-banged
 * software member -> back to hw0, built as an ordinary MBusSystem.
 */

#ifndef MBUS_TESTS_BITBANG_MIXED_RING_HH
#define MBUS_TESTS_BITBANG_MIXED_RING_HH

#include <memory>
#include <string>

#include "firmware/firmware_node.hh"
#include "mbus/system.hh"

namespace mbus {
namespace bitbang {

/** Two always-on chips (short prefixes 1, 2) plus the software
 *  member built from @p bb, at @p busHz. */
inline std::unique_ptr<bus::MBusSystem>
buildMixedRing(sim::Simulator &sim, double busHz,
               const firmware::FirmwareNode::Config &bb)
{
    bus::SystemConfig cfg;
    cfg.busClockHz = busHz;
    auto ring = std::make_unique<bus::MBusSystem>(sim, cfg);
    for (std::uint8_t i = 1; i <= 2; ++i) {
        bus::NodeConfig nc;
        nc.name = "hw" + std::to_string(i - 1);
        nc.fullPrefix = 0x11111u * i;
        nc.staticShortPrefix = i;
        nc.powerGated = false;
        ring->addNode(nc);
    }
    firmware::addFirmwareMember(*ring, "bb", bb);
    ring->finalize();
    return ring;
}

} // namespace bitbang
} // namespace mbus

#endif // MBUS_TESTS_BITBANG_MIXED_RING_HH
