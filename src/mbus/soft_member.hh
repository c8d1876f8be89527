/**
 * @file
 * The software ring member seen from the ring (Sec 6.6).
 *
 * A bit-banged member is "just another ring member": it forwards,
 * receives and transmits on four GPIOs, and MBusSystem wires it into
 * the last ring position exactly as it binds a chip. This is the
 * small surface the ring and the backend need from it, so the ring
 * never depends on the member's implementation (the ported libmbus
 * firmware, firmware::FirmwareNode).
 */

#ifndef MBUS_BUS_SOFT_MEMBER_HH
#define MBUS_BUS_SOFT_MEMBER_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "mbus/config.hh"
#include "mbus/message.hh"
#include "wire/net.hh"

namespace mbus {
namespace bus {

/** A software MBus member on four GPIO pins. */
class SoftMember
{
  public:
    virtual ~SoftMember() = default;

    /** Queue a message for transmission (mirrors BusController). */
    virtual void send(Message msg, SendCallback cb = nullptr) = 0;

    /** Messages queued but not yet terminally resolved. */
    virtual std::size_t pendingTx() const = 0;

    /** True when the member sees an idle bus and has nothing queued
     *  (part of the ring's idle predicate). */
    virtual bool idle() const = 0;

    /** True while the member is the transmitter of the transaction
     *  in flight (it won arbitration and has not resolved it). */
    virtual bool transmitting() const = 0;

    /** Register the delivery callback. */
    virtual void setReceiveCallback(ReceiveCallback cb) = 0;

    /** CPU cycles spent in ISRs so far. */
    virtual std::uint64_t cyclesSpent() const = 0;
};

/** The ring segments a software member samples and drives. */
struct SoftMemberPins
{
    wire::Net &clkIn;
    wire::Net &clkOut;
    wire::Net &dataIn;
    wire::Net &dataOut;
};

/** Builds the software member when the ring binds it (after the
 *  hardware chips, before the mediator), against the ring's final
 *  configuration. */
using SoftMemberFactory = std::function<std::unique_ptr<SoftMember>(
    const SystemConfig &ring, const SoftMemberPins &pins)>;

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_SOFT_MEMBER_HH
