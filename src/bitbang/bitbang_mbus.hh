/**
 * @file
 * A bitbanged MBus member implemented on four GPIOs (Sec 6.6).
 *
 * "Our implementation is general and requires only four GPIO pins
 * (two must have edge-triggered interrupt support)."
 *
 * The engine mirrors the hardware bus controller's state machine but
 * every reaction to an edge is an interrupt service routine with a
 * modelled MSP430 cost: the output write lands responseLatency()
 * after the edge, and concurrent edges serialize on the single CPU.
 * Forwarding is software too, so this node's effective hop delay is
 * its ISR response time -- which is exactly why the paper's numbers
 * top out near 120 kHz instead of megahertz.
 */

#ifndef MBUS_BITBANG_BITBANG_MBUS_HH
#define MBUS_BITBANG_BITBANG_MBUS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "bitbang/cost_model.hh"
#include "mbus/message.hh"
#include "mbus/soft_member.hh"
#include "sim/simulator.hh"
#include "wire/net.hh"

namespace mbus {
namespace bus {
class MBusSystem;
}
namespace bitbang {

/** Statistics about the software engine. */
struct BitbangStats
{
    std::uint64_t isrInvocations = 0;
    std::uint64_t cyclesSpent = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
    std::uint64_t serializationStalls = 0; ///< ISRs that waited for CPU.
};

/**
 * A software MBus member node on four GPIO pins.
 *
 * The node is the edge listener for both of its input pins ("two
 * must have edge-triggered interrupt support"); it branches on net
 * identity, so fanout stays allocation-free.
 */
class BitbangMbus final : public bus::SoftMember,
                          private wire::EdgeListener
{
  public:
    struct Config
    {
        std::uint8_t shortPrefix = 0; ///< Static short prefix.
        Msp430CostModel cost;

        /**
         * Receive buffer capacity in bytes, mirroring the firmware's
         * statically allocated recv buffer. A message that would
         * overflow it is cut short with an interjection and delivered
         * flagged MBUS_RECV_OVERFLOW (LocalError::RecvOverflow).
         */
        std::size_t rxCapacityBytes = 256;

        /**
         * Maximum edges per coalesced CLK ISR-retirement train
         * (0 disables coalescing; every retirement is a discrete
         * kernel event). The CLK ISR body costs the same cycle count
         * in every phase, so rhythmic CLK arrivals retire on the same
         * beat shifted by the constant ISR latency -- a chain the
         * engine rides on one speculative kernel train, confirming
         * each retirement at its arrival (identical tie-break
         * position to a discrete schedule) and splitting back to
         * discrete on any stall or off-rhythm arrival.
         */
        std::uint32_t isrTrainMaxEdges = 32;
    };

    BitbangMbus(sim::Simulator &sim, Config cfg, wire::Net &clkIn,
                wire::Net &clkOut, wire::Net &dataIn, wire::Net &dataOut);
    ~BitbangMbus();

    /** Queue a message for transmission (mirrors BusController). */
    void send(bus::Message msg, bus::SendCallback cb = nullptr) override;

    /** Register the delivery callback. */
    void
    setReceiveCallback(bus::ReceiveCallback cb) override
    {
        rxCb_ = std::move(cb);
    }

    const BitbangStats &stats() const { return stats_; }
    std::uint64_t cyclesSpent() const override
    {
        return stats_.cyclesSpent;
    }

    /** Worst ISR path actually exercised, in cycles. */
    int maxObservedPathCycles() const { return maxPathCycles_; }

    /** Messages queued but not yet terminally resolved. */
    std::size_t pendingTx() const override { return txQueue_.size(); }

    /** True when the engine sees an idle bus and has nothing queued. */
    bool
    idle() const override
    {
        return phase_ == Phase::Idle && txQueue_.empty();
    }

    bool transmitting() const override { return role_ == Role::Tx; }

  private:
    /** Edge-interrupt entry for both input pins (wire::EdgeListener). */
    void onNetEdge(wire::Net &net, bool value) override;

    enum class Phase : std::uint8_t {
        Idle,
        Active,
        IntjWait,
        Control,
    };
    enum class Role : std::uint8_t { None, Tx, Rx, Fwd };

    /** Account @p totalCycles of ISR work (CPU serialization, stats,
     *  worst-path tracking). @return the absolute retirement time --
     *  when the ISR's output write lands. */
    sim::SimTime isrRetireTime(int totalCycles);

    /** Drop the unconfirmed tail of the CLK retirement train (the
     *  committed in-flight head still fires) and reset detection. */
    void splitIsrTrain();

    void onClkEdge(bool level);
    void onDataEdge(bool level);
    void clkIsrBody(bool level);
    void dataIsrBody(bool level);
    void handleRising(bool dataAtIsr);
    void handleFalling();
    void beginIdle();
    void tryRequest();

    /** Stop forwarding CLK and wait for the mediator to start the
     *  control sequence. @p eom true for a clean end-of-message,
     *  false when cutting the message short (error interjection). */
    void requestInterjection(bool eom);
    /** Resolve the transmitted message from the control bits. */
    void finishTx(bool bit1);

    /** Pooled retirement sinks: ISR completions ride the kernel's
     *  allocation-free edge path (and, for CLK, its train path)
     *  instead of one heap-allocated closure per ISR. */
    struct ClkRetireSink final : sim::EdgeSink
    {
        BitbangMbus *self = nullptr;
        void onEdge(bool v) override { self->clkIsrBody(v); }
    };
    struct DataRetireSink final : sim::EdgeSink
    {
        BitbangMbus *self = nullptr;
        void onEdge(bool v) override { self->dataIsrBody(v); }
    };

    sim::Simulator &sim_;
    Config cfg_;
    wire::Net &clkIn_;
    wire::Net &clkOut_;
    wire::Net &dataIn_;
    wire::Net &dataOut_;

    ClkRetireSink clkRetire_;
    DataRetireSink dataRetire_;

    // CPU serialization.
    sim::SimTime cpuBusyUntil_ = 0;

    // CLK ISR-retirement train coalescing (mirrors wire::Net's
    // confirm-or-split rhythm detector, keyed on ISR arrivals).
    sim::EventHandle isrTrain_;
    bool isrTrainActive_ = false;
    std::uint32_t isrTrainLeft_ = 0;
    bool isrExpectValue_ = false;
    sim::SimTime isrExpectAt_ = 0;
    sim::SimTime isrPeriod_ = 0;
    sim::SimTime lastClkArrival_ = 0;
    sim::SimTime lastClkGap_ = 0;
    bool haveClkArrival_ = false;
    bool haveClkGap_ = false;

    // Software mirror of the wire controllers.
    bool fwdClk_ = true;
    bool fwdData_ = true;

    // Protocol state (mirrors BusController, simplified to one lane).
    Phase phase_ = Phase::Idle;
    Role role_ = Role::None;
    bool requested_ = false;
    bool wonArb_ = false;
    bool wonPriority_ = false;    ///< Claimed the priority cycle.
    bool backedOff_ = false;      ///< Ceded main arb to a priority req.
    bool priorityDriven_ = false; ///< Drove high in the priority cycle.
    std::uint32_t rising_ = 0;
    std::uint32_t falling_ = 0;
    bool lastClkIn_ = true; ///< Last CLK level seen (bus idles high).

    std::vector<std::uint8_t> txBits_;
    std::uint32_t txTotal_ = 0;
    std::uint32_t txBitsDriven_ = 0; ///< Wire bits actually driven.
    bus::LocalError txError_ = bus::LocalError::None;

    std::uint64_t addrAccum_ = 0;
    int addrBitsSeen_ = 0;
    int addrBitsExpected_ = 8;
    bool addressResolved_ = false;
    bus::Address rxAddr_;
    std::vector<std::uint8_t> rxBytes_;
    std::uint32_t rxBitBuffer_ = 0;
    int rxBitsPending_ = 0;

    int intjCount_ = 0;
    bool iAmInterjector_ = false;
    bool interjectorEom_ = false; ///< This interjection ends cleanly.
    bool rxOverflowed_ = false;   ///< RX cut by buffer exhaustion.
    std::uint32_t ctlRising_ = 0;
    std::uint32_t ctlFalling_ = 0;
    bool ctlBit0_ = false;

    struct PendingTx
    {
        bus::Message msg;
        bus::SendCallback cb;
        std::size_t attempts = 0; ///< Bus requests issued for this msg.
    };
    std::deque<PendingTx> txQueue_;

    bus::ReceiveCallback rxCb_;
    BitbangStats stats_;
    int maxPathCycles_ = 0;
};

/**
 * Make a BitbangMbus built from @p cfg the software member of
 * @p sys, named @p name. Its CLK ISR-retirement trains follow the
 * ring's edge-train switch and train length. Reach it after
 * finalize() via sys.softMemberAs<BitbangMbus>().
 */
void addBitbangMember(bus::MBusSystem &sys, std::string name,
                      BitbangMbus::Config cfg);

} // namespace bitbang
} // namespace mbus

#endif // MBUS_BITBANG_BITBANG_MBUS_HH
