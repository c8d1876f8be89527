/**
 * @file
 * The software MBus member (Sec 6.6): "Our implementation is general
 * and requires only four GPIO pins (two must have edge-triggered
 * interrupt support)."
 *
 * Runs the ported libmbus FSM (firmware::LibMbus) as a simulated
 * node: a GPIO shim maps the firmware's `set_gpio_val` /
 * `get_gpio_val` register accesses onto wire::Gpio pins, every
 * CLKIN/DIN edge becomes an ISR invocation priced through the MSP430
 * cost model (fixed cycles per pin plus optional seeded jitter,
 * serialized on one CPU), and `MBus_run()` executes in virtual time
 * off the event kernel. Forwarding is software too, so this node's
 * effective hop delay is its ISR response time -- which is why the
 * paper's numbers top out near 120 kHz instead of megahertz.
 *
 * Shim contract:
 *
 *  - Edge replay: each input edge is queued as its own ISR with the
 *    level the pin had at that edge; the handler's reads of *its own*
 *    pin return that latched level. Reads of the *other* pin are live
 *    (the instruction executes at retirement time). With
 *    `mergeMissedEdges` set, an edge arriving while that pin's ISR is
 *    still pending is absorbed instead (the real MCU's interrupt flag
 *    is already set), and all reads are live: that is the regime
 *    where the firmware's MBUS_CLOCK_SYNCH_ERROR path becomes
 *    reachable.
 *  - Edge capture listens at net level, not through
 *    Gpio::attachInterrupt, whose trampoline would add one kernel
 *    event and shift same-timestamp event ordering; the Gpio objects
 *    carry all pin reads and writes.
 *  - The ISR retirement write lands at
 *    max(now, cpuBusyUntil) + cycles(handler): the CLK ISR costs
 *    Msp430CostModel::worstPathCycles() and the DATA ISR
 *    dataIsrCycles(), so CPU serialization stalls, energy
 *    (cyclesSpent x 20 pJ), and response latency follow the model.
 *  - CLK retirements coalesce: the CLK ISR costs the same in every
 *    phase, so rhythmic CLK arrivals retire on the same beat shifted
 *    by a constant latency -- a chain the node rides on one
 *    speculative kernel train, confirming each retirement at its
 *    arrival (the tie-break position a discrete schedule would get)
 *    and splitting back to discrete on any stall or off-rhythm
 *    arrival. The train length follows the ring's edge-train switch;
 *    jitter or merged edges make the latency vary, so either turns
 *    trains off. Only kernel event counts see the difference.
 *  - `MBus_send` while the FSM is busy is undefined in the firmware
 *    (it stomps the in-flight buffer); this harness queues messages
 *    and only hands the front one to the FSM from IDLE, re-issuing
 *    after a 4x-response-latency idle guard.
 *  - Trace records mirror a hardware member's: `arb_win` / `arb_loss`
 *    at the reserved-cycle edge, `addr` on an address match, `data`
 *    on the first received byte, `interject_req` when the FSM parks
 *    CLK to end or cut a message, read off the FSM state around each
 *    CLK handler.
 */

#ifndef MBUS_FIRMWARE_FIRMWARE_NODE_HH
#define MBUS_FIRMWARE_FIRMWARE_NODE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bitbang/cost_model.hh"
#include "firmware/libmbus_port.hh"
#include "mbus/message.hh"
#include "mbus/soft_member.hh"
#include "sim/simulator.hh"
#include "wire/gpio.hh"
#include "wire/net.hh"

namespace mbus {
namespace bus {
class MBusSystem;
}
namespace firmware {

/** ISR, message and firmware-event counters. */
struct FirmwareStats
{
    std::uint64_t isrInvocations = 0;
    std::uint64_t cyclesSpent = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
    std::uint64_t serializationStalls = 0; ///< ISRs that waited for CPU.

    std::uint64_t runWakeups = 0;     ///< MBus_run() dispatches.
    std::uint64_t mergedEdges = 0;    ///< Edges absorbed while pending.
    std::uint64_t requestsIssued = 0; ///< MBus_send requests driven.
    std::uint64_t localErrors = 0;    ///< Non-NO_ERROR completions.
};

/** A software MBus member running the real (ported) libmbus FSM. */
class FirmwareNode final : public bus::SoftMember,
                           private wire::EdgeListener
{
  public:
    struct Config
    {
        std::uint8_t shortPrefix = 0; ///< Static short prefix.
        std::uint32_t fullPrefix = 0; ///< 20-bit full prefix (0=none).
        bitbang::Msp430CostModel cost;
        std::size_t rxCapacityBytes = 256;

        /** Max extra ISR-entry cycles drawn per invocation (seeded
         *  xorshift; 0 keeps every ISR at its fixed cost). */
        std::uint32_t isrJitterCycles = 0;
        std::uint64_t jitterSeed = 0x6669726d77617265ULL;

        /** Absorb edges that arrive while that pin's ISR is pending
         *  (instead of replaying every edge). Makes the firmware's
         *  clock-synch error reachable; used by the ceiling sweep. */
        bool mergeMissedEdges = false;
    };

    /** @p clkTrainMaxEdges caps a coalesced CLK retirement train
     *  (0: every retirement is a discrete kernel event). */
    FirmwareNode(sim::Simulator &sim, Config cfg, wire::Net &clkIn,
                 wire::Net &clkOut, wire::Net &dataIn,
                 wire::Net &dataOut, std::uint32_t clkTrainMaxEdges);
    ~FirmwareNode();

    /** Queue a message (never stomps an in-flight MBus_send). */
    void send(bus::Message msg, bus::SendCallback cb = nullptr) override;

    void
    setReceiveCallback(bus::ReceiveCallback cb) override
    {
        rxCb_ = std::move(cb);
    }

    const FirmwareStats &stats() const { return stats_; }
    std::uint64_t cyclesSpent() const override
    {
        return stats_.cyclesSpent;
    }

    /** Worst ISR path actually exercised, in cycles. */
    int maxObservedPathCycles() const { return maxPathCycles_; }

    /** Messages queued but not yet terminally resolved. */
    std::size_t pendingTx() const override { return txQueue_.size(); }

    /** True when the FSM is IDLE and nothing is queued. */
    bool
    idle() const override
    {
        return fsm_->state() == MBUS_STATE_IDLE && txQueue_.empty() &&
               !fsm_->eventsPending();
    }

    bool transmitting() const override { return fsm_->txActive(); }

    /** The ported FSM, for tests and introspection. */
    const LibMbus &fsm() const { return *fsm_; }

  private:
    enum class Pin : std::uint8_t { Clk, Data };

    void onNetEdge(wire::Net &net, bool value) override;
    void onEdge(Pin pin, bool level);
    /** Ride or start a CLK retirement train for the ISR retiring at
     *  @p done. @return true when a train carries this retirement. */
    bool coalesceClk(bool level, sim::SimTime done);
    /** Drop the unconfirmed tail of the CLK retirement train (the
     *  committed in-flight head still fires) and reset detection. */
    void splitClkTrain();
    void runIsr(Pin pin, bool level);
    void afterIsr();
    /** FSM state read just before a CLK handler runs. */
    struct ClkSnapshot
    {
        MBus_state_t state;
        MBus_logical_t logical;
        bool txActive;
        std::size_t rxBytes;
    };
    void traceClkIsr(trace::Tracer &t, const ClkSnapshot &before);
    void drainRun();
    void pumpSend();

    std::uint8_t readGpio(int gpio);
    void writeGpio(int gpio, std::uint8_t val);
    void onSendDone(std::size_t bytesSent, MBus_error_t err,
                    bool acked);
    void onRecv(std::uint32_t addr, int addrBits,
                const std::uint8_t *buf, std::size_t len,
                MBus_error_t err, bool eom);
    std::uint32_t jitterDraw();

    /** Pooled retirement sinks: ISR completions ride the kernel's
     *  allocation-free edge path (and, for CLK, its train path). */
    struct ClkRetireSink final : sim::EdgeSink
    {
        FirmwareNode *self = nullptr;
        void onEdge(bool v) override { self->runIsr(Pin::Clk, v); }
    };
    struct DataRetireSink final : sim::EdgeSink
    {
        FirmwareNode *self = nullptr;
        void onEdge(bool v) override { self->runIsr(Pin::Data, v); }
    };

    sim::Simulator &sim_;
    Config cfg_;
    wire::Net &clkInNet_;
    wire::Net &dataInNet_;
    wire::Gpio clkIn_;
    wire::Gpio clkOut_;
    wire::Gpio dataIn_;
    wire::Gpio dataOut_;

    ClkRetireSink clkRetire_;
    DataRetireSink dataRetire_;

    std::unique_ptr<LibMbus> fsm_;

    // CPU serialization (one core runs both handlers).
    sim::SimTime cpuBusyUntil_ = 0;
    std::uint32_t clkIsrPending_ = 0;  ///< Scheduled, not yet retired.
    std::uint32_t dataIsrPending_ = 0;

    // CLK retirement-train coalescing (mirrors wire::Net's
    // confirm-or-split rhythm detector, keyed on ISR arrivals).
    std::uint32_t clkTrainMaxEdges_ = 0; ///< 0: trains off.
    sim::EventHandle clkTrain_;
    bool clkTrainActive_ = false;
    std::uint32_t clkTrainLeft_ = 0;
    bool clkExpectValue_ = false;
    sim::SimTime clkExpectAt_ = 0;
    sim::SimTime clkPeriod_ = 0;
    sim::SimTime lastClkArrival_ = 0;
    sim::SimTime lastClkGap_ = 0;
    bool haveClkArrival_ = false;
    bool haveClkGap_ = false;

    // Latched-level replay view while a handler runs.
    bool inClkIsr_ = false;
    bool inDataIsr_ = false;
    bool latchedClk_ = true;
    bool latchedData_ = true;

    struct PendingTx
    {
        bus::Message msg;
        bus::SendCallback cb;
        std::vector<std::uint8_t> wire; ///< Address byte(s) + payload.
        std::size_t attempts = 0;
    };
    std::deque<PendingTx> txQueue_;
    bool runScheduled_ = false;
    bool retryScheduled_ = false;

    bus::ReceiveCallback rxCb_;
    FirmwareStats stats_;
    int maxPathCycles_ = 0;
    std::uint64_t jitterState_ = 0;
};

/**
 * Make a FirmwareNode built from @p cfg the software member of
 * @p sys, named @p name. Its CLK retirement trains follow the ring's
 * edge-train switch and train length. Reach it after finalize() via
 * sys.softMemberAs<FirmwareNode>().
 */
void addFirmwareMember(bus::MBusSystem &sys, std::string name,
                       FirmwareNode::Config cfg);

} // namespace firmware
} // namespace mbus

#endif // MBUS_FIRMWARE_FIRMWARE_NODE_HH
