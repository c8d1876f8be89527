/**
 * @file
 * BusBackend over the simulated MBus ring -- all hardware, or mixed
 * with one bit-banged software member (Sec 6.6).
 *
 * A thin, behaviour-preserving veneer: construction builds the same
 * MBusSystem (same node configs, same finalize order, hence the same
 * interned net names and VCD signal order) the scenario layer built
 * before the backend seam existed, and every operation forwards to
 * the ring directly. The backend determinism tests pin stats and VCD
 * bytes against pre-refactor captures.
 *
 * Mixed rings (BackendKind::Bitbang, BackendKind::Firmware): nodes
 * 0..n-2 are hardware chips (node 0 hosts the mediator) and node n-1
 * is the four-GPIO software member, the ported libmbus firmware
 * (FirmwareNode). Bitbang runs it at default shim settings; Firmware
 * applies the params' ISR jitter and merged-edge knobs, and with
 * both off the two fabrics produce identical waveforms, deliveries
 * and energy. The member's ISR latency throttles the whole ring: the
 * bus clock is clamped to a conservative fraction of the mixed
 * ring's envelope, which is why these fabrics top out near the
 * paper's ~120 kHz software ceiling instead of megahertz. Its ISR
 * cycles are priced at the Sec 6.3.1 per-cycle CPU energy on top of
 * the shared segment taps -- the software-implementation tax the
 * paper quantifies.
 */

#ifndef MBUS_BACKEND_MBUS_BACKEND_HH
#define MBUS_BACKEND_MBUS_BACKEND_HH

#include <memory>
#include <vector>

#include "backend/backend.hh"
#include "mbus/system.hh"

namespace mbus {
namespace backend {

/** The MBus fabrics: hardware ring or mixed ring. */
class MbusBackend final : public BusBackend
{
  public:
    /** @p kind picks the ring: Mbus (all hardware), Bitbang or
     *  Firmware (mixed, with the matching software member). */
    MbusBackend(sim::Simulator &sim, const BusParams &params,
                BackendKind kind = BackendKind::Mbus);

    BackendKind kind() const override { return kind_; }
    std::size_t nodeCount() const override
    {
        return system_->ringSize();
    }
    double busClockHz() const override
    {
        return system_->config().busClockHz;
    }
    double maxSafeClockHz() const override
    {
        return system_->maxSafeClockHz();
    }

    void send(std::size_t node, bus::Message msg,
              bus::SendCallback cb) override;
    void interject(std::size_t node) override;
    void sleep(std::size_t node) override;
    void wake(std::size_t node) override;
    std::size_t pendingTx(std::size_t node) const override;
    void retime(std::size_t node, double clockHz,
                std::function<void()> done) override;
    bus::Address unicastAddress(std::size_t node, bool fullAddressing,
                                std::uint8_t fuId) const override;

    void injectWireForce(std::size_t node, int lane,
                         bool level) override;
    void injectWireRelease(std::size_t node, int lane) override;
    void injectGlitch(std::size_t node, int lane,
                      int pulses) override;
    void injectEdgeDrop(std::size_t node, int lane,
                        int pulses) override;
    void setClockDriftFactor(double factor) override;
    void brownout(std::size_t node) override;
    void brownoutRecover(std::size_t node) override;
    void armWatchdog(std::uint32_t epochs) override;
    std::uint64_t busResets() const override { return busResets_; }
    std::uint64_t runawayKills() const override;

    void setDeliveryHandler(DeliveryHandler h) override;

    bool runUntilIdle(sim::SimTime timeout) override;
    void attachTrace(sim::TraceRecorder &recorder) override;

    double switchingJ() const override;
    double leakageJ() const override;
    double nodeEnergyJ(std::size_t node) const override;
    double poweredSeconds(std::size_t node) const override;
    std::uint64_t nodeEdges(std::size_t node) const override;
    std::uint64_t clockCycles() const override;
    std::uint64_t dispatchCalls() const override;

    /** The wrapped system, for MBus-specific benches and tests. */
    bus::MBusSystem &system() { return *system_; }

  private:
    /** True when the ring carries a software member. */
    bool
    mixed() const
    {
        return system_->ringSize() > system_->nodeCount();
    }
    /** True for the mixed ring's software member (the last node). */
    bool
    isSoft(std::size_t node) const
    {
        return mixed() && node + 1 == nodeCount();
    }
    /** The clock headroom retiming (and a mixed ring's build) keeps
     *  below the safe limit. */
    double clockHeadroom() const;
    double softCpuEnergyJ() const;

    /** The per-node ring segment a fault on @p lane hits: 0 = CLK,
     *  1 = DATA, l + 1 = extra lane l. Lanes the ring does not have
     *  fold onto DATA. */
    int faultSlot(int lane) const;
    wire::Net &faultSegment(std::size_t node, int slot);
    int &forceDepth(std::size_t node, int slot);
    void scheduleWatchdogPoll();
    void watchdogPoll();
    /** The mediator clocks, but no member owns the transaction. */
    bool clockingWithNoOwner() const;

    BackendKind kind_;
    std::unique_ptr<bus::MBusSystem> system_;

    // --- Fault-injection state (idle unless a FaultSpec armed it) --
    std::vector<int> forceDepth_; ///< Nested stuck-at holds, one per
                                  ///< (node, fault slot).
    std::uint32_t watchdogEpochs_ = 0;
    std::uint64_t busResets_ = 0;
    std::uint64_t wdLastProgress_ = 0;
    bool wdLastBusy_ = false;
    bool wdLastAsleep_ = false;
    bool wdLastNoOwner_ = false;
};

} // namespace backend
} // namespace mbus

#endif // MBUS_BACKEND_MBUS_BACKEND_HH
