#include "backend/mbus_backend.hh"

#include <algorithm>
#include <optional>
#include <string>

#include "firmware/firmware_node.hh"
#include "mbus/layer_controller.hh"
#include "power/constants.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace mbus {
namespace backend {

MbusBackend::MbusBackend(sim::Simulator &sim, const BusParams &params,
                         BackendKind kind)
    : kind_(kind)
{
    const bool mixedRing =
        kind == BackendKind::Bitbang || kind == BackendKind::Firmware;
    if (!mixedRing && kind != BackendKind::Mbus)
        mbus_fatal("MbusBackend cannot build a ",
                   backendKindName(kind), " fabric");
    if (mixedRing && (params.nodes < 3 || params.nodes > 14))
        mbus_fatal("bitbang backend needs 3..14 nodes, got ",
                   params.nodes);

    bus::SystemConfig cfg;
    cfg.busClockHz = params.busClockHz;
    cfg.hopDelay =
        static_cast<sim::SimTime>(params.hopDelayNs * 1000.0 + 0.5);
    cfg.dataLanes = mixedRing ? 1 : params.dataLanes;
    cfg.wireCapF = params.wireCapF;
    cfg.edgeTrains = params.edgeTrains;
    cfg.chunkedDispatch = params.chunkedDispatch;

    system_ = std::make_unique<bus::MBusSystem>(sim, cfg);
    const int chips = mixedRing ? params.nodes - 1 : params.nodes;
    for (int i = 0; i < chips; ++i) {
        bus::NodeConfig nc;
        nc.name = "n" + std::to_string(i);
        nc.fullPrefix = 0x500u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        // Node 0 hosts the mediator and stays on; members follow the
        // params so gated cells exercise the bus-driven wakeup path.
        nc.powerGated = i != 0 && params.powerGated;
        nc.broadcastChannels |= 1u << bus::kChannelUserBase;
        system_->addNode(nc);
    }
    if (mixedRing) {
        std::string name = "n" + std::to_string(chips);
        auto prefix = static_cast<std::uint8_t>(params.nodes);
        // Bitbang is the member at default shim settings; Firmware
        // applies the shim's jitter and merged-edge knobs.
        firmware::FirmwareNode::Config fw;
        fw.shortPrefix = prefix;
        fw.rxCapacityBytes = params.softRxCapacity;
        if (kind == BackendKind::Firmware) {
            fw.isrJitterCycles = params.fwIsrJitterCycles;
            fw.mergeMissedEdges = params.fwMergeMissedEdges;
        }
        firmware::addFirmwareMember(*system_, name, fw);
        system_->config().busClockHz =
            std::min(params.busClockHz,
                     clockHeadroom() * system_->maxSafeClockHz());
    }
    system_->finalize();
    // The ceiling probe deliberately overclocks the software member
    // past its ISR envelope; everything else stays clamped safe.
    if (mixedRing && params.allowUnsafeClock)
        system_->config().busClockHz = params.busClockHz;
}

double
MbusBackend::clockHeadroom() const
{
    // A mixed ring leaves room for back-to-back CLK/DATA ISRs
    // serializing on the member's one CPU.
    return mixed() ? 0.8 : 0.999;
}

void
MbusBackend::send(std::size_t node, bus::Message msg,
                  bus::SendCallback cb)
{
    if (isSoft(node))
        system_->softMember()->send(std::move(msg), std::move(cb));
    else
        system_->node(node).send(std::move(msg), std::move(cb));
}

// The software engines cannot raise a third-party interjection, and
// the member's MCU polls its GPIOs and never gates: interject, sleep
// and wake are hardware-only.

void
MbusBackend::interject(std::size_t node)
{
    if (!isSoft(node))
        system_->node(node).interject();
}

void
MbusBackend::sleep(std::size_t node)
{
    if (!isSoft(node))
        system_->node(node).sleep();
}

void
MbusBackend::wake(std::size_t node)
{
    if (!isSoft(node))
        system_->node(node).wake();
}

std::size_t
MbusBackend::pendingTx(std::size_t node) const
{
    if (isSoft(node))
        return system_->softMember()->pendingTx();
    return system_->node(node).busController().pendingTx();
}

void
MbusBackend::retime(std::size_t node, double clockHz,
                    std::function<void()> done)
{
    double target =
        std::min(clockHz, clockHeadroom() * system_->maxSafeClockHz());
    send(node, makeRetimeMessage(static_cast<std::uint32_t>(target)),
         [done](const bus::TxResult &) {
             if (done)
                 done();
         });
}

bus::Address
MbusBackend::unicastAddress(std::size_t node, bool fullAddressing,
                            std::uint8_t fuId) const
{
    // The software member decodes short addresses only.
    if (fullAddressing && !isSoft(node))
        return system_->node(node).fullAddress(fuId);
    return bus::Address::shortAddr(
        static_cast<std::uint8_t>(node + 1), fuId);
}

void
MbusBackend::setDeliveryHandler(DeliveryHandler h)
{
    for (std::size_t i = 0; i < system_->nodeCount(); ++i) {
        bus::LayerController &layer = system_->node(i).layer();
        if (!h) {
            layer.setMailboxHandler(nullptr);
            layer.setBroadcastHandler(nullptr);
            continue;
        }
        layer.setMailboxHandler(
            [h, i](const bus::ReceivedMessage &rx) { h(i, rx); });
        layer.setBroadcastHandler(
            [h, i](std::uint8_t channel,
                   const bus::ReceivedMessage &rx) {
                // Enumeration/config broadcasts (channels 0/1) are
                // system traffic, not application deliveries.
                if (channel >= bus::kChannelUserBase)
                    h(i, rx);
            });
    }
    bus::SoftMember *soft = system_->softMember();
    if (!soft)
        return;
    bus::ReceiveCallback softCb;
    if (h) {
        std::size_t i = nodeCount() - 1;
        softCb = [h, i](const bus::ReceivedMessage &rx) {
            // The member sees every broadcast; filter system
            // traffic as the chips' broadcast handlers do.
            if (rx.dest.isBroadcast() &&
                rx.dest.channel() < bus::kChannelUserBase)
                return;
            h(i, rx);
        };
    }
    soft->setReceiveCallback(std::move(softCb));
}

bool
MbusBackend::runUntilIdle(sim::SimTime timeout)
{
    return system_->runUntilIdle(timeout);
}

void
MbusBackend::attachTrace(sim::TraceRecorder &recorder)
{
    system_->attachTrace(recorder);
}

double
MbusBackend::softCpuEnergyJ() const
{
    return static_cast<double>(system_->softMember()->cyclesSpent()) *
           power::kProcessorEnergyPerCycleJ;
}

double
MbusBackend::switchingJ() const
{
    double j = system_->ledger().total();
    if (mixed())
        j += softCpuEnergyJ();
    return j;
}

double
MbusBackend::leakageJ() const
{
    return system_->idleLeakageJ();
}

double
MbusBackend::nodeEnergyJ(std::size_t node) const
{
    double j = system_->ledger().nodeTotal(node);
    if (isSoft(node))
        j += softCpuEnergyJ();
    return j;
}

double
MbusBackend::poweredSeconds(std::size_t node) const
{
    sim::Simulator &sim = system_->simulator();
    if (isSoft(node))
        return sim::toSeconds(sim.now()); // Always-on MCU.
    return sim::toSeconds(
        system_->node(node).layerDomain().poweredTime());
}

std::uint64_t
MbusBackend::nodeEdges(std::size_t node) const
{
    std::uint64_t edges = system_->clkSegment(node).transitions() +
                          system_->dataSegment(node).transitions();
    for (int l = 1; l < system_->config().dataLanes; ++l)
        edges += system_->laneSegment(l, node).transitions();
    return edges;
}

std::uint64_t
MbusBackend::clockCycles() const
{
    return system_->mediator().stats().clockCycles;
}

std::uint64_t
MbusBackend::runawayKills() const
{
    return system_->mediator().stats().watchdogKills;
}

std::uint64_t
MbusBackend::dispatchCalls() const
{
    return system_->dispatchCalls();
}

// --- Fault injection -------------------------------------------------

int
MbusBackend::faultSlot(int lane) const
{
    if (lane <= 0)
        return 0;
    if (lane >= 2 && lane - 1 < system_->config().dataLanes)
        return lane;
    return 1;
}

wire::Net &
MbusBackend::faultSegment(std::size_t node, int slot)
{
    if (slot == 0)
        return system_->clkSegment(node);
    if (slot == 1)
        return system_->dataSegment(node);
    return system_->laneSegment(slot - 1, node);
}

int &
MbusBackend::forceDepth(std::size_t node, int slot)
{
    const std::size_t slots =
        static_cast<std::size_t>(system_->config().dataLanes) + 1;
    if (forceDepth_.empty())
        forceDepth_.assign(nodeCount() * slots, 0);
    return forceDepth_[node * slots + static_cast<std::size_t>(slot)];
}

void
MbusBackend::injectWireForce(std::size_t node, int lane, bool level)
{
    if (node >= nodeCount())
        return;
    int slot = faultSlot(lane);
    ++forceDepth(node, slot);
    faultSegment(node, slot).force(level); // Last hold wins overlap.
}

void
MbusBackend::injectWireRelease(std::size_t node, int lane)
{
    if (node >= nodeCount())
        return;
    int slot = faultSlot(lane);
    int &depth = forceDepth(node, slot);
    if (depth == 0)
        return;
    if (--depth == 0)
        faultSegment(node, slot).release();
}

void
MbusBackend::injectGlitch(std::size_t node, int lane, int pulses)
{
    if (node >= nodeCount() || pulses <= 0)
        return;
    // Sub-hop-delay runts: force the opposite value for half a hop
    // delay, then snap back -- unless a stuck-at is (or becomes)
    // active on the segment, which masks the glitch.
    sim::SimTime width = system_->config().hopDelay / 2;
    if (width == 0)
        width = 1;
    int slot = faultSlot(lane);
    sim::Simulator &sim = system_->simulator();
    for (int i = 0; i < pulses; ++i) {
        sim.schedule(2 * width * static_cast<sim::SimTime>(i),
                     [this, node, slot] {
                         if (forceDepth(node, slot) > 0)
                             return;
                         wire::Net &seg = faultSegment(node, slot);
                         seg.force(!seg.value());
                     });
        sim.schedule(2 * width * static_cast<sim::SimTime>(i) + width,
                     [this, node, slot] {
                         if (forceDepth(node, slot) > 0)
                             return;
                         faultSegment(node, slot).release();
                     });
    }
}

void
MbusBackend::injectEdgeDrop(std::size_t node, int lane, int pulses)
{
    if (node >= nodeCount() || pulses <= 0)
        return;
    faultSegment(node, faultSlot(lane))
        .dropEdges(static_cast<std::uint32_t>(pulses));
}

void
MbusBackend::setClockDriftFactor(double factor)
{
    system_->config().clockDriftFactor = factor > 0 ? factor : 1.0;
}

void
MbusBackend::brownout(std::size_t node)
{
    // Node 0 hosts the mediator: cutting it is cutting the bus, not
    // a member failure, so it is out of scope for the fault model --
    // as is the software member, whose MCU is the always-on engine
    // of the mixed ring.
    if (node == 0 || node >= nodeCount() || isSoft(node))
        return;
    bus::Node &n = system_->node(node);
    // The gateable domains die with in-flight state; queued sends
    // terminate with TxStatus::Reset. The always-on wire controllers
    // survive and fall back to forwarding, exactly what a powered
    // mux with a dead control domain does.
    n.busController().powerFail();
    n.clkWireController().forward();
    n.dataWireController().forward();
    for (std::size_t l = 0; l < n.laneWireControllers(); ++l)
        n.laneWireController(l).forward();
    if (n.config().powerGated)
        n.sleep();
}

void
MbusBackend::brownoutRecover(std::size_t node)
{
    if (node == 0 || node >= nodeCount() || isSoft(node))
        return;
    bus::Node &n = system_->node(node);
    if (n.config().powerGated && !n.awake())
        n.wake();
}

void
MbusBackend::armWatchdog(std::uint32_t epochs)
{
    if (epochs == 0 || watchdogEpochs_ != 0)
        return;
    watchdogEpochs_ = epochs;
    scheduleWatchdogPoll();
}

void
MbusBackend::scheduleWatchdogPoll()
{
    sim::SimTime interval =
        watchdogEpochs_ *
        sim::periodFromHz(system_->config().busClockHz);
    system_->simulator().schedule(interval,
                                  [this] { watchdogPoll(); });
}

void
MbusBackend::watchdogPoll()
{
    system_->flushDeferredEdges();
    // CLK progress is measured where the mediator sees it: the ring
    // tail segment feeding its CLK input. A broken ring (stuck
    // segment, dead transmitter, runaway clocking into a break)
    // stalls it even while the mediator's own output toggles.
    std::uint64_t progress =
        system_->clkSegment(nodeCount() - 1).edgeEpoch();
    // "Busy" is exactly what runUntilIdle() waits out -- including a
    // node wedged mid-transaction with an empty queue (its receive
    // path lost edges to a fault; the forced control sequence is
    // what clocks it back to idle) -- or the watchdog would never
    // reclaim exactly the hangs it exists for.
    bool busy = !system_->idle();
    // Three stall shapes, each needing two consecutive busy polls:
    //  - frozen CLK (broken ring, dead transmitter);
    //  - CLK edges arriving while the mediator sleeps: a glitch pulse
    //    orbiting the forwarding ring, clocking phantom bits into
    //    every FSM. No transaction can make real progress without
    //    the mediator, whatever the edge counter does;
    //  - the mediator clocking a transaction nobody owns: a fault
    //    desynchronized the members (a glitch read as an
    //    interjection, a phantom address phase), so no transmitter
    //    will ever end the message and only the Sec 7 runaway limit,
    //    8192 cycles later, would.
    // Reclaim via the Sec 4.9 rescue path (full interjection +
    // general error).
    bool asleep = system_->mediator().asleep();
    bool noOwner = clockingWithNoOwner();
    if (busy && wdLastBusy_) {
        std::optional<trace::StallRule> rule;
        if (progress == wdLastProgress_)
            rule = trace::StallRule::FrozenClock;
        else if (asleep && wdLastAsleep_)
            rule = trace::StallRule::SleepingMediator;
        else if (noOwner && wdLastNoOwner_)
            rule = trace::StallRule::NoOwner;
        if (rule) {
            ++busResets_;
            if (auto *t = system_->simulator().tracer())
                t->record(trace::EventKind::WatchdogRescue, 0,
                          static_cast<std::int64_t>(busResets_),
                          static_cast<std::int32_t>(*rule));
            system_->mediator().forceInterjection();
        }
    }
    wdLastBusy_ = busy;
    wdLastAsleep_ = asleep;
    wdLastNoOwner_ = noOwner;
    wdLastProgress_ = progress;
    scheduleWatchdogPoll();
}

bool
MbusBackend::clockingWithNoOwner() const
{
    bus::MBusSystem &sys = *system_;
    if (sys.mediator().state() != bus::Mediator::State::Clocking)
        return false;
    using Phase = bus::BusController::Phase;
    using Role = bus::BusController::Role;
    const bus::SoftMember *soft = sys.softMember();
    bool owned = soft && soft->transmitting();
    bool arbitrating = false;
    for (std::size_t i = 0; i < sys.nodeCount(); ++i) {
        bus::Node &n = sys.node(i);
        const bus::BusController &bc = n.busController();
        // A member waiting on, or running, control cycles the
        // mediator never began.
        if (bc.phase() == Phase::IntjWait || bc.phase() == Phase::Control)
            return true;
        owned = owned || bc.role() == Role::Tx;
        // Roles settle on the third rising edge; until then nobody
        // can own the transaction yet. (A member woken later never
        // takes a role in this transaction at all.)
        arbitrating = arbitrating ||
                      (bc.phase() == Phase::Active &&
                       n.sleepController().risingCount() < 3);
    }
    return !owned && !arbitrating;
}

} // namespace backend
} // namespace mbus
