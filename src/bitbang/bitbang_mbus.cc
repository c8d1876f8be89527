#include "bitbang/bitbang_mbus.hh"

#include <algorithm>

#include "mbus/protocol.hh"
#include "mbus/system.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace mbus {
namespace bitbang {

BitbangMbus::BitbangMbus(sim::Simulator &sim, Config cfg,
                         wire::Net &clkIn, wire::Net &clkOut,
                         wire::Net &dataIn, wire::Net &dataOut)
    : sim_(sim), cfg_(cfg), clkIn_(clkIn), clkOut_(clkOut),
      dataIn_(dataIn), dataOut_(dataOut)
{
    clkRetire_.self = this;
    dataRetire_.self = this;
    clkIn_.listen(wire::Edge::Any, *this);
    dataIn_.listen(wire::Edge::Any, *this);
}

BitbangMbus::~BitbangMbus()
{
    isrTrain_.cancel();
}

void
BitbangMbus::onNetEdge(wire::Net &net, bool value)
{
    if (&net == &clkIn_)
        onClkEdge(value);
    else
        onDataEdge(value);
}

sim::SimTime
BitbangMbus::isrRetireTime(int totalCycles)
{
    maxPathCycles_ = std::max(maxPathCycles_, totalCycles);

    // One CPU: a new interrupt waits for the running ISR to retire.
    sim::SimTime start = sim_.now();
    if (cpuBusyUntil_ > start) {
        ++stats_.serializationStalls;
        start = cpuBusyUntil_;
    }
    sim::SimTime done = start + cfg_.cost.cyclesToTime(totalCycles);
    cpuBusyUntil_ = done;

    ++stats_.isrInvocations;
    stats_.cyclesSpent += static_cast<std::uint64_t>(totalCycles);
    return done;
}

void
BitbangMbus::splitIsrTrain()
{
    (void)isrTrain_.truncateTrainToHead();
    isrTrainActive_ = false;
    isrTrainLeft_ = 0;
    haveClkArrival_ = false;
    haveClkGap_ = false;
}

void
BitbangMbus::onClkEdge(bool level)
{
    const auto &cost = cfg_.cost;
    // The CLK ISR body costs the same cycle count whatever the
    // protocol phase, so its retirement latency is a constant.
    const int body = cost.gpioReadCycles + cost.dispatchCycles +
                     cost.stateUpdateCycles + cost.gpioWriteCycles +
                     2 * cost.gpioReadCycles + 2 * cost.gpioWriteCycles + 1;
    const int total = cost.isrEntryCycles + body + cost.isrExitCycles;
    const sim::SimTime latency = cost.cyclesToTime(total);
    const sim::SimTime now = sim_.now();
    const sim::SimTime done = isrRetireTime(total);
    const bool onTime = done == now + latency; // No CPU stall.

    if (isrTrainActive_) {
        // Does this arrival confirm the train's next predicted
        // retirement? Confirmation re-arms the edge with a tie-break
        // sequence drawn right now -- the exact position a discrete
        // schedule here would get -- so delivery is bit-identical.
        if (onTime && level == isrExpectValue_ && now == isrExpectAt_ &&
            isrTrainLeft_ > 0 && isrTrain_.confirmTrainEdge()) {
            --isrTrainLeft_;
            isrExpectValue_ = !level;
            isrExpectAt_ = now + isrPeriod_;
            if (isrTrainLeft_ == 0) {
                // Exhausted cleanly: hand the rhythm straight back to
                // the detector so the next matching arrival chains a
                // new train without discrete warm-up.
                isrTrainActive_ = false;
                haveClkArrival_ = true;
                haveClkGap_ = true;
                lastClkArrival_ = now;
                lastClkGap_ = isrPeriod_;
            }
            return;
        }
        // Stalled, off-rhythm, or wrong level: split back to the
        // discrete path (the committed in-flight retirement survives).
        splitIsrTrain();
    }

    if (cfg_.isrTrainMaxEdges != 0 && onTime) {
        const sim::SimTime gap = now - lastClkArrival_;
        if (haveClkGap_ && gap > 0 && gap == lastClkGap_ &&
            gap > latency) {
            // Third stall-free arrival on a steady beat: this
            // retirement becomes the confirmed head of a train.
            isrPeriod_ = gap;
            isrTrain_ = sim_.scheduleSpeculativeEdgeTrain(
                latency, gap, cfg_.isrTrainMaxEdges, clkRetire_, level);
            isrTrainActive_ = true;
            isrTrainLeft_ = cfg_.isrTrainMaxEdges - 1;
            isrExpectValue_ = !level;
            isrExpectAt_ = now + gap;
            haveClkArrival_ = false;
            haveClkGap_ = false;
            return;
        }
        if (haveClkArrival_) {
            lastClkGap_ = gap;
            haveClkGap_ = gap > 0;
        }
        lastClkArrival_ = now;
        haveClkArrival_ = true;
    } else {
        // A stalled retirement lands off the pure-latency beat:
        // restart rhythm detection from scratch.
        haveClkArrival_ = false;
        haveClkGap_ = false;
    }

    // The output write is the last instruction before RETI: model the
    // whole response as landing at ISR retirement.
    sim_.scheduleEdge(done - now, clkRetire_, level);
}

void
BitbangMbus::onDataEdge(bool level)
{
    // DATA edges are irregular (requests, ACKs, payload bits), so
    // their retirements stay discrete -- but pooled, not closures.
    const auto &cost = cfg_.cost;
    const int body = cost.gpioReadCycles + cost.dispatchCycles +
                     cost.stateUpdateCycles;
    const int total = cost.isrEntryCycles + body + cost.isrExitCycles;
    const sim::SimTime done = isrRetireTime(total);
    sim_.scheduleEdge(done - sim_.now(), dataRetire_, level);
}


void
BitbangMbus::finishTx(bool bit1)
{
    auto tx = std::move(txQueue_.front());
    txQueue_.pop_front();
    ++stats_.messagesSent;
    bus::TxResult result;
    // {1,0} ACK, {1,1} NAK, {0,1} interrupted by a third party, {0,0}
    // general error -- the hardware controller's code points. A local
    // error (data synch) trumps the wire bits, and broadcasts have no
    // single ACKer.
    bool broadcast = tx.msg.dest.isBroadcast();
    if (txError_ != bus::LocalError::None) {
        result.status = bus::TxStatus::GeneralError;
        result.error = txError_;
    } else if (ctlBit0_) {
        result.status = broadcast ? bus::TxStatus::Broadcast
                        : (!bit1 ? bus::TxStatus::Ack : bus::TxStatus::Nak);
    } else if (bit1) {
        result.status = bus::TxStatus::Interrupted;
        result.error = bus::LocalError::Interrupted;
    } else {
        result.status = bus::TxStatus::GeneralError;
    }
    if (result.status == bus::TxStatus::Ack ||
        result.status == bus::TxStatus::Nak ||
        result.status == bus::TxStatus::Broadcast) {
        result.bytesSent = tx.msg.payload.size();
    } else {
        // Complete payload bytes that made it out before the cut
        // (address bits excluded).
        auto addrBits = static_cast<std::uint32_t>(tx.msg.dest.bitCount());
        result.bytesSent =
            txBitsDriven_ > addrBits ? (txBitsDriven_ - addrBits) / 8 : 0;
    }
    result.arbitrationRetries = tx.attempts > 0 ? tx.attempts - 1 : 0;
    result.completedAt = sim_.now();
    if (auto *t = sim_.tracer())
        t->endTx(static_cast<int>(cfg_.shortPrefix) - 1,
                 static_cast<std::int64_t>(result.status),
                 static_cast<std::int32_t>(result.bytesSent));
    if (tx.cb) {
        auto cb = std::move(tx.cb);
        sim_.schedule(0, [cb, result] { cb(result); });
    }
}

void
BitbangMbus::clkIsrBody(bool level)
{
    intjCount_ = 0; // CLK edge resets the software interjection counter.
    lastClkIn_ = level;

    // Forward first (the write is what downstream timing sees).
    if (fwdClk_)
        clkOut_.drive(level);

    if (phase_ == Phase::Idle) {
        phase_ = Phase::Active;
        role_ = Role::None;
        rising_ = falling_ = 0;
        wonArb_ = false;
        wonPriority_ = false;
        backedOff_ = false;
        priorityDriven_ = false;
        addressResolved_ = false;
        addrAccum_ = 0;
        addrBitsSeen_ = 0;
        addrBitsExpected_ = 8;
        rxBytes_.clear();
        rxBitBuffer_ = 0;
        rxBitsPending_ = 0;
        txBitsDriven_ = 0;
        txError_ = bus::LocalError::None;
        rxOverflowed_ = false;
    }

    if (level)
        ++rising_;
    else
        ++falling_;

    if (phase_ == Phase::IntjWait)
        return;

    if (phase_ == Phase::Control) {
        if (level) {
            std::uint32_t rc = rising_ - ctlRising_;
            if (rc == 2) {
                ctlBit0_ = dataIn_.value();
            } else if (rc == 3) {
                bool bit1 = dataIn_.value();
                if (role_ == Role::Tx && !txQueue_.empty())
                    finishTx(bit1);
                if (role_ == Role::Rx && rxCb_) {
                    // Deliver on clean EoM, and on an abort code
                    // ({0,1}) when bytes already landed -- flagged, so
                    // the layer above sees the truncation (the seed
                    // model delivered only clean EoM, silently
                    // dropping everything a third-party cut).
                    bool eom = ctlBit0_;
                    bool abortCode = !ctlBit0_ && bit1;
                    if (eom || (abortCode && !rxBytes_.empty())) {
                        ++stats_.messagesReceived;
                        bus::ReceivedMessage rx;
                        rx.dest = rxAddr_;
                        rx.payload = rxBytes_;
                        rx.interjected = !eom;
                        rx.error =
                            rxOverflowed_
                                ? bus::LocalError::RecvOverflow
                                : (eom ? bus::LocalError::None
                                       : bus::LocalError::Interrupted);
                        rx.receivedAt = sim_.now();
                        if (auto *t = sim_.tracer())
                            t->record(
                                trace::EventKind::Delivery,
                                static_cast<int>(cfg_.shortPrefix) - 1,
                                static_cast<std::int64_t>(
                                    rx.payload.size()),
                                rx.interjected ? 1 : 0);
                        auto cb = rxCb_;
                        sim_.schedule(0, [cb, rx] { cb(rx); });
                    }
                }
            } else if (rc == 4) {
                beginIdle();
            }
        } else {
            std::uint32_t fc = falling_ - ctlFalling_;
            if (fc == 2) {
                if (role_ == Role::Tx) {
                    // Bit 0: the transmitter signals clean
                    // end-of-message by driving high; a transmitter
                    // cut by a third party (or cutting itself on a
                    // local error) drives low, so the receiver flags
                    // the truncated delivery.
                    fwdData_ = false;
                    dataOut_.drive(iAmInterjector_ && interjectorEom_);
                }
            } else if (fc == 3) {
                if (role_ == Role::Tx) {
                    fwdData_ = true;
                    dataOut_.drive(dataIn_.value());
                }
                if (role_ == Role::Rx && ctlBit0_ &&
                    !rxAddr_.isBroadcast()) {
                    fwdData_ = false;
                    dataOut_.drive(false); // ACK.
                }
                if (iAmInterjector_ && role_ != Role::Tx) {
                    // A non-transmitter interjector (receive overflow)
                    // drives the abort code {0,1}.
                    fwdData_ = false;
                    dataOut_.drive(true);
                }
            } else if (fc == 4) {
                fwdData_ = true;
                dataOut_.drive(dataIn_.value());
            }
        }
        return;
    }

    if (level)
        handleRising(dataIn_.value());
    else
        handleFalling();
}

void
BitbangMbus::handleRising(bool dataAtIsr)
{
    if (rising_ == 1) {
        if (requested_)
            wonArb_ = dataAtIsr;
        return;
    }
    if (rising_ == 2) {
        if (wonArb_ && dataAtIsr) {
            // Priority request upstream: back off (release at f3).
            wonArb_ = false;
            backedOff_ = true;
        } else if (priorityDriven_) {
            // We claimed the priority cycle; a low on DIN means no
            // requester upstream outranks us.
            wonPriority_ = !dataAtIsr;
        }
        return;
    }
    if (rising_ == 3) {
        if (wonArb_ || wonPriority_) {
            role_ = Role::Tx;
            const bus::Message &msg = txQueue_.front().msg;
            if (auto *t = sim_.tracer()) {
                t->beginTx(static_cast<int>(cfg_.shortPrefix) - 1,
                           msg.dest.encoded(),
                           static_cast<std::int32_t>(
                               msg.payload.size()));
                t->record(trace::EventKind::ArbWin,
                          static_cast<int>(cfg_.shortPrefix) - 1,
                          wonPriority_ ? 1 : 0);
            }
            txBits_.clear();
            std::uint32_t enc = msg.dest.encoded();
            for (int i = msg.dest.bitCount() - 1; i >= 0; --i)
                txBits_.push_back((enc >> i) & 1);
            for (std::uint8_t byte : msg.payload)
                for (int i = 7; i >= 0; --i)
                    txBits_.push_back((byte >> i) & 1);
            txTotal_ = static_cast<std::uint32_t>(txBits_.size());
            txBitsDriven_ = 0;
        } else {
            role_ = Role::Fwd;
            // Lost arbitration: retry from the next idle window.
            if (requested_) {
                if (auto *t = sim_.tracer())
                    t->record(trace::EventKind::ArbLoss,
                              static_cast<int>(cfg_.shortPrefix) - 1);
            }
        }
        requested_ = false;
        return;
    }

    if (role_ == Role::Tx) {
        std::uint32_t idx = rising_ - 4;
        if (idx < txTotal_ && dataAtIsr != (txBits_[idx] != 0)) {
            // The bit echoed around the ring disagrees with what we
            // drove: MBUS_DATA_SYNCH_ERROR in the firmware. Cut the
            // message with an error interjection.
            txError_ = bus::LocalError::DataSynch;
            requestInterjection(false);
            return;
        }
        if (rising_ == 3 + txTotal_)
            requestInterjection(true); // End of message.
        return;
    }

    // Latch.
    if (!addressResolved_) {
        addrAccum_ = (addrAccum_ << 1) | (dataAtIsr ? 1 : 0);
        ++addrBitsSeen_;
        if (addrBitsSeen_ == 4 &&
            (addrAccum_ & 0xF) == bus::kFullAddressMarker) {
            addrBitsExpected_ = 32;
        }
        if (addrBitsSeen_ == addrBitsExpected_) {
            addressResolved_ = true;
            if (addrBitsExpected_ == 8) {
                rxAddr_ = bus::Address::decodeShort(
                    static_cast<std::uint8_t>(addrAccum_ & 0xFF));
                if (rxAddr_.isBroadcast()) {
                    // The firmware receives every broadcast channel;
                    // channel filtering happens a layer up.
                    role_ = Role::Rx;
                } else if (cfg_.shortPrefix != 0 &&
                           rxAddr_.shortPrefix() == cfg_.shortPrefix) {
                    role_ = Role::Rx;
                }
                if (role_ == Role::Rx) {
                    if (auto *t = sim_.tracer())
                        t->record(
                            trace::EventKind::AddrPhase,
                            static_cast<int>(cfg_.shortPrefix) - 1,
                            static_cast<std::int64_t>(addrAccum_),
                            static_cast<std::int32_t>(
                                addrBitsExpected_));
                }
            }
        }
        return;
    }
    if (role_ == Role::Rx) {
        rxBitBuffer_ = (rxBitBuffer_ << 1) | (dataAtIsr ? 1 : 0);
        if (++rxBitsPending_ == 8) {
            if (rxBytes_.size() >= cfg_.rxCapacityBytes) {
                // Receive buffer full: MBUS_RECV_OVERFLOW. Interject
                // rather than drop bytes silently.
                rxOverflowed_ = true;
                requestInterjection(false);
                return;
            }
            rxBytes_.push_back(
                static_cast<std::uint8_t>(rxBitBuffer_ & 0xFF));
            if (rxBytes_.size() == 1) {
                if (auto *t = sim_.tracer())
                    t->record(trace::EventKind::DataPhase,
                              static_cast<int>(cfg_.shortPrefix) - 1,
                              static_cast<std::int64_t>(rxBitBuffer_ &
                                                        0xFF));
            }
            rxBitBuffer_ = 0;
            rxBitsPending_ = 0;
        }
    }
}

void
BitbangMbus::requestInterjection(bool eom)
{
    // Stop forwarding CLK: the mediator sees the held-high clock and
    // starts the control sequence (Sec 4.4).
    if (auto *t = sim_.tracer())
        t->record(trace::EventKind::InterjectRequest,
                  static_cast<int>(cfg_.shortPrefix) - 1,
                  eom ? 1 : 0);
    iAmInterjector_ = true;
    interjectorEom_ = eom;
    fwdClk_ = false;
    phase_ = Phase::IntjWait;
}

void
BitbangMbus::handleFalling()
{
    if (falling_ == 2) {
        if (requested_ && !wonArb_) {
            if (!txQueue_.empty() && txQueue_.front().msg.priority) {
                // Lost the main round with a priority message: claim
                // the priority-arbitration cycle by driving high.
                priorityDriven_ = true;
                fwdData_ = false;
                dataOut_.drive(true);
            } else {
                fwdData_ = true;
                dataOut_.drive(dataIn_.value()); // Release the request.
            }
        }
        return;
    }
    if (falling_ == 3) {
        if (wonArb_ || wonPriority_) {
            fwdData_ = false;
            dataOut_.drive(true); // Reserved cycle: park high.
        } else if (backedOff_ || priorityDriven_) {
            // Cede to the winner: release the held request (the seed
            // model left a backed-off requester driving DATA low
            // forever, wedging the bus).
            fwdData_ = true;
            dataOut_.drive(dataIn_.value());
        }
        return;
    }
    if (falling_ >= 4 && role_ == Role::Tx) {
        std::uint32_t idx = falling_ - 4;
        if (idx < txTotal_) {
            dataOut_.drive(txBits_[idx] != 0);
            ++txBitsDriven_;
        }
    }
}

void
BitbangMbus::dataIsrBody(bool level)
{
    if (fwdData_)
        dataOut_.drive(level);

    // Software interjection detector. libmbus counts DIN edges only
    // while CLK is high (the mediator toggles DATA under a clock it
    // parked high); DATA edges seen while CLK is low are ordinary bus
    // activity -- arbitration releases, payload bits -- and must not
    // feed the counter (the seed model counted them all, relying on
    // the per-CLK-edge reset alone).
    if (!lastClkIn_)
        return;
    if (++intjCount_ < 3 || phase_ == Phase::Control)
        return;

    // Switch role (Fig 7): release every hold -- the transmitter
    // too, so the mediator's toggles propagate the whole ring.
    if (requested_) {
        // A request that never reached arbitration is squashed; the
        // message stays queued and is re-issued from the next idle
        // (the seed model left requested_ set forever, blocking every
        // later tryRequest()).
        requested_ = false;
    }
    if (phase_ == Phase::Idle) {
        // No transaction was live (mediator-originated interjection,
        // e.g. a fault broadcast): enter the control sequence with
        // fresh state instead of misreading its CLK pulses as a new
        // transaction -- the seed model did the latter and stayed
        // misaligned until the next mid-message interjection.
        role_ = Role::None;
        rxBytes_.clear();
        addressResolved_ = false;
        addrAccum_ = 0;
        addrBitsSeen_ = 0;
        addrBitsExpected_ = 8;
        iAmInterjector_ = false;
        interjectorEom_ = false;
        rxOverflowed_ = false;
        txError_ = bus::LocalError::None;
    }
    phase_ = Phase::Control;
    ctlRising_ = rising_;
    ctlFalling_ = falling_;
    ctlBit0_ = false;
    // Resume forwarding with the levels the ISR read at entry (the
    // firmware's last_clkin / the latched DIN edge), not a live net
    // read -- a later edge may already be in flight.
    fwdClk_ = true;
    clkOut_.drive(lastClkIn_);
    fwdData_ = true;
    dataOut_.drive(level);
    // Byte alignment: drop any partial byte.
    rxBitBuffer_ = 0;
    rxBitsPending_ = 0;
}

void
BitbangMbus::beginIdle()
{
    phase_ = Phase::Idle;
    role_ = Role::None;
    iAmInterjector_ = false;
    interjectorEom_ = false;
    rxOverflowed_ = false;
    txError_ = bus::LocalError::None;
    wonArb_ = false;
    wonPriority_ = false;
    backedOff_ = false;
    priorityDriven_ = false;
    rising_ = falling_ = 0;
    fwdClk_ = true;
    fwdData_ = true;
    sim::SimTime guard = 4 * cfg_.cost.responseLatency();
    sim_.schedule(guard, [this] { tryRequest(); });
}

void
BitbangMbus::send(bus::Message msg, bus::SendCallback cb)
{
    txQueue_.push_back(PendingTx{std::move(msg), std::move(cb)});
    tryRequest();
}

void
BitbangMbus::tryRequest()
{
    if (txQueue_.empty() || requested_ || phase_ != Phase::Idle)
        return;
    requested_ = true;
    ++txQueue_.front().attempts;
    fwdData_ = false;
    dataOut_.drive(false); // Request the bus.
}

void
addBitbangMember(bus::MBusSystem &sys, std::string name,
                 BitbangMbus::Config cfg)
{
    sim::Simulator &sim = sys.simulator();
    sys.addSoftMember(
        std::move(name), cfg.cost.responseLatency(),
        [&sim, cfg](const bus::SystemConfig &ring,
                    const bus::SoftMemberPins &pins) mutable {
            cfg.isrTrainMaxEdges =
                ring.edgeTrains ? ring.trainMaxEdges : 0;
            return std::make_unique<BitbangMbus>(
                sim, cfg, pins.clkIn, pins.clkOut, pins.dataIn,
                pins.dataOut);
        });
}

} // namespace bitbang
} // namespace mbus
