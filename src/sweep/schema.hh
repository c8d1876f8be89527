/**
 * @file
 * The field table of every sweep record: the one place that lists
 * what a ScenarioSpec and a ScenarioStats hold.
 *
 * kFields<Rec> is a compile-time tuple with one {name, member
 * pointer} row per field of Rec, in the canonical "spec1" / "stat1"
 * wire order. Sub-records, and vectors of them, are fields too, with
 * tables of their own. forEachField() walks a table; the codec
 * (sweep/codec.cc) is two such walks, and the metrics snapshot picks
 * stats fields by name. Reordering, adding or removing a row changes
 * the codec bytes (see codec.hh for when that needs a new tag).
 *
 * Names are snake_case and stable; the metrics snapshot registers
 * stats fields under them ("events_executed", "slab_live_peak").
 */

#ifndef MBUS_SWEEP_SCHEMA_HH
#define MBUS_SWEEP_SCHEMA_HH

#include <tuple>
#include <type_traits>

#include "sweep/scenario.hh"

namespace mbus {
namespace sweep {

template <class M>
struct Field
{
    const char *name;
    M member; ///< Pointer to the data member.
};
template <class M> Field(const char *, M) -> Field<M>;

/** Every field of Rec, in wire order; specialized per record below. */
template <class Rec> constexpr auto kFields = nullptr;

/** Call f(name, rec.*member) for every field of @p rec, in order. */
template <class Rec, class F>
void
forEachField(Rec &rec, F &&f)
{
    std::apply(
        [&](const auto &...row) { (f(row.name, rec.*row.member), ...); },
        kFields<std::remove_const_t<Rec>>);
}

/** The last enumerator of each enum a record carries: decoders reject
 *  anything past it. An enum missing here fails to link. */
template <class E> extern const E kLastEnumerator;
template <>
constexpr TrafficPattern kLastEnumerator<TrafficPattern> =
    TrafficPattern::BroadcastMix;
template <>
constexpr backend::BackendKind kLastEnumerator<backend::BackendKind> =
    backend::BackendKind::Firmware;
template <>
constexpr workload::ActorKind kLastEnumerator<workload::ActorKind> =
    workload::ActorKind::ControlPlane;
template <>
constexpr workload::ScheduleKind kLastEnumerator<workload::ScheduleKind> =
    workload::ScheduleKind::ClockRetiming;
template <>
constexpr fault::FaultKind kLastEnumerator<fault::FaultKind> =
    fault::FaultKind::Brownout;

template <>
constexpr auto kFields<fault::RetryPolicy> = std::make_tuple(
    Field{"max_retries", &fault::RetryPolicy::maxRetries},
    Field{"backoff_epochs", &fault::RetryPolicy::backoffEpochs},
    Field{"multiplier", &fault::RetryPolicy::multiplier});

template <>
constexpr auto kFields<workload::ActorSpec> = std::make_tuple(
    Field{"name", &workload::ActorSpec::name},
    Field{"kind", &workload::ActorSpec::kind},
    Field{"node", &workload::ActorSpec::node},
    Field{"dest", &workload::ActorSpec::dest},
    Field{"period_s", &workload::ActorSpec::periodS},
    Field{"jitter_frac", &workload::ActorSpec::jitterFrac},
    Field{"payload_bytes", &workload::ActorSpec::payloadBytes},
    Field{"burst_bytes", &workload::ActorSpec::burstBytes},
    Field{"deadline_s", &workload::ActorSpec::deadlineS},
    Field{"priority", &workload::ActorSpec::priority},
    Field{"start_s", &workload::ActorSpec::startS},
    Field{"duty_cycled", &workload::ActorSpec::dutyCycled},
    Field{"stream", &workload::ActorSpec::stream},
    Field{"retry", &workload::ActorSpec::retry});

template <>
constexpr auto kFields<workload::ScheduleSpec> = std::make_tuple(
    Field{"kind", &workload::ScheduleSpec::kind},
    Field{"node", &workload::ScheduleSpec::node},
    Field{"at_s", &workload::ScheduleSpec::atS},
    Field{"duration_s", &workload::ScheduleSpec::durationS},
    Field{"rate_hz", &workload::ScheduleSpec::rateHz},
    Field{"clock_hz", &workload::ScheduleSpec::clockHz});

template <>
constexpr auto kFields<workload::WorkloadSpec> = std::make_tuple(
    Field{"name", &workload::WorkloadSpec::name},
    Field{"duration_s", &workload::WorkloadSpec::durationS},
    Field{"actors", &workload::WorkloadSpec::actors},
    Field{"schedules", &workload::WorkloadSpec::schedules});

template <>
constexpr auto kFields<fault::FaultEntry> = std::make_tuple(
    Field{"kind", &fault::FaultEntry::kind},
    Field{"node", &fault::FaultEntry::node},
    Field{"lane", &fault::FaultEntry::lane},
    Field{"start_s", &fault::FaultEntry::startS},
    Field{"end_s", &fault::FaultEntry::endS},
    Field{"count", &fault::FaultEntry::count},
    Field{"duration_s", &fault::FaultEntry::durationS},
    Field{"jitter_frac", &fault::FaultEntry::jitterFrac},
    Field{"drift_frac", &fault::FaultEntry::driftFrac},
    Field{"pulses", &fault::FaultEntry::pulses},
    Field{"stream", &fault::FaultEntry::stream});

template <>
constexpr auto kFields<fault::FaultSpec> = std::make_tuple(
    Field{"name", &fault::FaultSpec::name},
    Field{"watchdog", &fault::FaultSpec::watchdog},
    Field{"watchdog_epochs", &fault::FaultSpec::watchdogEpochs},
    Field{"entries", &fault::FaultSpec::entries});

template <>
constexpr auto kFields<trace::TraceConfig> = std::make_tuple(
    Field{"protocol", &trace::TraceConfig::protocol},
    Field{"flight", &trace::TraceConfig::flight},
    Field{"flight_depth", &trace::TraceConfig::flightDepth});

template <>
constexpr auto kFields<ScenarioSpec> = std::make_tuple(
    Field{"name", &ScenarioSpec::name},
    Field{"nodes", &ScenarioSpec::nodes},
    Field{"clock_hz", &ScenarioSpec::busClockHz},
    Field{"hop_delay_ns", &ScenarioSpec::hopDelayNs},
    Field{"wire_length_mm", &ScenarioSpec::wireLengthMm},
    Field{"wire_cap_f_per_mm", &ScenarioSpec::wireCapFPerMm},
    Field{"lanes", &ScenarioSpec::dataLanes},
    Field{"gated", &ScenarioSpec::powerGated},
    Field{"full_addr", &ScenarioSpec::fullAddressing},
    Field{"traffic", &ScenarioSpec::traffic},
    Field{"messages", &ScenarioSpec::messages},
    Field{"payload_bytes", &ScenarioSpec::payloadBytes},
    Field{"priority_rate", &ScenarioSpec::priorityRate},
    Field{"interject_rate", &ScenarioSpec::interjectRate},
    Field{"time_limit_ps", &ScenarioSpec::timeLimit},
    Field{"capture_vcd", &ScenarioSpec::captureVcd},
    Field{"edge_trains", &ScenarioSpec::edgeTrains},
    Field{"chunked_dispatch", &ScenarioSpec::chunkedDispatch},
    Field{"soft_rx_capacity", &ScenarioSpec::softRxCapacity},
    Field{"backend", &ScenarioSpec::backend},
    Field{"workload", &ScenarioSpec::workload},
    Field{"fault_spec", &ScenarioSpec::faults},
    Field{"retry", &ScenarioSpec::retry},
    Field{"trace", &ScenarioSpec::trace});

template <>
constexpr auto kFields<workload::ActorStats> = std::make_tuple(
    Field{"name", &workload::ActorStats::name},
    Field{"kind", &workload::ActorStats::kind},
    Field{"node", &workload::ActorStats::node},
    Field{"dest", &workload::ActorStats::dest},
    Field{"planned", &workload::ActorStats::planned},
    Field{"issued", &workload::ActorStats::issued},
    Field{"dropped_offline", &workload::ActorStats::droppedOffline},
    Field{"acked", &workload::ActorStats::acked},
    Field{"other_terminal", &workload::ActorStats::otherTerminal},
    Field{"samples_planned", &workload::ActorStats::samplesPlanned},
    Field{"samples", &workload::ActorStats::samplesDelivered},
    Field{"missed", &workload::ActorStats::missedDeadlines},
    Field{"bytes_issued", &workload::ActorStats::bytesIssued},
    Field{"bytes_delivered", &workload::ActorStats::bytesDelivered},
    Field{"lat_p50_s", &workload::ActorStats::latencyP50S},
    Field{"lat_p95_s", &workload::ActorStats::latencyP95S},
    Field{"lat_p99_s", &workload::ActorStats::latencyP99S},
    Field{"sample_latencies_s", &workload::ActorStats::sampleLatenciesS},
    Field{"energy_per_sample_j", &workload::ActorStats::energyPerSampleJ},
    Field{"duty_cycle", &workload::ActorStats::dutyCycle});

template <>
constexpr auto kFields<trace::MetricSample> = std::make_tuple(
    Field{"name", &trace::MetricSample::name},
    Field{"value", &trace::MetricSample::value});

template <>
constexpr auto kFields<ScenarioStats> = std::make_tuple(
    Field{"planned", &ScenarioStats::planned},
    Field{"acked", &ScenarioStats::acked},
    Field{"naked", &ScenarioStats::naked},
    Field{"broadcast", &ScenarioStats::broadcasts},
    Field{"interrupted", &ScenarioStats::interrupted},
    Field{"rx_abort", &ScenarioStats::rxAborts},
    Field{"failed", &ScenarioStats::failed},
    Field{"bytes_delivered", &ScenarioStats::bytesDelivered},
    Field{"mismatches", &ScenarioStats::payloadMismatches},
    Field{"wedged", &ScenarioStats::wedged},
    Field{"tx_per_s", &ScenarioStats::txPerSecond},
    Field{"goodput_bps", &ScenarioStats::goodputBps},
    Field{"events_per_bit", &ScenarioStats::eventsPerBit},
    Field{"switching_j", &ScenarioStats::switchingJ},
    Field{"leakage_j", &ScenarioStats::leakageJ},
    Field{"avg_tx_latency_s", &ScenarioStats::avgTxLatencyS},
    Field{"first_tx_latency_s", &ScenarioStats::firstTxLatencyS},
    Field{"avg_cycles_per_tx", &ScenarioStats::avgCyclesPerTx},
    Field{"energy_per_sample_j", &ScenarioStats::energyPerSampleJ},
    Field{"lifetime_days", &ScenarioStats::lifetimeDays},
    Field{"lat_p50_s", &ScenarioStats::latencyP50S},
    Field{"lat_p95_s", &ScenarioStats::latencyP95S},
    Field{"lat_p99_s", &ScenarioStats::latencyP99S},
    Field{"tx_latencies_s", &ScenarioStats::txLatenciesS},
    Field{"events_executed", &ScenarioStats::eventsExecuted},
    Field{"clock_cycles", &ScenarioStats::clockCycles},
    Field{"arb_retries", &ScenarioStats::arbitrationRetries},
    Field{"train_edges", &ScenarioStats::trainEdges},
    Field{"trains_scheduled", &ScenarioStats::trainsScheduled},
    Field{"dispatch_calls", &ScenarioStats::dispatchCalls},
    Field{"sim_time_ps", &ScenarioStats::simTime},
    Field{"per_node_edges", &ScenarioStats::perNodeEdges},
    Field{"actor_stats", &ScenarioStats::actorStats},
    Field{"missed_deadlines", &ScenarioStats::missedDeadlines},
    Field{"samples_planned", &ScenarioStats::samplesPlanned},
    Field{"samples_delivered", &ScenarioStats::samplesDelivered},
    Field{"storm_interjections", &ScenarioStats::stormInterjections},
    Field{"gate_windows", &ScenarioStats::gateWindows},
    Field{"faults", &ScenarioStats::faultsInjected},
    Field{"faults_recovered", &ScenarioStats::faultsRecovered},
    Field{"retimings", &ScenarioStats::retimings},
    Field{"fault_events", &ScenarioStats::faultEvents},
    Field{"bus_resets", &ScenarioStats::busResets},
    Field{"tx_resets", &ScenarioStats::txResets},
    Field{"retries", &ScenarioStats::retries},
    Field{"recovered_tx", &ScenarioStats::recoveredTx},
    Field{"abandoned_tx", &ScenarioStats::abandonedTx},
    Field{"recovery_p50_s", &ScenarioStats::recoveryP50S},
    Field{"recovery_p95_s", &ScenarioStats::recoveryP95S},
    Field{"recovery_p99_s", &ScenarioStats::recoveryP99S},
    Field{"delivered_ok", &ScenarioStats::deliveredOk},
    Field{"delivered_interrupted", &ScenarioStats::deliveredInterrupted},
    Field{"delivered_overflow", &ScenarioStats::deliveredOverflow},
    Field{"vcd_bytes", &ScenarioStats::vcdBytes},
    Field{"vcd_hash", &ScenarioStats::vcdHash},
    Field{"vcd", &ScenarioStats::vcd},
    Field{"slab_slots", &ScenarioStats::slabSlots},
    Field{"slab_live_peak", &ScenarioStats::liveHighWater},
    Field{"heap_callbacks", &ScenarioStats::heapCallbacks},
    Field{"trace_events", &ScenarioStats::traceEvents},
    Field{"trace_hash", &ScenarioStats::traceHash},
    Field{"trace_json", &ScenarioStats::traceJson},
    Field{"flight_dumps", &ScenarioStats::flightDumps},
    Field{"metrics", &ScenarioStats::metrics});

} // namespace sweep
} // namespace mbus

#endif // MBUS_SWEEP_SCHEMA_HH
