#include "trace/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "sim/simulator.hh"

namespace mbus {
namespace trace {

namespace {

/** Dumps retained per cell; later trips still count but keep the
 *  memory of a rescue-storm cell bounded. */
constexpr std::size_t kMaxDumps = 8;

} // namespace

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::TxBegin: return "tx_begin";
      case EventKind::TxEnd: return "tx_end";
      case EventKind::ArbWin: return "arb_win";
      case EventKind::ArbLoss: return "arb_loss";
      case EventKind::AddrPhase: return "addr";
      case EventKind::DataPhase: return "data";
      case EventKind::ControlPhase: return "control";
      case EventKind::InterjectRequest: return "interject_req";
      case EventKind::InterjectDetected: return "interject_seen";
      case EventKind::WatchdogRescue: return "watchdog_rescue";
      case EventKind::RetryAttempt: return "retry_attempt";
      case EventKind::RetryRecovered: return "retry_recovered";
      case EventKind::RetryAbandoned: return "retry_abandoned";
      case EventKind::Brownout: return "brownout";
      case EventKind::BrownoutRecover: return "brownout_recover";
      case EventKind::PowerGateOff: return "power_gate_off";
      case EventKind::PowerGateOn: return "power_gate_on";
      case EventKind::ClockStretch: return "clock_stretch";
      case EventKind::FaultInject: return "fault_inject";
      case EventKind::Delivery: return "delivery";
      case EventKind::WedgeGuard: return "wedge_guard";
      case EventKind::RunawayKill: return "runaway_kill";
    }
    return "?";
}

std::string
formatMicros(sim::SimTime ps)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  static_cast<std::uint64_t>(ps / 1000000),
                  static_cast<std::uint64_t>(ps % 1000000));
    return std::string(buf);
}

Tracer::Tracer(const sim::Simulator &sim, const TraceConfig &cfg,
               int nodes)
    : sim_(sim), cfg_(cfg), nodes_(nodes),
      open_(static_cast<std::size_t>(nodes > 0 ? nodes : 1))
{
    if (cfg_.flight) {
        if (cfg_.flightDepth == 0)
            cfg_.flightDepth = 1;
        ring_.resize(cfg_.flightDepth);
    }
}

void
Tracer::push(const TraceEvent &ev)
{
    ++recorded_;
    ++kindCounts_[static_cast<std::size_t>(ev.kind)];
    if (cfg_.protocol)
        events_.push_back(ev);
    if (cfg_.flight) {
        ring_[ringHead_ % ring_.size()] = ev;
        ++ringHead_;
    }
}

std::uint32_t
Tracer::beginTx(int node, std::int64_t a, std::int32_t b)
{
    std::size_t n = static_cast<std::size_t>(node);
    if (n >= open_.size())
        open_.resize(n + 1);
    // A brownout or reset can drop the end marker of the previous
    // send; close it as status -1 so spans always pair up in export.
    if (open_[n].id != 0)
        endTx(node, -1, 0);
    TraceEvent ev;
    ev.at = sim_.now();
    ev.kind = EventKind::TxBegin;
    ev.node = static_cast<std::uint16_t>(node);
    ev.tx = ++nextTx_;
    ev.a = a;
    ev.b = b;
    open_[n].id = ev.tx;
    open_[n].since = ev.at;
    open_[n].dest = a;
    push(ev);
    return ev.tx;
}

void
Tracer::endTx(int node, std::int64_t status, std::int32_t bytes)
{
    std::size_t n = static_cast<std::size_t>(node);
    if (n >= open_.size())
        open_.resize(n + 1);
    if (open_[n].id == 0)
        return; // No open span (e.g. brownout on an idle node).
    TraceEvent ev;
    ev.at = sim_.now();
    ev.kind = EventKind::TxEnd;
    ev.node = static_cast<std::uint16_t>(node);
    ev.tx = open_[n].id;
    ev.a = status;
    ev.b = bytes;
    open_[n] = OpenTx{};
    push(ev);
}

void
Tracer::record(EventKind k, int node, std::int64_t a, std::int32_t b)
{
    std::size_t n = static_cast<std::size_t>(node);
    if (n >= open_.size())
        open_.resize(n + 1);
    TraceEvent ev;
    ev.at = sim_.now();
    ev.kind = k;
    ev.node = static_cast<std::uint16_t>(node);
    ev.tx = open_[n].id;
    ev.a = a;
    ev.b = b;
    push(ev);
    if (k == EventKind::WatchdogRescue)
        trip("watchdog-rescue");
    else if (k == EventKind::RunawayKill)
        trip("runaway-kill");
    else if (k == EventKind::WedgeGuard)
        trip("wedge-guard");
}

void
Tracer::trip(const char *reason)
{
    if (!cfg_.flight)
        return;
    if (dumps_.size() >= kMaxDumps) {
        // Still counted (the dump header numbers trips), just not
        // retained; a rescue storm stays bounded.
        return;
    }
    std::string out;
    out += "=== flight-recorder dump #";
    out += std::to_string(dumps_.size() + 1);
    out += ": ";
    out += reason;
    out += " @ ";
    out += formatMicros(sim_.now());
    out += " us ===\n";
    out += "open transactions:\n";
    bool any = false;
    for (std::size_t n = 0; n < open_.size(); ++n) {
        if (open_[n].id == 0)
            continue;
        any = true;
        out += "  node ";
        out += std::to_string(n);
        out += " tx#";
        out += std::to_string(open_[n].id);
        out += " dest=";
        out += std::to_string(open_[n].dest);
        out += " open since ";
        out += formatMicros(open_[n].since);
        out += " us (age ";
        out += formatMicros(sim_.now() - open_[n].since);
        out += " us)\n";
    }
    if (!any)
        out += "  (none)\n";
    std::uint64_t depth = ring_.size();
    std::uint64_t count = ringHead_ < depth ? ringHead_ : depth;
    out += "last ";
    out += std::to_string(count);
    out += " events (oldest first):\n";
    for (std::uint64_t i = 0; i < count; ++i) {
        const TraceEvent &ev = ring_[(ringHead_ - count + i) % depth];
        out += "  [";
        out += formatMicros(ev.at);
        out += " us] ";
        out += eventKindName(ev.kind);
        out += " node=";
        out += std::to_string(ev.node);
        if (ev.tx != 0) {
            out += " tx#";
            out += std::to_string(ev.tx);
        }
        out += " a=";
        out += std::to_string(ev.a);
        out += " b=";
        out += std::to_string(ev.b);
        out += '\n';
    }
    out += "===\n";
    dumps_.push_back(std::move(out));
}

namespace {

/** One Chrome trace-event object; appended with a leading ",\n". */
void
appendEvent(std::string &out, const char *ph, int node,
            const std::string &ts, const char *name,
            const std::string &extra)
{
    out += ",\n  {\"ph\": \"";
    out += ph;
    out += "\", \"pid\": 0, \"tid\": ";
    out += std::to_string(node);
    out += ", \"ts\": ";
    out += ts;
    out += ", \"name\": \"";
    out += name;
    out += '"';
    out += extra;
    out += '}';
}

} // namespace

std::string
Tracer::chromeJson() const
{
    // Per-node export state: the open transaction span and the open
    // protocol-phase sub-span. One pass, pure in the event stream.
    struct NodeState
    {
        bool txOpen = false;
        sim::SimTime txTs = 0;
        std::uint32_t txId = 0;
        std::int64_t txDest = 0;
        bool phaseOpen = false;
        sim::SimTime phaseTs = 0;
        EventKind phaseKind = EventKind::AddrPhase;
    };
    std::vector<NodeState> st(
        static_cast<std::size_t>(nodes_ > 0 ? nodes_ : 1));

    std::string out;
    out += "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n";
    out += "  {\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"mbus cell\"}}";
    for (int n = 0; n < nodes_; ++n) {
        out += ",\n  {\"ph\": \"M\", \"pid\": 0, \"tid\": ";
        out += std::to_string(n);
        out += ", \"name\": \"thread_name\", \"args\": {\"name\": "
               "\"node ";
        out += std::to_string(n);
        out += n == 0 ? " (mediator)\"}}" : "\"}}";
    }

    auto closePhase = [&](NodeState &ns, int node, sim::SimTime at) {
        if (!ns.phaseOpen)
            return;
        std::string extra = ", \"cat\": \"phase\", \"dur\": ";
        extra += formatMicros(at - ns.phaseTs);
        appendEvent(out, "X", node, formatMicros(ns.phaseTs),
                    eventKindName(ns.phaseKind), extra);
        ns.phaseOpen = false;
    };
    auto closeTx = [&](NodeState &ns, int node, sim::SimTime at,
                       std::int64_t status, std::int32_t bytes) {
        closePhase(ns, node, at);
        if (!ns.txOpen)
            return;
        std::string name = "tx#" + std::to_string(ns.txId);
        std::string extra = ", \"cat\": \"tx\", \"dur\": ";
        extra += formatMicros(at - ns.txTs);
        extra += ", \"args\": {\"dest\": ";
        extra += std::to_string(ns.txDest);
        extra += ", \"status\": ";
        extra += std::to_string(status);
        extra += ", \"bytes\": ";
        extra += std::to_string(bytes);
        extra += '}';
        appendEvent(out, "X", node, formatMicros(ns.txTs),
                    name.c_str(), extra);
        ns.txOpen = false;
    };

    sim::SimTime lastAt = 0;
    for (const TraceEvent &ev : events_) {
        lastAt = ev.at;
        std::size_t n = ev.node;
        if (n >= st.size())
            st.resize(n + 1);
        NodeState &ns = st[n];
        switch (ev.kind) {
          case EventKind::TxBegin:
            closeTx(ns, ev.node, ev.at, -1, 0);
            ns.txOpen = true;
            ns.txTs = ev.at;
            ns.txId = ev.tx;
            ns.txDest = ev.a;
            break;
          case EventKind::TxEnd:
            closeTx(ns, ev.node, ev.at, ev.a, ev.b);
            break;
          case EventKind::AddrPhase:
          case EventKind::DataPhase:
          case EventKind::ControlPhase:
            closePhase(ns, ev.node, ev.at);
            ns.phaseOpen = true;
            ns.phaseTs = ev.at;
            ns.phaseKind = ev.kind;
            break;
          default: {
            std::string extra = ", \"s\": \"t\", \"args\": {\"a\": ";
            extra += std::to_string(ev.a);
            extra += ", \"b\": ";
            extra += std::to_string(ev.b);
            extra += ", \"tx\": ";
            extra += std::to_string(ev.tx);
            extra += '}';
            appendEvent(out, "i", ev.node, formatMicros(ev.at),
                        eventKindName(ev.kind), extra);
            break;
          }
        }
    }
    // A wedged cell leaves spans hanging; close them at the last
    // timestamp so the export always parses.
    for (std::size_t n = 0; n < st.size(); ++n)
        closeTx(st[n], static_cast<int>(n), lastAt, -1, 0);

    out += "\n ]}\n";
    return out;
}

} // namespace trace
} // namespace mbus
