/**
 * @file
 * Per-node, per-category energy bookkeeping.
 *
 * The ledger is the sink for every switching-energy charge the
 * simulator makes. It groups charges by node and by physical category
 * so benches can reproduce both the per-role Table 3 figures and the
 * component-level decomposition used in the paper's I2C comparison.
 */

#ifndef MBUS_POWER_ENERGY_HH
#define MBUS_POWER_ENERGY_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mbus {
namespace power {

/** Physical categories of energy expenditure. */
enum class EnergyCategory : std::uint8_t {
    SegmentClk,  ///< CLK ring-segment pad/wire switching.
    SegmentData, ///< DATA ring-segment pad/wire switching.
    Comb,        ///< Always-on forwarding combinational logic.
    Fifo,        ///< Receive FIFO flop clocking.
    Drive,       ///< Transmit drive logic.
    Mediator,    ///< Mediator clock generation.
    Leakage,     ///< Static leakage integrated over time.
    External,    ///< Non-MBus system energy (CPU cycles, radio, ...).
    NumCategories,
};

/** @return a short printable name for a category. */
const char *energyCategoryName(EnergyCategory c);

/**
 * Energy ledger: joules by (node, category).
 *
 * Node ids are small dense integers assigned by the system builder.
 */
class EnergyLedger
{
  public:
    static constexpr std::size_t kNumCategories =
        static_cast<std::size_t>(EnergyCategory::NumCategories);

    /** Prepare accounting slots for @p nodeCount nodes. */
    explicit EnergyLedger(std::size_t nodeCount = 0);

    /** Grow to at least @p nodeCount slots. */
    void resize(std::size_t nodeCount);

    /** Add @p joules to (node, category). Inline: the wire and the
     *  bus FSMs charge once per edge. */
    void
    charge(std::size_t node, EnergyCategory cat, double joules)
    {
        if (node >= perNode_.size())
            unknownNode(node);
        perNode_[node][static_cast<std::size_t>(cat)] += joules;
    }

    /** Total for one node across all categories. */
    double nodeTotal(std::size_t node) const;

    /** Total for one (node, category). */
    double nodeCategory(std::size_t node, EnergyCategory cat) const;

    /** Total for a category across all nodes. */
    double categoryTotal(EnergyCategory cat) const;

    /** Grand total. */
    double total() const;

    /** Number of node slots. */
    std::size_t nodeCount() const { return perNode_.size(); }

    /** Zero every cell (keeps the node slots). */
    void reset();

    /** Capture a snapshot for later differencing. */
    std::vector<double> snapshotNodeTotals() const;

    /** Human-readable per-node, per-category table. */
    void report(std::ostream &os) const;

  private:
    [[noreturn]] static void unknownNode(std::size_t node);

    using Row = std::array<double, kNumCategories>;
    std::vector<Row> perNode_;
};

} // namespace power
} // namespace mbus

#endif // MBUS_POWER_ENERGY_HH
