#include "bitbang/cost_model.hh"

namespace mbus {
namespace bitbang {

namespace {
// Keep the synthetic cost breakdown honest: it must reproduce the
// paper's measured 65-cycle worst path.
constexpr Msp430CostModel kDefault{};
static_assert(kDefault.worstPathCycles() == 65,
              "worst-case path must match the paper's 65 cycles");
} // namespace

} // namespace bitbang
} // namespace mbus
