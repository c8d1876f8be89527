/**
 * @file
 * MSP430-like instruction cost model for bitbanged buses (Sec 6.6).
 *
 * The paper compiles its C implementation of MBus with
 * msp430-gcc-4.6.3 and reports a worst-case path of 20 instructions
 * (65 cycles including interrupt entry and exit) between an input
 * edge and the responding output write; at an 8 MHz system clock that
 * supports "up to a 120 kHz MBus clock" (8 MHz / 65 = 123 kHz).
 * Wikipedia's bitbang I2C compiles to a similar longest path of 21
 * instructions.
 */

#ifndef MBUS_BITBANG_COST_MODEL_HH
#define MBUS_BITBANG_COST_MODEL_HH

#include "sim/types.hh"

namespace mbus {
namespace bitbang {

/** Cycle costs of the primitive operations in the bitbang ISR. */
struct Msp430CostModel
{
    double cpuHz = 8e6; ///< The paper's 8 MHz system clock.

    int isrEntryCycles = 6;  ///< Interrupt entry (MSP430x1xx).
    int isrExitCycles = 5;   ///< RETI.
    int gpioReadCycles = 3;  ///< Single-operation MMIO read.
    int gpioWriteCycles = 4; ///< MMIO read-modify-write.
    int dispatchCycles = 16; ///< State load, compare, branch chain.
    int stateUpdateCycles = 16; ///< Counters, shifts, stores.

    /** Worst-case edge-to-output path, cycles (the paper's 65): the
     *  CLK-edge ISR, whose cost is the same in every protocol phase. */
    constexpr int
    worstPathCycles() const
    {
        return isrEntryCycles + gpioReadCycles + dispatchCycles +
               stateUpdateCycles + gpioWriteCycles +
               gpioReadCycles * 2 + gpioWriteCycles * 2 +
               isrExitCycles + 1;
    }

    /** Total cycles of the DATA-edge ISR: entry, one GPIO read, the
     *  dispatch chain, the state update, exit. Shorter than the CLK
     *  ISR (worstPathCycles()), which also forwards and drives. */
    constexpr int
    dataIsrCycles() const
    {
        return isrEntryCycles + gpioReadCycles + dispatchCycles +
               stateUpdateCycles + isrExitCycles;
    }

    /** Worst-case path, instructions (the paper's 20). */
    int
    worstPathInstructions() const
    {
        // One instruction per primitive op plus the dispatch chain.
        return 20;
    }

    /** Simulated time for @p cycles CPU cycles. */
    sim::SimTime
    cyclesToTime(int cycles) const
    {
        return sim::fromSeconds(static_cast<double>(cycles) / cpuHz);
    }

    /** Edge-to-output response latency. */
    sim::SimTime
    responseLatency() const
    {
        return cyclesToTime(worstPathCycles());
    }

    /**
     * The paper's headline arithmetic: max bus clock = cpu / worst
     * path (123 kHz -> "up to 120 kHz").
     */
    double
    maxBusClockHzPaper() const
    {
        return cpuHz / static_cast<double>(worstPathCycles());
    }

    /**
     * Conservative limit when the peer latches in hardware: the
     * response must land within the half period.
     */
    double
    maxBusClockHzConservative() const
    {
        return cpuHz / (2.0 * static_cast<double>(worstPathCycles()));
    }
};

/** The Wikipedia bitbang I2C comparison point (Sec 6.6). */
struct BitbangI2cReference
{
    static constexpr int kLongestPathInstructions = 21;
};

} // namespace bitbang
} // namespace mbus

#endif // MBUS_BITBANG_COST_MODEL_HH
