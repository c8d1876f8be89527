/**
 * @file
 * Start a new thread or forked process on a CPU of its own.
 *
 * A kernel that does not balance load across the CPUs a task may use
 * (a cpuset with sched_load_balance off) never migrates a new thread
 * or a forked child off its parent's CPU, so N sweep threads or fleet
 * workers would time-share one core for life. startOnOwnCpu() moves
 * the caller once, as it starts, to a CPU chosen by rank from the
 * parent's, and then restores the full inherited mask, so a balancing
 * kernel can still move it. Linux only; a no-op elsewhere.
 */

#ifndef MBUS_SIM_CPU_PLACEMENT_HH
#define MBUS_SIM_CPU_PLACEMENT_HH

#ifdef __linux__
#include <sched.h>
#endif

namespace mbus {
namespace sim {

/** @return the CPU the calling thread runs on, or -1 where unknown.
 *  The parent reads it before it creates the thread or child. */
int currentCpu();

#ifdef __linux__
/**
 * The CPU that member @p id of a group started from @p parentCpu
 * takes: the (id+1)-th CPU of @p allowed after @p parentCpu, counted
 * by rank and wrapping around (counted from before rank 0 when
 * @p parentCpu is outside the mask). Pure: no system call.
 *
 * @return the CPU number, or -1 when @p allowed holds fewer than two
 *         CPUs.
 */
int ownCpuFor(const cpu_set_t &allowed, int parentCpu, unsigned id);
#endif

/**
 * Move the calling thread to ownCpuFor(its affinity mask,
 * @p parentCpu, @p id), then restore the full mask. Allocation-free,
 * so a forked child may call it before exec; a no-op on a one-CPU
 * mask or when a call fails.
 */
void startOnOwnCpu(unsigned id, int parentCpu);

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_CPU_PLACEMENT_HH
