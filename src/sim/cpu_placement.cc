#include "sim/cpu_placement.hh"

namespace mbus {
namespace sim {

#ifdef __linux__

int
currentCpu()
{
    return ::sched_getcpu();
}

int
ownCpuFor(const cpu_set_t &allowed, int parentCpu, unsigned id)
{
    const int n = CPU_COUNT(&allowed);
    if (n < 2)
        return -1;
    int own = -1; // Rank of parentCpu in the mask; -1 if outside it.
    for (int c = 0, rank = 0; c < CPU_SETSIZE && own < 0; ++c)
        if (CPU_ISSET(c, &allowed)) {
            if (c == parentCpu)
                own = rank;
            ++rank;
        }
    const int target = static_cast<int>(
        (static_cast<unsigned>(own + 1) + id) % static_cast<unsigned>(n));
    for (int c = 0, rank = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed) && rank++ == target)
            return c;
    return -1;
}

void
startOnOwnCpu(unsigned id, int parentCpu)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    const int cpu = ownCpuFor(allowed, parentCpu, id);
    if (cpu < 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) == 0)
        ::sched_setaffinity(0, sizeof allowed, &allowed);
}

#else

int
currentCpu()
{
    return -1;
}

void
startOnOwnCpu(unsigned, int)
{
}

#endif

} // namespace sim
} // namespace mbus
