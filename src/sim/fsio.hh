/**
 * @file
 * Crash-safe file emission and byte-stable number formatting.
 *
 * Every report writer in the harness (sweep CSV/JSON, bench run
 * histories, perf baselines, trace exports) funnels through
 * atomicWriteFile(): bytes go to `path + ".tmp"` and the file is
 * renamed into place only after a clean close. rename(2) within a
 * directory is atomic, so readers -- and a re-run after a kill --
 * see either the previous complete file or the new complete one,
 * never a torn hybrid. This is the durability half of the
 * distributed-sweep checkpoint/resume contract.
 */

#ifndef MBUS_SIM_FSIO_HH
#define MBUS_SIM_FSIO_HH

#include <functional>
#include <ostream>
#include <string>

namespace mbus {
namespace sim {

/**
 * Crash-safe whole-file write: stream the bytes produced by @p emit
 * to `path + ".tmp"` and atomically rename into place on a clean
 * close.
 *
 * @return true when the rename landed; on failure the target file is
 *         untouched and the temp file is removed.
 */
bool atomicWriteFile(const std::string &path,
                     const std::function<void(std::ostream &)> &emit);

/** Crash-safe whole-file write of an already-assembled byte string. */
bool atomicWriteFile(const std::string &path, const std::string &bytes);

/**
 * Byte-stable double formatting: 17 significant digits round-trip
 * every IEEE-754 double, and std::to_chars is locale-independent
 * (unlike printf %g, whose decimal point follows LC_NUMERIC), so two
 * runs that computed identical values print identical bytes -- the
 * property the shard-determinism tests and FNV fingerprints rely on.
 */
std::string formatDouble(double v);

/** Append formatDouble(v) to @p out without a temporary string. */
void appendDouble(std::string &out, double v);

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_FSIO_HH
