/**
 * @file
 * Canonical, byte-stable serialization of sweep cells, generated from
 * the field table in sweep/schema.hh.
 *
 * The codec is two visitors over that table: a Writer that appends
 * one token per scalar field, and a Reader that parses them back.
 * Neither names a field; a record's bytes are its table walked in
 * order. A string, double, bool, integer or enum is one token; a
 * vector is its element count followed by its elements; a sub-record
 * is its own table, inline.
 *
 *  - encodeSpec(): the *canonical* form of a ScenarioSpec. Two specs
 *    encode to identical bytes iff they describe identical cells,
 *    which is exactly what the fleet's content-addressed cell cache
 *    hashes (sim/hash.hh FNV-1a over spec bytes + seed + salt) and
 *    what the coordinator ships to workers over the pipe.
 *
 *  - encodeStats(): a complete round-trip of a ScenarioStats record,
 *    so a worker process (or a cache hit, or a checkpoint-journal
 *    replay) can hand a finished cell back to the coordinator and the
 *    merged CSV/JSON/fingerprint is byte-identical to an in-process
 *    run. Doubles use the 17-digit format, which round-trips every
 *    IEEE-754 value, -0.0 included.
 *
 * Framing: '|'-separated tokens; strings are percent-escaped so a
 * token never contains '|', '%', whitespace, or control bytes. Both
 * encodings carry a leading version tag ("spec1" / "stat2").
 *
 * Decoding is strict. The Reader accepts only the bytes a Writer
 * would have produced: an enum past its last enumerator, an integer
 * that overflows its field, a non-canonical number or escape, a count
 * larger than the input could hold (or past the per-vector bounds:
 * 4096 records or strings, 2^26 numbers, 65536 metric samples) all
 * make decoding fail. A successful decode therefore re-encodes to the
 * input byte for byte.
 *
 * Adding, removing or reordering a table row moves the bytes, so it
 * needs a new tag ("spec2" / "stat3") and a fleet::kHarnessVersionSalt
 * bump: stale cache entries and journals are then rejected instead of
 * misread. Renaming a row, or adding a report column computed from
 * existing fields, keeps every byte and needs neither.
 */

#ifndef MBUS_SWEEP_CODEC_HH
#define MBUS_SWEEP_CODEC_HH

#include <string>
#include <string_view>

#include "sweep/scenario.hh"

namespace mbus {
namespace sweep {

/** Percent-escape @p raw so it is one framing-safe token (no '|',
 *  '%', whitespace, or bytes outside printable ASCII). */
std::string escapeToken(const std::string &raw);

/** Invert escapeToken() into @p out. @return false when @p token is
 *  not something escapeToken() could have produced. */
bool unescapeToken(std::string_view token, std::string &out);

/** Canonical serialization of every ScenarioSpec field. */
std::string encodeSpec(const ScenarioSpec &spec);

/** Parse encodeSpec() bytes. @return false (and leave @p out
 *  untouched) on version mismatch or malformed input. */
bool decodeSpec(const std::string &bytes, ScenarioSpec &out);

/** Complete serialization of a ScenarioStats record. */
std::string encodeStats(const ScenarioStats &stats);

/** Parse encodeStats() bytes. @return false (and leave @p out
 *  untouched) on version mismatch or malformed input. */
bool decodeStats(const std::string &bytes, ScenarioStats &out);

} // namespace sweep
} // namespace mbus

#endif // MBUS_SWEEP_CODEC_HH
