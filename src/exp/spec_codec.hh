/**
 * @file
 * Canonical ExperimentSpec serialization and content addressing.
 *
 * serializeSpec() emits a stable, versioned, line-oriented text
 * encoding of everything a cell's simulation depends on — the full
 * SocConfig (including the DRAM population), the workload profile
 * phase by phase, governor name, measurement window, pinning
 * overrides, and RNG seed — plus the presentation-only id and
 * labels. parseSpec() inverts it exactly:
 *
 *     parseSpec(serializeSpec(s)) == s
 *
 * is a hard invariant for every serializable spec (the runtime-local
 * governorFactory hook is outside the encoding; isSerializableSpec()
 * reports whether a spec uses it).
 *
 * specKey() hashes the *canonical* form — the same encoding with the
 * id and label lines dropped, so renaming or relabeling a cell does
 * not change its identity — with FNV-1a/64 and returns 16 lowercase
 * hex digits. The format version line is part of the hashed text:
 * bumping kSpecFormatVersion invalidates every existing key, which
 * is exactly what a result cache keyed on specKey() needs when the
 * encoding (or the simulation semantics behind any encoded field)
 * changes. See docs/EXPERIMENTS.md for the versioning policy.
 */

#ifndef SYSSCALE_EXP_SPEC_CODEC_HH
#define SYSSCALE_EXP_SPEC_CODEC_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/experiment.hh"

namespace sysscale {
namespace exp {

/**
 * Encoding version. Bump whenever serializeSpec() changes shape OR
 * the meaning of an encoded field changes in the model, so stale
 * cache entries can never alias new cells.
 */
constexpr int kSpecFormatVersion = 6;

/** FNV-1a 64-bit hash (dependency-free content addressing). */
std::uint64_t fnv1a64(std::string_view data);

/**
 * Whether @p spec is fully captured by serializeSpec(): false when
 * it carries a governorFactory, which cannot be encoded (and
 * therefore must never be cached by content).
 */
bool isSerializableSpec(const ExperimentSpec &spec);

/** Versioned text encoding of @p spec (id and labels included). */
std::string serializeSpec(const ExperimentSpec &spec);

/**
 * Canonical encoding: serializeSpec() minus the presentation-only
 * lines (cell id, labels, pinned-op-point name — the fields spec
 * equality ignores too). Two cells with equal canonical text run
 * the identical simulation.
 */
std::string canonicalSpec(const ExperimentSpec &spec);

/**
 * Content key of @p spec: fnv1a64(canonicalSpec(spec)) as 16 lower-
 * case hex digits. Stable across processes, platforms, and runs.
 */
std::string specKey(const ExperimentSpec &spec);

/**
 * specKey() for a canonical text already produced by
 * canonicalSpec() — lets callers that need both the text and the
 * key serialize once.
 */
std::string specKeyForCanonical(std::string_view canonical);

/**
 * Invert serializeSpec(). Throws std::invalid_argument on any
 * malformed input: missing/garbled header, version mismatch,
 * unknown or duplicate keys, unparsable values, or field values a
 * spec cannot hold (e.g. residency fractions that do not sum to 1).
 */
ExperimentSpec parseSpec(const std::string &text);

} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_SPEC_CODEC_HH
