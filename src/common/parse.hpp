// Strict field parsers for wire and journal text: full-consume,
// range-checked, no silent aliasing.
//
// std::atoi and an end-pointer-less strtoull both map garbage to 0 — which
// is a *valid* count, port, and attempt number everywhere this codebase
// uses integers, so a malformed field would silently alias record 0 instead of
// being rejected. These helpers follow the MUSA_THREADS env-parsing
// discipline (common/parallel.cpp): the whole string must be one decimal
// number, in range, with nothing before or after it. Anything else —
// empty, leading whitespace or '+', a stray suffix, overflow, a negative
// where none is allowed — parses to false and leaves the caller to apply
// its malformed-frame policy (babble-ignore on the wire, checksum-class
// drop in the journal).
#pragma once

#include <cstdint>
#include <string>

namespace musa {

/// Non-negative decimal u64. Rejects empty strings, any non-digit byte
/// (including leading whitespace, '+', '-', and trailing garbage) and
/// values above UINT64_MAX.
bool parse_u64(const std::string& s, std::uint64_t* out);

/// Decimal int with an optional leading '-'. Same full-consume contract;
/// rejects values outside [INT_MIN, INT_MAX].
bool parse_int(const std::string& s, int* out);

}  // namespace musa
