// Error-handling helpers: invariant checks that throw instead of aborting so
// library users (and tests) can recover and report.
#pragma once

#include <stdexcept>
#include <string>

namespace musa {

/// Why a simulation failed — the key the sweep supervisor's containment
/// policy dispatches on (DESIGN.md "Failure model"). Transient classes
/// (`kIo`) are retried with backoff; deterministic ones (`kModel`,
/// `kInvariant`, `kConfig`) are quarantined on the first attempt, because a
/// deterministic simulator will fail the same way every time.
enum class ErrorClass {
  kConfig,     // invalid machine/sweep configuration (pre-simulation lint)
  kIo,         // filesystem / serialisation failure (possibly transient)
  kModel,      // simulator defect or unclassified exception
  kInvariant,  // physical-consistency violation on a fresh result
  kTimeout,    // per-point watchdog budget exceeded (common/deadline.hpp)
  kInjected,   // deterministic fault injection (verify/faultpoint.hpp)
};

/// Stable lowercase names ("config", "io", ...) — the journal's FAIL-row
/// encoding of the class, which `dse_lint --journal` checks.
inline const char* error_class_name(ErrorClass cls) {
  switch (cls) {
    case ErrorClass::kConfig: return "config";
    case ErrorClass::kIo: return "io";
    case ErrorClass::kModel: return "model";
    case ErrorClass::kInvariant: return "invariant";
    case ErrorClass::kTimeout: return "timeout";
    case ErrorClass::kInjected: return "injected";
  }
  return "model";
}

/// Inverse of error_class_name; unknown names map to kModel (a journal
/// written by a newer build must degrade, not crash the reader).
inline ErrorClass error_class_from_name(const std::string& name) {
  for (ErrorClass cls : {ErrorClass::kConfig, ErrorClass::kIo,
                         ErrorClass::kModel, ErrorClass::kInvariant,
                         ErrorClass::kTimeout, ErrorClass::kInjected})
    if (name == error_class_name(cls)) return cls;
  return ErrorClass::kModel;
}

/// Exception thrown when a simulation invariant or configuration constraint
/// is violated. All MUSA libraries report misuse through this type. Each
/// error carries an ErrorClass (so containment policy can key on *why* the
/// point died) and optionally the pipeline stage that raised it.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what,
                    ErrorClass cls = ErrorClass::kModel,
                    std::string stage = {})
      : std::runtime_error(what), cls_(cls), stage_(std::move(stage)) {}

  ErrorClass error_class() const { return cls_; }

  /// Pipeline stage that raised the error ("" when unknown; the sweep
  /// supervisor falls back to the thread's deadline stage marker).
  const std::string& stage() const { return stage_; }

 private:
  ErrorClass cls_;
  std::string stage_;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  throw SimError(std::string(file) + ":" + std::to_string(line) +
                 ": check failed: " + expr + (msg.empty() ? "" : " — " + msg));
}
}  // namespace detail

}  // namespace musa

/// Invariant check: throws musa::SimError on failure. Always enabled — these
/// guard configuration and trace-consistency errors, not hot inner loops.
#define MUSA_CHECK(expr)                                                 \
  do {                                                                   \
    if (!(expr))                                                         \
      ::musa::detail::check_failed(#expr, __FILE__, __LINE__, {});       \
  } while (0)

#define MUSA_CHECK_MSG(expr, msg)                                        \
  do {                                                                   \
    if (!(expr))                                                         \
      ::musa::detail::check_failed(#expr, __FILE__, __LINE__, (msg));    \
  } while (0)

/// Debug-only invariant check for hot inner loops (per-access, per-cycle
/// paths) where an always-on MUSA_CHECK would cost measurable throughput.
/// Enabled when MUSA_DCHECK_ENABLED is 1; by default that follows the build
/// type (on unless NDEBUG). Override from the build system with
/// -DMUSA_DCHECK_ENABLED=1 (the MUSA_DCHECK CMake option does this) to keep
/// the checks in optimized builds.
#ifndef MUSA_DCHECK_ENABLED
#ifdef NDEBUG
#define MUSA_DCHECK_ENABLED 0
#else
#define MUSA_DCHECK_ENABLED 1
#endif
#endif

#if MUSA_DCHECK_ENABLED
#define MUSA_DCHECK(expr) MUSA_CHECK(expr)
#define MUSA_DCHECK_MSG(expr, msg) MUSA_CHECK_MSG(expr, msg)
#else
// sizeof keeps `expr` syntactically alive (no unused-variable warnings)
// without evaluating it.
#define MUSA_DCHECK(expr) static_cast<void>(sizeof(!(expr)))
#define MUSA_DCHECK_MSG(expr, msg) static_cast<void>(sizeof(!(expr)))
#endif
