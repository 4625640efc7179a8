// Per-point containment executor shared by DseEngine::sweep and the DSE
// server's compute threads (src/serve).
//
// A sweep point is the unit of failure containment: one attempt runs the
// full pipeline under a cooperative wall-clock budget, verifies the result
// invariants, and journals either the result row or a quarantine (FAIL)
// record. Transient io-class errors retry in place with full-jitter
// exponential backoff; everything else quarantines (or, in fail-fast mode,
// cancels the sweep and rethrows). Batch sweeps and the server rely on the
// executor being *the same code*: a point computed by either journals
// byte-identical rows, which is what makes a resumed journal trustworthy
// and duplicate recomputation harmless.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/journal.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"

namespace musa::core {

/// Deterministic full-jitter fraction in [0, 1) for retry attempt
/// `attempt` of point `key`. Pure function of its arguments — chaos runs
/// under MUSA_FAULT reproduce the same sleep schedule — yet decorrelated
/// across keys and attempts, so N workers retrying a shared-file io
/// failure spread out instead of stampeding in lockstep.
double backoff_jitter(const std::string& key, int attempt);

class PointRunner {
 public:
  /// Both references must outlive the runner; `options` supplies the
  /// containment policy (verify, fail_fast, timeout, retry budget).
  PointRunner(const SweepPlan& plan, const SweepOptions& options);

  /// Runs plan point `idx` on `pipeline` with full containment. A good
  /// result is journaled into `journal` (when non-null) and/or stored into
  /// `slot` (when non-null); a contained failure appends a FAIL row and
  /// returns false. When quarantine is impossible (`fail_fast`, or no
  /// journal to quarantine into) the failure is fatal: `on_fatal` fires —
  /// the caller's chance to cancel its work queue — and the exception
  /// rethrows. Thread-safe; the success/retry tallies are atomic.
  bool run(Pipeline& pipeline, std::uint64_t idx, ResultJournal* journal,
           SimResult* slot, const std::function<void()>& on_fatal = {});

  /// Points that produced a good result, across all run() calls.
  std::uint64_t succeeded() const { return succeeded_.load(); }
  /// Extra attempts spent on io-class retries, across all run() calls.
  std::uint64_t io_retries() const { return io_retries_.load(); }

 private:
  const SweepPlan& plan_;
  const SweepOptions& options_;
  std::atomic<std::uint64_t> succeeded_{0};
  std::atomic<std::uint64_t> io_retries_{0};
};

}  // namespace musa::core
