// Exporters for the observability subsystem (DESIGN.md §7e): Chrome
// trace_event JSON (loadable in Perfetto / chrome://tracing), a flat
// metrics.json snapshot, and the one-screen end-of-sweep summary table.
//
// Exports are best-effort observability artifacts, not crash-safe state:
// they use plain buffered writes, never the fsync'd journal machinery.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace musa::obs {

/// One event as a complete Chrome trace_event JSON object (no trailing
/// newline). `epoch_unix_us` is added to the event's relative timestamp.
std::string trace_event_json(const TraceEvent& ev,
                             std::uint64_t epoch_unix_us);

/// Writes a self-contained Chrome trace JSON: a process-name metadata event
/// followed by `events`. Perfetto and chrome://tracing load the result
/// directly. Throws SimError{io} on write failure.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::uint64_t epoch_unix_us,
                        const std::string& process_name);

/// Flat JSON snapshot of every registered metric:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// mean, p50, p95, p99}}}. Throws SimError{io} on write failure.
void write_metrics_json(const std::string& path, const MetricsSnapshot& snap);

/// One-screen, name-sorted text rendering of a snapshot (end-of-sweep
/// summary). Zero-valued counters are elided.
std::string summary_table(const MetricsSnapshot& snap);

}  // namespace musa::obs
