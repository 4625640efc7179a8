// Benchmarks the cross-point stage memoization (core/stage_memo.hpp) on a
// fixed 24-point sub-sweep and writes the measurements to BENCH_sweep.json,
// which CI uploads as an artifact so memo regressions show up as a number,
// not a feeling.
//
// The 24 points are one app (hydro) across 4 core presets x 3 frequencies
// x 2 channel counts — the shape the memo is built for: every point shares
// the trace-generation, burst, stream, and warm-up work, so the memoized
// sweep should pay the measured detailed run per point and little else.
//
// The bench runs the sweep four times — memo off, memo on, memo on with
// the span tracer armed, and memo on forced through the core model's
// single-step reference path — checks the result sets are byte-identical
// across all four (the memo's core contract; tracing and the batched block
// replay must never perturb results either), and reports wall time,
// points/s, the per-stage and worker-occupancy breakdown, the memo hit
// rates (fused-op stream, cache outcomes, warm state and the rest), the
// tracing overhead ratio (the DESIGN.md §7e budget: armed tracing within
// ~2% of untraced), and kernel_speedup — the kernel-stage time of the
// live single-step reference over the memoized block replay (DESIGN.md
// §7f, §7k).
//
// Usage: sweep_bench [--check-regression BASELINE.json] [output.json]
//   (output defaults to BENCH_sweep.json; --help prints usage, and any
//   other flag is a usage error, exit 2)
//
// With --check-regression, the memo run's points_per_s and kernel_s are
// compared against the named baseline (a previously committed
// BENCH_sweep.json): a >10% regression on either exits nonzero, so a CI
// leg can catch replay-path slowdowns as a number, not a feeling.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/dse.hpp"
#include "fig_common.hpp"
#include "obs/span.hpp"

namespace {

using musa::core::DseEngine;
using musa::core::MachineConfig;
using musa::core::MemoStats;
using musa::core::Pipeline;
using musa::core::StageTimes;
using musa::core::SweepOptions;
using musa::core::SweepReport;

struct Run {
  double wall_s = 0.0;
  SweepReport report;
  std::vector<std::string> rows;  // one to_row per point, plan order
};

/// Best-of-N timing: each repetition recomputes the sweep from scratch (a
/// fresh Pipeline and memo every time), and the fastest repetition is
/// reported — the standard way to keep scheduler noise out of the ratio.
constexpr int kReps = 3;

Run run_sweep(bool memoize, bool trace = false, bool single_step = false) {
  SweepOptions opts;
  opts.verbose = false;
  opts.memoize = memoize;
  opts.apps = {musa::bench::bench_app()};
  opts.configs = musa::bench::bench_space();

  Run r;
  for (int rep = 0; rep < kReps; ++rep) {
    if (trace) musa::obs::Tracer::install();  // re-install clears the ring
    Pipeline pipeline(musa::core::PipelineOptions{.single_step_core =
                                                      single_step});
    // No cache path: pure compute, no journal fsyncs in the timing.
    DseEngine dse(pipeline, "", opts);
    const auto t0 = std::chrono::steady_clock::now();
    dse.recompute();
    const auto t1 = std::chrono::steady_clock::now();

    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    if (rep > 0 && wall_s >= r.wall_s) continue;
    r.wall_s = wall_s;
    r.report = dse.report();
    r.rows.clear();
    for (const auto& res : dse.results()) {
      std::string joined;
      for (const auto& cell : DseEngine::to_row(res)) {
        if (!joined.empty()) joined += ',';
        joined += cell;
      }
      r.rows.push_back(std::move(joined));
    }
  }
  return r;
}

void json_stages(std::FILE* f, const StageTimes& st) {
  std::fprintf(f,
               "{\"burst_s\": %.6f, \"kernel_s\": %.6f, \"replay_s\": %.6f, "
               "\"power_s\": %.6f}",
               st.burst_s, st.kernel_s, st.replay_s, st.power_s);
}

void json_run(std::FILE* f, const char* name, const Run& r) {
  const double pps =
      r.wall_s > 0 ? static_cast<double>(r.report.computed) / r.wall_s : 0.0;
  // Worker occupancy: stage compute time over workers × compute-phase wall.
  // The gap is queue idle + journal/merge time — the tail the trace view
  // makes visible per worker.
  const double occupancy =
      r.report.workers > 0 && r.report.wall_s > 0.0
          ? r.report.stages.total_s() /
                (r.report.wall_s * static_cast<double>(r.report.workers))
          : 0.0;
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"wall_s\": %.4f,\n"
               "    \"points\": %llu,\n"
               "    \"points_per_s\": %.3f,\n"
               "    \"workers\": %d,\n"
               "    \"occupancy\": %.4f,\n"
               "    \"stages\": ",
               name, r.wall_s,
               static_cast<unsigned long long>(r.report.computed), pps,
               r.report.workers, occupancy);
  json_stages(f, r.report.stages);
  const MemoStats& m = r.report.memo;
  std::fprintf(
      f,
      ",\n    \"memo_hit_rate\": {\"burst\": %.4f, \"region\": %.4f, "
      "\"trace\": %.4f, \"stream\": %.4f, \"outcome\": %.4f, "
      "\"warm\": %.4f, \"perfect\": %.4f, \"overall\": %.4f}\n  }",
      MemoStats::rate(m.burst_hits, m.burst_misses),
      MemoStats::rate(m.region_hits, m.region_misses),
      MemoStats::rate(m.trace_hits, m.trace_misses),
      MemoStats::rate(m.stream_hits, m.stream_misses),
      MemoStats::rate(m.outcome_hits, m.outcome_misses),
      MemoStats::rate(m.warm_hits, m.warm_misses),
      MemoStats::rate(m.perfect_hits, m.perfect_misses),
      MemoStats::rate(m.total_hits(), m.total_misses()));
}

/// Pulls `points_per_s` and `stages.kernel_s` of the "memo" run out of a
/// BENCH_sweep.json written by this program. Plain string scanning — the
/// format is our own, flat, and covered by the identity checks above; a
/// JSON library for two numbers would be a dependency for nothing.
bool parse_baseline(const std::string& path, double& points_per_s,
                    double& kernel_s) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  // "no_memo" precedes "memo" but does not contain the quoted key.
  const std::size_t memo = text.find("\"memo\": {");
  if (memo == std::string::npos) return false;
  const auto field = [&](const char* key, double& out) {
    const std::string needle = std::string("\"") + key + "\": ";
    const std::size_t p = text.find(needle, memo);
    if (p == std::string::npos) return false;
    out = std::strtod(text.c_str() + p + needle.size(), nullptr);
    return true;
  };
  return field("points_per_s", points_per_s) && field("kernel_s", kernel_s);
}

/// The "serve" entry is owned by dse_loadtest, which merges it into this
/// file as the always-last key. Carry it across a rewrite so a batch re-run
/// does not erase the serving-latency numbers. Returns the flat
/// "{...}" object text, or "" when the file has none.
std::string read_serve_entry(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  const std::size_t start = text.find("\"serve\": {");
  if (start == std::string::npos) return {};
  const std::size_t open = text.find('{', start);
  const std::size_t close = text.find('}', open);
  if (close == std::string::npos) return {};
  return text.substr(open, close - open + 1);
}

constexpr const char* kUsage =
    "usage: sweep_bench [--check-regression BASELINE.json] [output.json]\n"
    "  output.json defaults to BENCH_sweep.json\n";

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sweep.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    }
    if (std::strcmp(argv[i], "--check-regression") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "sweep_bench: unknown or incomplete option '%s'\n%s",
                   argv[i], kUsage);
      return 2;
    } else {
      out_path = argv[i];
    }
  }
  double base_pps = 0.0, base_kernel_s = 0.0;
  if (!baseline_path.empty() &&
      !parse_baseline(baseline_path, base_pps, base_kernel_s)) {
    std::fprintf(stderr, "cannot parse baseline %s\n", baseline_path.c_str());
    return 1;
  }

  std::printf("sweep_bench: fixed 24-point sweep (hydro, 4 presets x 3 "
              "freqs x 2 channel counts)\n");
  const Run plain = run_sweep(/*memoize=*/false);
  std::printf("  no-memo: %6.2fs  (%.2f points/s)\n", plain.wall_s,
              plain.report.computed / plain.wall_s);
  const Run memo = run_sweep(/*memoize=*/true);
  std::printf("  memo:    %6.2fs  (%.2f points/s)\n", memo.wall_s,
              memo.report.computed / memo.wall_s);
  const Run traced = run_sweep(/*memoize=*/true, /*trace=*/true);
  const std::size_t trace_events = musa::obs::Tracer::drain().size();
  musa::obs::Tracer::shutdown();
  std::printf("  traced:  %6.2fs  (%.2f points/s, %zu events)\n",
              traced.wall_s, traced.report.computed / traced.wall_s,
              trace_events);
  const Run reference =
      run_sweep(/*memoize=*/true, /*trace=*/false, /*single_step=*/true);
  std::printf("  single-step reference: %6.2fs  (%.2f points/s)\n",
              reference.wall_s, reference.report.computed / reference.wall_s);

  // The memo is only a win if it is *free* in results: identical bytes.
  // The tracer must be invisible in results too — it only observes. And the
  // batched block replay is only an optimisation if the single-step
  // reference path produces the very same rows.
  if (plain.rows != memo.rows || memo.rows != traced.rows ||
      traced.rows != reference.rows) {
    std::fprintf(stderr,
                 "FAIL: sweep results differ across memo/tracing/replay "
                 "modes — staleness, observer-effect, or batching bug\n");
    return 1;
  }

  const double speedup = memo.wall_s > 0 ? plain.wall_s / memo.wall_s : 0.0;
  const double trace_overhead =
      memo.wall_s > 0 ? traced.wall_s / memo.wall_s : 0.0;
  // Kernel-stage time of the single-step reference over the memoized block
  // path — same results; the reference fuses and walks the caches live.
  const double kernel_speedup =
      memo.report.stages.kernel_s > 0
          ? reference.report.stages.kernel_s / memo.report.stages.kernel_s
          : 0.0;
  std::printf("  results byte-identical; speedup %.2fx, "
              "tracing overhead %.3fx, kernel_speedup %.2fx\n",
              speedup, trace_overhead, kernel_speedup);

  const std::string serve_entry = read_serve_entry(out_path);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  json_run(f, "no_memo", plain);
  std::fprintf(f, ",\n");
  json_run(f, "memo", memo);
  std::fprintf(f, ",\n");
  json_run(f, "traced", traced);
  std::fprintf(f, ",\n");
  json_run(f, "reference", reference);
  std::fprintf(f,
               ",\n  \"speedup\": %.3f,\n  \"trace_overhead\": %.4f,\n"
               "  \"kernel_speedup\": %.3f,\n"
               "  \"trace_events\": %zu,\n  \"identical\": true",
               speedup, trace_overhead, kernel_speedup, trace_events);
  if (!serve_entry.empty())
    std::fprintf(f, ",\n  \"serve\": %s", serve_entry.c_str());
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!baseline_path.empty()) {
    const double new_pps =
        memo.wall_s > 0
            ? static_cast<double>(memo.report.computed) / memo.wall_s
            : 0.0;
    const double new_kernel_s = memo.report.stages.kernel_s;
    std::printf("regression check vs %s: points/s %.2f -> %.2f, "
                "kernel_s %.4f -> %.4f\n",
                baseline_path.c_str(), base_pps, new_pps, base_kernel_s,
                new_kernel_s);
    bool failed = false;
    if (new_pps < 0.9 * base_pps) {
      std::fprintf(stderr,
                   "FAIL: memo throughput regressed >10%% "
                   "(%.2f -> %.2f points/s)\n",
                   base_pps, new_pps);
      failed = true;
    }
    if (new_kernel_s > 1.1 * base_kernel_s) {
      std::fprintf(stderr,
                   "FAIL: kernel stage regressed >10%% (%.4fs -> %.4fs)\n",
                   base_kernel_s, new_kernel_s);
      failed = true;
    }
    if (failed) return 1;
    std::printf("regression check passed\n");
  }
  return 0;
}
