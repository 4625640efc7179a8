// Shared plumbing for the figure-reproduction benches: argument check, DSE
// cache location and the three-panel (speedup / power split / energy)
// printer used by Figs 5–9, which all sweep one architectural dimension.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "common/table.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"

namespace musa::bench {

/// Figure and report binaries take no arguments: refuse any with a
/// one-line usage and exit 2, before a cache miss can start a full sweep
/// that writes dse_cache.csv into the working directory.
inline void expect_no_arguments(int argc, char** argv) {
  if (argc <= 1) return;
  std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
  std::exit(2);
}

/// DSE result cache shared by all figure benches (override with
/// MUSA_DSE_CACHE; the sweep runs once and is reused afterwards).
inline std::string dse_cache_path() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at bench startup,
  // before any worker threads exist.
  if (const char* env = std::getenv("MUSA_DSE_CACHE")) return env;
  return "dse_cache.csv";
}

/// The fixed 24-point sub-sweep shared by sweep_bench and `run_dse
/// --bench`: one app (hydro) across 4 core presets x 3 frequencies x 2
/// channel counts. Small enough for CI, wide enough to exercise every
/// pipeline stage — the chaos leg injects faults into exactly this space.
inline std::vector<core::MachineConfig> bench_space() {
  std::vector<core::MachineConfig> configs;
  for (const auto& core : cpusim::core_presets())
    for (double freq : {1.5, 2.0, 2.5})
      for (int channels : {4, 8}) {
        core::MachineConfig c;
        c.core = core;
        c.freq_ghz = freq;
        c.mem_channels = channels;
        configs.push_back(c);
      }
  return configs;
}

inline const char* bench_app() { return "hydro"; }

/// Prints the paper's three panels for one swept dimension:
///   (a) speed-up vs the baseline value (time_base / time),
///   (b) power split (Core+L1 / L2+L3 / Memory) normalised to baseline total,
///   (c) energy-to-solution normalised to baseline.
inline void print_dimension_figure(core::DseEngine& dse,
                                   const std::string& dimension,
                                   const std::vector<std::string>& values,
                                   const std::string& baseline) {
  for (int cores : {32, 64}) {
    std::printf("--- %d cores x 256 ranks ---\n\n", cores);

    std::vector<std::string> head = {"app"};
    for (const auto& v : values) head.push_back(v);
    TextTable sp(head), en(head);
    for (const auto& app : apps::registry()) {
      sp.row().cell(app.name);
      en.row().cell(app.name);
      for (const auto& v : values) {
        const core::NormStat t = dse.normalized_ratio(
            app.name, cores, dimension, v, baseline, core::metrics::region_time);
        const core::NormStat e =
            dse.normalized_ratio(app.name, cores, dimension, v, baseline,
                                 core::metrics::region_energy);
        sp.cell(t.mean > 0 ? 1.0 / t.mean : 0.0, 2);
        en.cell(e.mean, 2);
      }
    }
    std::printf("(a) speed-up, normalised to %s:\n%s\n", baseline.c_str(),
                sp.str().c_str());

    std::vector<std::string> phead = {"app", "component"};
    for (const auto& v : values) phead.push_back(v);
    TextTable pw(phead);
    for (const auto& app : apps::registry()) {
      const char* comp[3] = {"Core+L1", "L2+L3", "Memory"};
      std::vector<core::DseEngine::PowerSplit> splits;
      for (const auto& v : values)
        splits.push_back(
            dse.power_split(app.name, cores, dimension, v, baseline));
      for (int c = 0; c < 3; ++c) {
        pw.row().cell(c == 0 ? app.name : "").cell(comp[c]);
        for (const auto& s : splits)
          pw.cell(c == 0 ? s.core_l1 : c == 1 ? s.l2_l3 : s.dram, 2);
      }
    }
    std::printf("(b) power split, normalised to %s total:\n%s\n",
                baseline.c_str(), pw.str().c_str());
    std::printf("(c) energy-to-solution, normalised to %s:\n%s\n",
                baseline.c_str(), en.str().c_str());
  }
}

}  // namespace musa::bench
