// Table II + Figure 11 reproduction: application-specific unconventional
// configurations — SP-MZ with 1024/2048-bit vectors (Vector+/Vector++) and
// LULESH with 16-channel DDR4 / HBM2 and narrow 64-bit FPUs (MEM+/MEM++),
// all at 64 cores / 2 GHz, compared against the best conventional point.
//
// Paper headline: Vector+ +13% performance at similar power; Vector++ +43%
// performance but 3.14x power and ~2.5x energy. MEM+ cuts energy 47% while
// gaining 7% performance; MEM++ (HBM) reaches 1.30x speed-up (no energy
// number — no public HBM power data; we follow the same convention).
#include <cstdio>

#include "apps/apps.hpp"
#include "common/table.hpp"
#include "core/config_space.hpp"
#include "core/pipeline.hpp"
#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;

  std::printf("Table II / Fig. 11: application-specific configurations\n\n");

  for (const std::string app_name : {"spmz", "lulesh"}) {
    const apps::AppModel& app = apps::find_app(app_name);
    const auto rows = core::ConfigSpace::unconventional(app_name);

    std::printf("--- %s ---\n", app_name.c_str());
    TextTable cfg({"Label", "Core OoO", "FP Unit", "Cache(L3:L2)", "Memory"});
    for (const auto& [label, config] : rows)
      cfg.row()
          .cell(label)
          .cell(config.core.label)
          .cell(std::to_string(config.vector_bits) + "-bit")
          .cell(config.cache_label)
          .cell(std::to_string(config.mem_channels) + "-ch " +
                dramsim::mem_tech_name(config.mem_tech));
    std::printf("%s\n", cfg.str().c_str());

    core::SimResult base;
    TextTable t({"Label", "Performance", "Power", "Energy"});
    bool first = true;
    for (const auto& [label, config] : rows) {
      const core::SimResult r = pipeline.run(app, config);
      if (first) base = r;
      const double perf = base.region_seconds / r.region_seconds;
      const double power = r.node_w / base.node_w;
      t.row().cell(label).cell(perf, 2);
      if (r.dram_power_known) {
        t.cell(power, 2);
        t.cell((r.node_w * r.region_seconds) /
                   (base.node_w * base.region_seconds),
               2);
      } else {
        t.cell("n/a (HBM)").cell("n/a (HBM)");
      }
      first = false;
    }
    std::printf("%s\n", t.str().c_str());
  }
  return 0;
}
