// Node power & area report: McPAT-style breakdown of the four Table I core
// classes at three vector widths — power per component, silicon area, and
// the leakage share that makes idle cores expensive (the paper's §VII
// co-design conclusion).
#include <cstdio>

#include "apps/apps.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "fig_common.hpp"
#include "powersim/power.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;

  std::printf(
      "Node power & area report (64 cores, 2 GHz, 32M:256K, 4ch DDR4)\n\n");

  TextTable t({"core", "vector", "core mm2", "L2+L3 mm2", "leak W/core",
               "node W (btmz)", "node W (idle)"});
  core::Pipeline pipeline;
  const auto& app = apps::find_app("btmz");
  for (const auto& preset : cpusim::core_presets()) {
    for (int vec : {128, 512}) {
      core::MachineConfig config;
      config.core = preset;
      config.vector_bits = vec;
      config.cores = 64;
      const core::SimResult r = pipeline.run(app, config);

      const powersim::CorePower cp(preset, vec, 2.0);
      const powersim::CachePower gp(config.cache_config(64), 2.0);
      powersim::NodeActivity idle;
      idle.total_cores = 64;
      const double idle_w =
          cp.evaluate_w(idle) + gp.evaluate_w(idle);

      t.row()
          .cell(preset.label)
          .cell(std::to_string(vec) + "b")
          .cell(cp.core_area_mm2(), 1)
          .cell(gp.area_mm2(64), 0)
          .cell(cp.core_leakage_w(), 2)
          .cell(r.node_w, 1)
          .cell(idle_w, 1);
    }
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "The idle column is pure leakage: a node that schedules poorly (few\n"
      "busy cores) still burns that floor — the paper's argument that\n"
      "parallel efficiency is an energy problem, not just a speed one.\n");
  return 0;
}
