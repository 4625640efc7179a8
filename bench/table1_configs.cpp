// Table I reproduction: prints the architectural parameter grid and checks
// that its cross product is exactly the 864 simulated configurations.
#include <cstdio>

#include "common/table.hpp"
#include "core/config_space.hpp"
#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;

  std::printf("Table I: simulation architectural parameters\n\n");

  TextTable caches({"Label", "L3 size/assoc/lat", "L2 size/assoc/lat"});
  for (const auto& label : core::ConfigSpace::cache_labels()) {
    core::MachineConfig c;
    c.cache_label = label;
    const auto h = c.cache_config(1);
    char l3[64], l2[64];
    std::snprintf(l3, sizeof l3, "%lluMB / %d / %d",
                  static_cast<unsigned long long>(h.l3.size_bytes >> 20),
                  h.l3.ways, h.l3.latency_cycles);
    std::snprintf(l2, sizeof l2, "%llukB / %d / %d",
                  static_cast<unsigned long long>(h.l2.size_bytes >> 10),
                  h.l2.ways, h.l2.latency_cycles);
    caches.row().cell(label).cell(l3).cell(l2);
  }
  std::printf("%s\n", caches.str().c_str());

  TextTable cores({"Core", "ROB", "Issue", "StoreBuf", "ALU/FPU", "IRF/FRF"});
  for (const auto& c : cpusim::core_presets()) {
    char fu[32], rf[32];
    std::snprintf(fu, sizeof fu, "%d / %d", c.alus, c.fpus);
    std::snprintf(rf, sizeof rf, "%d / %d", c.irf, c.frf);
    cores.row()
        .cell(c.label)
        .cell(static_cast<long long>(c.rob))
        .cell(static_cast<long long>(c.issue_width))
        .cell(static_cast<long long>(c.store_buffer))
        .cell(fu)
        .cell(rf);
  }
  std::printf("%s\n", cores.str().c_str());

  TextTable other({"Other param.", "Values"});
  other.row().cell("Frequency [GHz]").cell("1.5, 2.0, 2.5, 3.0");
  other.row().cell("Vector width [bits]").cell("128, 256, 512");
  other.row().cell("Memory [DDR4-2333]").cell("4-channel, 8-channel");
  other.row().cell("Number of Cores").cell("1, 32, 64");
  std::printf("%s\n", other.str().c_str());

  const auto space = core::ConfigSpace::full_space();
  std::printf("total simulated configurations per application: %zu\n",
              space.size());
  return space.size() == 864 ? 0 : 1;
}
