// Figure 1 reproduction: application runtime memory statistics — L1/L2/L3
// MPKI and giga-requests/s to main memory, for 32- and 64-core nodes at the
// Table I midpoint configuration. Paper values printed alongside.
#include <cstdio>

#include "apps/apps.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "fig_common.hpp"

namespace {
// Paper Fig. 1 values: {L1, L2, L3 MPKI, GMemReq/s} per app, 32c then 64c.
struct PaperRow {
  const char* app;
  double v32[4];
  double v64[4];
};
constexpr PaperRow kPaper[] = {
    {"hydro", {5.98, 1.78, 0.19, 0.02}, {6.00, 1.83, 0.19, 0.04}},
    {"spmz", {96.99, 22.26, 13.80, 0.48}, {96.99, 22.26, 13.80, 0.48}},
    {"btmz", {24.14, 1.86, 0.57, 0.11}, {24.17, 1.87, 0.68, 0.18}},
    {"spec3d", {43.32, 6.95, 4.81, 0.41}, {43.32, 6.95, 4.80, 0.41}},
    {"lulesh", {13.50, 4.61, 5.27, 0.51}, {13.44, 4.61, 5.58, 0.61}},
};
}  // namespace

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;

  std::printf(
      "Fig. 1: application runtime statistics (MPKI, GMemReq/s)\n"
      "config: medium OoO, 32M:256K caches, 2.0 GHz, 128-bit, 4ch DDR4\n\n");

  for (int cores : {32, 64}) {
    std::printf("--- %d cores x 256 ranks ---\n", cores);
    TextTable t({"app", "L1-MPKI", "L2-MPKI", "L3-MPKI", "GReq/s",
                 "paper L1", "paper L2", "paper L3", "paper GReq/s"});
    int i = 0;
    for (const auto& app : apps::registry()) {
      core::MachineConfig config;
      config.cores = cores;
      const core::SimResult r = pipeline.run(app, config);
      const double* p = cores == 32 ? kPaper[i].v32 : kPaper[i].v64;
      t.row()
          .cell(app.name)
          .cell(r.mpki_l1, 2)
          .cell(r.mpki_l2, 2)
          .cell(r.mpki_l3, 2)
          .cell(r.gmem_req_s, 2)
          .cell(p[0], 2)
          .cell(p[1], 2)
          .cell(p[2], 2)
          .cell(p[3], 2);
      ++i;
    }
    std::printf("%s\n", t.str().c_str());
  }
  return 0;
}
