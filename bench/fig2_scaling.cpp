// Figure 2 reproduction: hardware-agnostic scaling of the five applications
// at 1/32/64 cores per node — (a) single compute region without MPI,
// (b) full parallel region including MPI overheads (256 ranks).
#include <cstdio>

#include "apps/apps.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  constexpr int kRanks = 256;

  std::printf("Fig. 2: hardware-agnostic scaling (speed-up vs 1 core)\n\n");

  TextTable ta({"app", "1c", "32c", "64c", "eff@32", "eff@64"});
  TextTable tb({"app", "1c", "32c", "64c", "eff@32", "eff@64"});
  double eff_a32 = 0, eff_a64 = 0, eff_b32 = 0, eff_b64 = 0;
  const int napps = static_cast<int>(apps::registry().size());

  for (const auto& app : apps::registry()) {
    const core::BurstResult r1 = pipeline.run_burst(app, 1, kRanks);
    const core::BurstResult r32 = pipeline.run_burst(app, 32, kRanks);
    const core::BurstResult r64 = pipeline.run_burst(app, 64, kRanks);

    const double a32 = r1.region_seconds / r32.region_seconds;
    const double a64 = r1.region_seconds / r64.region_seconds;
    ta.row().cell(app.name).cell(1.0, 1).cell(a32, 1).cell(a64, 1)
        .cell(100 * a32 / 32, 0).cell(100 * a64 / 64, 0);
    eff_a32 += a32 / 32;
    eff_a64 += a64 / 64;

    const double b32 = r1.wall_seconds / r32.wall_seconds;
    const double b64 = r1.wall_seconds / r64.wall_seconds;
    tb.row().cell(app.name).cell(1.0, 1).cell(b32, 1).cell(b64, 1)
        .cell(100 * b32 / 32, 0).cell(100 * b64 / 64, 0);
    eff_b32 += b32 / 32;
    eff_b64 += b64 / 64;
  }

  std::printf("(a) single compute region (no MPI):\n%s", ta.str().c_str());
  std::printf("average efficiency: %.0f%% @32, %.0f%% @64  (paper: ~70%%, ~50%%)\n\n",
              100 * eff_a32 / napps, 100 * eff_a64 / napps);
  std::printf("(b) full application incl. MPI (256 ranks):\n%s",
              tb.str().c_str());
  std::printf("average efficiency: %.0f%% @32, %.0f%% @64  (paper: 49%%, 28%%)\n",
              100 * eff_b32 / napps, 100 * eff_b64 / napps);
  return 0;
}
