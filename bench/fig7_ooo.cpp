// Figure 7 reproduction: impact of core out-of-order capability (Table I
// presets) on performance, power split and energy-to-solution.
//
// Paper headline: low-end cores are ~35% slower (60% for Specfem3D);
// high/medium lose <5% (except Specfem3D) while consuming 18–20% less
// power than aggressive — the best perf/energy design points.
#include <cstdio>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  core::DseEngine dse(pipeline, bench::dse_cache_path());
  std::printf("Fig. 7: core OoO capability sweep (normalised to aggressive)\n\n");
  bench::print_dimension_figure(
      dse, "core", {"aggressive", "lowend", "high", "medium"}, "aggressive");
  return 0;
}
