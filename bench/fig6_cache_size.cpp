// Figure 6 reproduction: impact of L2/L3 cache sizing (Table I presets) on
// performance, power split and energy-to-solution.
//
// Paper headline: 96M:1M gives ~11% average speed-up at 64 cores (HYDRO
// +21% thanks to the 4x L2-MPKI drop at 512 kB); L2+L3 power grows to ~20%
// of the node at 96MB; energy savings ~5% (64M:512K), ~1% (96M:1M).
#include <cstdio>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  core::DseEngine dse(pipeline, bench::dse_cache_path());
  std::printf("Fig. 6: cache size sweep (normalised to 32M:256K)\n\n");
  bench::print_dimension_figure(
      dse, "cache", {"32M:256K", "64M:512K", "96M:1M"}, "32M:256K");
  return 0;
}
