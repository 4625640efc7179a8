// Figure 8 reproduction: impact of DDR4 memory channel count (4 vs 8) on
// performance, power split and energy-to-solution.
//
// Paper headline: only LULESH (bandwidth-bound) gains — up to +60% at 64
// cores; doubling channels doubles DRAM power but costs only ~10% of node
// power; LULESH saves ~30% energy with 8 channels.
#include <cstdio>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  core::DseEngine dse(pipeline, bench::dse_cache_path());
  std::printf("Fig. 8: memory channel sweep (normalised to 4 channels)\n\n");
  bench::print_dimension_figure(
      dse, "channels", {"4ch-DDR4-2333", "8ch-DDR4-2333"}, "4ch-DDR4-2333");
  return 0;
}
