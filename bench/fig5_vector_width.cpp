// Figure 5 reproduction: impact of FPU vector width (128/256/512-bit) on
// performance, power split and energy-to-solution, averaged with the
// paper's pairwise normalisation over the rest of the design space.
//
// Paper headline: 512-bit gives +20% (HYDRO) to +75% (SP-MZ) speed-up,
// ~+40% average, except LULESH (short loops, no gain); ~+60% Core+L1 power;
// 256-bit saves 3–18% energy for all but LULESH.
#include <cstdio>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  core::DseEngine dse(pipeline, bench::dse_cache_path());
  std::printf("Fig. 5: FPU vector width sweep (normalised to 128-bit)\n\n");
  bench::print_dimension_figure(dse, "vector", {"128b", "256b", "512b"},
                                "128b");
  return 0;
}
