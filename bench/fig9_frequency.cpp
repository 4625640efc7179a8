// Figure 9 reproduction: impact of CPU clock frequency (1.5–3.0 GHz, with
// 22 nm voltage scaling) on performance, power split and energy.
//
// Paper headline: near-linear performance scaling for all codes except
// HYDRO (runtime dispatch bottleneck above 2.5 GHz); 2x frequency costs
// ~2.5x node power.
#include <cstdio>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  core::DseEngine dse(pipeline, bench::dse_cache_path());
  std::printf("Fig. 9: frequency sweep (normalised to 1.5 GHz)\n\n");
  bench::print_dimension_figure(
      dse, "freq", {"1.5GHz", "2.0GHz", "2.5GHz", "3.0GHz"}, "1.5GHz");
  return 0;
}
