// Figure 10 reproduction: Principal Component Analysis of the performance
// trade-offs between architectural parameters, for HYDRO and LULESH at
// 64 cores / 2 GHz (72 simulations each).
//
// Paper headline: for LULESH, PC0 is dominated by memory bandwidth evolving
// opposite to total cycles (cache size contributes moderately; OoO and SIMD
// not at all). For HYDRO, OoO capacity and cycles are the major, opposite
// PC0 contributors.
#include <cmath>
#include <cstdio>

#include "analysis/pca.hpp"
#include "common/table.hpp"
#include "fig_common.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;
  core::DseEngine dse(pipeline, bench::dse_cache_path());
  const auto& results = dse.results();

  std::printf("Fig. 10: PCA of architectural parameters vs execution time\n");
  std::printf("(64-core, 2 GHz simulations; 72 observations per app)\n\n");

  for (const std::string app : {"hydro", "lulesh"}) {
    std::vector<std::vector<double>> obs;
    for (const auto& r : results) {
      if (r.app != app || r.config.cores != 64 || r.config.freq_ghz != 2.0)
        continue;
      core::MachineConfig c;
      c.cache_label = r.config.cache_label;
      obs.push_back({r.config.core.ooo_capability(),
                     static_cast<double>(r.config.mem_channels),
                     static_cast<double>(r.config.vector_bits),
                     static_cast<double>(c.cache_config(1).l3.size_bytes),
                     r.region_seconds});
    }
    const analysis::PcaResult p = analysis::pca(
        obs, {"OoO struct.", "Mem. BW", "FPU", "Cache size", "Exec. time"});

    std::printf("--- %s (%zu observations) ---\n", app.c_str(), obs.size());
    TextTable t({"variable", "PC0 loading", "PC1 loading"});
    for (std::size_t v = 0; v < p.variables.size(); ++v)
      t.row()
          .cell(p.variables[v])
          .cell(p.components[0][v], 3)
          .cell(p.components[1][v], 3);
    std::printf("%s", t.str().c_str());
    std::printf("PC0 explains %.2f%% variance, PC1 explains %.2f%%\n\n",
                100 * p.explained_variance[0], 100 * p.explained_variance[1]);
  }
  return 0;
}
