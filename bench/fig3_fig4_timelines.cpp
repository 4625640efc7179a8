// Figures 3 & 4 reproduction (Paraver-style timelines, ASCII rendition):
//   Fig. 3 — Specfem3D task occupancy on a 64-core node: most CPUs idle
//            because the region has too few tasks.
//   Fig. 4 — LULESH MPI phases across ranks: rank-level load imbalance fills
//            barriers/collectives with wait time.
#include <cstdio>

#include "analysis/timeline.hpp"
#include "apps/apps.hpp"
#include "core/pipeline.hpp"
#include "fig_common.hpp"
#include "verify/invariants.hpp"

int main(int argc, char** argv) {
  musa::bench::expect_no_arguments(argc, argv);
  using namespace musa;
  core::Pipeline pipeline;

  // --- Fig. 3: Specfem3D task timeline on 64 cores ---
  {
    const apps::AppModel& app = apps::find_app("spec3d");
    cpusim::NodeResult node;
    pipeline.run_burst(app, 64, /*ranks=*/1, &node, nullptr);
    verify::raise_if(verify::check_core_timeline(node.timeline, 64,
                                                 node.seconds, app.name));
    std::printf(
        "Fig. 3: Specfem3D task execution on a 64-core node\n"
        "('#' = task running, '.' = idle; low task parallelism leaves most "
        "CPUs idle)\n\n");
    std::printf("%s\n",
                analysis::render_core_timeline(node.timeline, 64,
                                               node.seconds)
                    .c_str());
  }

  // --- Fig. 4: LULESH MPI timeline across ranks ---
  {
    const apps::AppModel& app = apps::find_app("lulesh");
    netsim::ReplayResult replay;
    pipeline.run_burst(app, 64, /*ranks=*/64, nullptr, &replay);
    verify::raise_if(verify::check_rank_timeline(replay.timeline, 64,
                                                 replay.total_seconds,
                                                 app.name));
    std::printf(
        "Fig. 4: LULESH compute/MPI phases per rank (64 of 256 ranks "
        "rendered)\n"
        "('C' = compute, 'p' = point-to-point, 'B' = barrier/collective "
        "wait)\n\n");
    std::printf("%s\n", analysis::render_rank_timeline(
                            replay.timeline, 64, replay.total_seconds)
                            .c_str());
    std::printf(
        "MPI cost split: p2p transfer is minimal; imbalance-driven waits at "
        "collectives dominate (paper §V-A):\n");
    double p2p = 0, coll = 0;
    for (const auto& r : replay.ranks) {
      p2p += r.p2p_s;
      coll += r.collective_s;
    }
    std::printf("  total p2p time: %.3f s, total collective wait: %.3f s\n",
                p2p, coll);
  }
  return 0;
}
