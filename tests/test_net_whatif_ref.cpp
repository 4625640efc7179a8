// Burst-mode what-ifs against the benchmark's recorded reference.
//
// perfbench/net_whatif_ref.csv holds (region_s, wall_s) to 17 digits for
// 2880 Pipeline::run_burst calls: 5 apps × cores {1, 16, 32, 64} × ranks
// {256 .. 2048} × 4 topologies × bandwidth {6, 12, 25} GB/s × latency
// {0.5, 1.5, 5} µs. This test replays a stratified subset of it, so a
// change that moves an MPI replay result fails here and not only in the
// benchmark. The file is read, never written.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/pipeline.hpp"

namespace musa::core {
namespace {

/// key "app,cores,ranks,topology,bw_gbps,lat_us" -> "region_s,wall_s".
std::map<std::string, std::string> load_reference() {
  std::ifstream in(std::string(MUSA_SOURCE_DIR) +
                   "/perfbench/net_whatif_ref.csv");
  std::map<std::string, std::string> ref;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::size_t cut = 0;
    for (int i = 0; i < 6; ++i) cut = line.find(',', cut) + 1;
    ref.emplace(line.substr(0, cut - 1), line.substr(cut));
  }
  return ref;
}

TEST(NetWhatIfRef, StratifiedSubsetMatchesBenchmarkReference) {
  const std::map<std::string, std::string> ref = load_reference();
  ASSERT_EQ(ref.size(), 2880u) << "perfbench/net_whatif_ref.csv not read";

  // Every app, core count, rank count and topology, at the bandwidth and
  // latency extremes: 16 of the 36 networks, complete. One memo serves all
  // of them, as in a memoized sweep, so the replay program of each
  // (app, ranks) is compiled once and replayed 64 times.
  auto memo =
      std::make_shared<StageMemo>(pipeline_options_fingerprint({}));
  int checked = 0;
  for (const netsim::Topology topology :
       {netsim::Topology::kCrossbar, netsim::Topology::kBus,
        netsim::Topology::kTorus2D, netsim::Topology::kFatTree})
    for (const double bw : {6.0, 25.0})
      for (const double lat_us : {0.5, 5.0}) {
        PipelineOptions options;
        options.network.topology = topology;
        options.network.bandwidth_gbps = bw;
        options.network.latency_s = lat_us * 1e-6;
        Pipeline pipeline(options, memo);
        for (const apps::AppModel& app : apps::registry())
          for (const int cores : {1, 16, 32, 64})
            for (const int ranks : {256, 512, 1024, 2048}) {
              const BurstResult r = pipeline.run_burst(app, cores, ranks);
              char key[160], value[80];
              std::snprintf(key, sizeof key, "%s,%d,%d,%s,%g,%g",
                            app.name.c_str(), cores, ranks,
                            netsim::topology_name(topology), bw, lat_us);
              std::snprintf(value, sizeof value, "%.17g,%.17g",
                            r.region_seconds, r.wall_seconds);
              const auto it = ref.find(key);
              ASSERT_NE(it, ref.end()) << key;
              EXPECT_EQ(it->second, value) << key;
              ++checked;
            }
      }
  EXPECT_EQ(checked, 16 * 5 * 4 * 4);
}

}  // namespace
}  // namespace musa::core
