// Integration tests: run the full multiscale pipeline end-to-end and check
// that the paper's qualitative findings hold as invariants. These use a
// reduced trace window and few MPI ranks, so they run in seconds.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/apps.hpp"
#include "core/config_space.hpp"
#include "core/pipeline.hpp"

namespace musa::core {
namespace {

PipelineOptions fast_options() {
  PipelineOptions o;
  o.warm_instrs = 80'000;
  o.measure_instrs = 64'000;
  return o;
}

MachineConfig base_config(int cores = 64) {
  MachineConfig c;
  c.cores = cores;
  c.ranks = 16;
  return c;
}

class PipelineFixture : public ::testing::Test {
 protected:
  Pipeline pipeline{fast_options()};

  SimResult run(const std::string& app, MachineConfig config) {
    return pipeline.run(apps::find_app(app), config);
  }
};

TEST_F(PipelineFixture, HydroScalesBestInBurstMode) {
  // Paper §V-A: HYDRO is the only app above 75% efficiency at 64 cores.
  double hydro_eff = 0.0;
  for (const auto& app : apps::registry()) {
    const BurstResult serial = pipeline.run_burst(app, 1, 4);
    const BurstResult par = pipeline.run_burst(app, 64, 4);
    const double eff = serial.region_seconds / par.region_seconds / 64.0;
    if (app.name == "hydro") {
      hydro_eff = eff;
      EXPECT_GT(eff, 0.75) << app.name;
    } else {
      EXPECT_LT(eff, 0.75) << app.name;
    }
  }
  EXPECT_GT(hydro_eff, 0.0);
}

TEST_F(PipelineFixture, MpiOverheadsReduceEfficiency) {
  // Fig. 2b lies below Fig. 2a for every application.
  for (const auto& app : apps::registry()) {
    const BurstResult serial = pipeline.run_burst(app, 1, 16);
    const BurstResult par = pipeline.run_burst(app, 64, 16);
    const double region_speedup = serial.region_seconds / par.region_seconds;
    const double wall_speedup = serial.wall_seconds / par.wall_seconds;
    EXPECT_LE(wall_speedup, region_speedup * 1.05) << app.name;
  }
}

TEST_F(PipelineFixture, WideVectorsHelpSpmzNotLulesh) {
  // Paper Fig. 5a: SP-MZ gains most from 512-bit units; LULESH gains none.
  MachineConfig narrow = base_config();
  MachineConfig wide = base_config();
  wide.vector_bits = 512;
  const double spmz_gain = run("spmz", narrow).region_seconds /
                           run("spmz", wide).region_seconds;
  const double lulesh_gain = run("lulesh", narrow).region_seconds /
                             run("lulesh", wide).region_seconds;
  EXPECT_GT(spmz_gain, 1.3);
  EXPECT_LT(lulesh_gain, 1.1);
  EXPECT_GT(spmz_gain, lulesh_gain);
}

TEST_F(PipelineFixture, OnlyLuleshGainsFromEightChannels) {
  // Paper Fig. 8a / §V-B.4.
  MachineConfig ch4 = base_config();
  MachineConfig ch8 = base_config();
  ch8.mem_channels = 8;
  const double lulesh_gain = run("lulesh", ch4).region_seconds /
                             run("lulesh", ch8).region_seconds;
  EXPECT_GT(lulesh_gain, 1.15);
  for (const std::string app : {"hydro", "btmz", "spec3d"}) {
    const double gain =
        run(app, ch4).region_seconds / run(app, ch8).region_seconds;
    EXPECT_LT(gain, 1.08) << app;
  }
}

TEST_F(PipelineFixture, LowEndCoresAreMuchSlower) {
  // Paper Fig. 7a: low-end ~35%+ slower than aggressive.
  MachineConfig lowend = base_config();
  lowend.core = cpusim::core_low_end();
  MachineConfig aggressive = base_config();
  aggressive.core = cpusim::core_aggressive();
  for (const std::string app : {"hydro", "spec3d", "btmz"}) {
    const double slowdown = run(app, lowend).region_seconds /
                            run(app, aggressive).region_seconds;
    EXPECT_GT(slowdown, 1.3) << app;
  }
}

TEST_F(PipelineFixture, MediumCoresAreCloseToAggressive) {
  // Paper §V-B.3: intermediate OoO configs lose little performance while
  // consuming substantially less power.
  MachineConfig medium = base_config();
  medium.core = cpusim::core_medium();
  MachineConfig aggressive = base_config();
  aggressive.core = cpusim::core_aggressive();
  const SimResult med = run("lulesh", medium);
  const SimResult agg = run("lulesh", aggressive);
  EXPECT_LT(med.region_seconds / agg.region_seconds, 1.15);
  EXPECT_LT(med.core_l1_w, agg.core_l1_w);
}

TEST_F(PipelineFixture, HydroWorkingSetFitsIn512kL2) {
  // Paper §V-B.2: L2-MPKI drops ~4x when L2 grows 256 kB -> 512 kB.
  // HYDRO's 512 kB-sensitive stream has a long reuse distance, so this
  // check needs the full-size trace window.
  Pipeline full;  // default (production) window
  MachineConfig small = base_config();
  MachineConfig big = base_config();
  big.cache_label = "64M:512K";
  const SimResult s = full.run(apps::find_app("hydro"), small);
  const SimResult b = full.run(apps::find_app("hydro"), big);
  EXPECT_GT(s.mpki_l2 / b.mpki_l2, 3.0);
  EXPECT_LT(b.region_seconds, s.region_seconds);
}

TEST_F(PipelineFixture, Spec3dIsCacheInsensitive) {
  MachineConfig small = base_config();
  MachineConfig big = base_config();
  big.cache_label = "96M:1M";
  const double gain = run("spec3d", small).region_seconds /
                      run("spec3d", big).region_seconds;
  EXPECT_NEAR(gain, 1.0, 0.06);
}

TEST_F(PipelineFixture, FrequencyScalesAllButMemoryBound) {
  MachineConfig slow = base_config();
  slow.freq_ghz = 1.5;
  MachineConfig fast = base_config();
  fast.freq_ghz = 3.0;
  const double btmz_gain =
      run("btmz", slow).region_seconds / run("btmz", fast).region_seconds;
  const double lulesh_gain = run("lulesh", slow).region_seconds /
                             run("lulesh", fast).region_seconds;
  EXPECT_GT(btmz_gain, 1.6);   // near-linear
  EXPECT_LT(lulesh_gain, 1.3); // bandwidth wall
}

TEST_F(PipelineFixture, FrequencyRaisesPowerSuperlinearly) {
  MachineConfig slow = base_config();
  slow.freq_ghz = 1.5;
  MachineConfig fast = base_config();
  fast.freq_ghz = 3.0;
  const SimResult s = run("btmz", slow);
  const SimResult f = run("btmz", fast);
  const double perf = s.region_seconds / f.region_seconds;
  const double power = f.node_w / s.node_w;
  EXPECT_GT(power, perf);  // paper: +1% perf costs +1.25% power
}

TEST_F(PipelineFixture, EightChannelsCostAboutTenPercentNodePower) {
  MachineConfig ch4 = base_config();
  MachineConfig ch8 = base_config();
  ch8.mem_channels = 8;
  const SimResult a = run("btmz", ch4);
  const SimResult b = run("btmz", ch8);
  EXPECT_GT(b.dram_w / a.dram_w, 1.5);  // ~2x DRAM power (background-bound)
  EXPECT_LT(b.dram_w / a.dram_w, 2.1);
  EXPECT_LT(b.node_w / a.node_w, 1.25);  // but modest node impact
}

TEST_F(PipelineFixture, IdleCoresWasteLeakage) {
  // Spec3D leaves most of a 64-core node idle: node power per unit of
  // busy work is far worse than for HYDRO (the paper's co-design message).
  const SimResult spec = run("spec3d", base_config());
  const SimResult hydro = run("hydro", base_config());
  EXPECT_LT(spec.busy_fraction, 0.4);
  EXPECT_GT(hydro.busy_fraction, 0.7);
}

TEST_F(PipelineFixture, Spec3dMostOooSensitiveAmongMedium) {
  MachineConfig medium = base_config();
  medium.core = cpusim::core_medium();
  MachineConfig aggressive = base_config();
  aggressive.core = cpusim::core_aggressive();
  const double spec_ratio = run("spec3d", medium).region_seconds /
                            run("spec3d", aggressive).region_seconds;
  const double hydro_ratio = run("hydro", medium).region_seconds /
                             run("hydro", aggressive).region_seconds;
  EXPECT_GT(spec_ratio, hydro_ratio * 0.99);
}

// The app name is a std::string, not a const char*, so the printed
// parameter (and with it the discovered test name) holds no pointer
// address that changes from build to build.
class EveryAppEveryCoreCount
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EveryAppEveryCoreCount, PipelineIsDeterministic) {
  const auto [app_name, cores] = GetParam();
  PipelineOptions o;
  o.warm_instrs = 40'000;
  o.measure_instrs = 24'000;
  Pipeline p1(o), p2(o);
  MachineConfig c;
  c.cores = cores;
  c.ranks = 8;
  const SimResult a = p1.run(apps::find_app(app_name), c);
  const SimResult b = p2.run(apps::find_app(app_name), c);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_DOUBLE_EQ(a.node_w, b.node_w);
  EXPECT_DOUBLE_EQ(a.mpki_l1, b.mpki_l1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EveryAppEveryCoreCount,
    ::testing::Combine(::testing::Values(std::string("hydro"),
                                         std::string("spmz"),
                                         std::string("btmz"),
                                         std::string("spec3d"),
                                         std::string("lulesh")),
                       ::testing::Values(1, 32, 64)));

}  // namespace
}  // namespace musa::core
