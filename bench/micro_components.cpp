// Component microbenchmarks (google-benchmark): throughput of every MUSA
// substrate in isolation — cache accesses, DRAM requests, vector fusion,
// the OoO core model, runtime scheduling, burst-trace generation, MPI
// replay-program compilation and replay, and PCA.
#include <benchmark/benchmark.h>

#include "analysis/pca.hpp"
#include "apps/apps.hpp"
#include "cachesim/hierarchy.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "cpusim/core_model.hpp"
#include "cpusim/runtime.hpp"
#include "dramsim/dram.hpp"
#include "isa/vector_fusion.hpp"
#include "netsim/dimemas.hpp"
#include "trace/kernel.hpp"

namespace {
using namespace musa;

void BM_CacheAccess(benchmark::State& state) {
  cachesim::Cache cache({.size_bytes = 256 * 1024, .ways = 8});
  Rng rng(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cache.access(rng.next_below(1 << 22) * 64, false).hit);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_HierarchyAccess(benchmark::State& state) {
  cachesim::MemHierarchy h(cachesim::cache_32m_256k(1));
  Rng rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        h.access(0, rng.next_below(1 << 24) * 64, false).level);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void BM_DramRequest(benchmark::State& state) {
  dramsim::DramSystem dram(dramsim::ddr4_2333(), state.range(0));
  double t = 0.0;
  Rng rng(3);
  for (auto _ : state) {
    t += 4.0;  // ~16 GB/s offered load
    benchmark::DoNotOptimize(dram.request(t, rng.next_below(1 << 26) * 64,
                                          rng.bernoulli(0.3)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRequest)->Arg(4)->Arg(8);

void BM_VectorFusion(benchmark::State& state) {
  const apps::AppModel& app = apps::find_app("spmz");
  for (auto _ : state) {
    trace::KernelSource src(app.kernel, 20000);
    isa::VectorFusion fusion(src, static_cast<int>(state.range(0)));
    isa::FusedInstr op;
    std::uint64_t n = 0;
    while (fusion.next(op)) ++n;
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.items_processed() + 20000);
  }
}
BENCHMARK(BM_VectorFusion)->Arg(128)->Arg(512)->Arg(2048);

void BM_CoreModel(benchmark::State& state) {
  const apps::AppModel& app = apps::find_app("hydro");
  for (auto _ : state) {
    cachesim::MemHierarchy h(cachesim::cache_32m_256k(1));
    dramsim::DramSystem dram(dramsim::ddr4_2333(), 4);
    cpusim::CoreModel core(cpusim::core_medium(), {2.0}, h, dram);
    trace::KernelSource src(app.kernel, 20000);
    benchmark::DoNotOptimize(core.run(src, {.vector_bits = 128}).cycles);
    state.SetItemsProcessed(state.items_processed() + 20000);
  }
}
BENCHMARK(BM_CoreModel);

void BM_RuntimeSchedule(benchmark::State& state) {
  const apps::AppModel& app = apps::find_app("hydro");
  const trace::Region region = apps::make_region(app);
  cpusim::RuntimeSim sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.run(region, {{.seconds_per_work = 1e-5}},
                {.cores = static_cast<int>(state.range(0)),
                 .dispatch_overhead_s = 100e-9})
            .seconds);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(region.tasks.size()));
  }
}
BENCHMARK(BM_RuntimeSchedule)->Arg(32)->Arg(64);

// Burst-trace generation, replay-program compilation and replay are the
// three layers of a burst-mode what-if; each is timed on its own. Items are
// trace events, so items/s reads as the per-event cost.
std::int64_t event_count(const trace::AppTrace& trace) {
  std::int64_t events = 0;
  for (const auto& rank : trace.ranks)
    events += static_cast<std::int64_t>(rank.events.size());
  return events;
}

void BM_BurstTraceGen(benchmark::State& state) {
  const apps::AppModel& app = apps::find_app("lulesh");
  const int ranks = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    const trace::AppTrace trace = apps::make_burst_trace(app, ranks);
    events = event_count(trace);
    benchmark::DoNotOptimize(trace.ranks.data());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_BurstTraceGen)->ArgName("ranks")->Arg(256)->Arg(2048);

void BM_MpiCompile(benchmark::State& state) {
  const trace::AppTrace trace = apps::make_burst_trace(
      apps::find_app("lulesh"), static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(netsim::compile_replay(trace).steps.data());
  state.SetItemsProcessed(state.iterations() * event_count(trace));
}
BENCHMARK(BM_MpiCompile)->ArgName("ranks")->Arg(256)->Arg(2048);

// Replays of one cached program, as the pipeline's what-ifs run them. The
// sigma > 0 case applies the per-burst jitter that run_burst uses at more
// than one core per rank.
void BM_MpiReplay(benchmark::State& state, netsim::Topology topology,
                  double sigma) {
  const trace::AppTrace trace = apps::make_burst_trace(
      apps::find_app("lulesh"), static_cast<int>(state.range(0)));
  const netsim::ReplayProgram program = netsim::compile_replay(trace);
  netsim::DimemasEngine net({.topology = topology});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.replay(program,
                   {.region_scale = {0.01}, .region_jitter_sigma = sigma})
            .total_seconds);
  }
  state.SetItemsProcessed(state.iterations() * event_count(trace));
}
BENCHMARK_CAPTURE(BM_MpiReplay, crossbar, netsim::Topology::kCrossbar, 0.0)
    ->ArgName("ranks")->Arg(256)->Arg(2048);
BENCHMARK_CAPTURE(BM_MpiReplay, crossbar_jitter, netsim::Topology::kCrossbar,
                  0.2)
    ->ArgName("ranks")->Arg(256)->Arg(2048);
BENCHMARK_CAPTURE(BM_MpiReplay, torus2d, netsim::Topology::kTorus2D, 0.0)
    ->ArgName("ranks")->Arg(256)->Arg(2048);

void BM_FullPipeline(benchmark::State& state) {
  const apps::AppModel& app = apps::find_app("btmz");
  core::Pipeline pipeline;
  core::MachineConfig config;
  config.cores = 64;
  for (auto _ : state)
    benchmark::DoNotOptimize(pipeline.run(app, config).wall_seconds);
}
BENCHMARK(BM_FullPipeline);

void BM_Pca(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::vector<double>> obs(72, std::vector<double>(5));
  for (auto& row : obs)
    for (auto& v : row) v = rng.next_double();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        analysis::pca(obs, {"a", "b", "c", "d", "e"}).explained_variance[0]);
}
BENCHMARK(BM_Pca);

}  // namespace

BENCHMARK_MAIN();
