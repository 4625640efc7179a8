// Layer-by-layer probes: the benchmark calls each simulator layer directly,
// in the order core::Pipeline calls it, and times every call from outside.
// Nothing here reaches into src/ internals — only public classes — so the
// probes double as a fidelity check: their results must equal what
// Pipeline::run / run_burst produce for the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"

namespace bench {

/// One burst-mode what-if call: Pipeline::run_burst(app, cores, ranks).
struct BurstCall {
  const musa::apps::AppModel* app;
  int cores;
  int ranks;
};

/// Host cost of burst-mode calls, split by layer.
struct NetCost {
  std::vector<double> replay_ms;     // one DimemasEngine::replay per call
  std::uint64_t events = 0;          // burst-trace events replayed
  double replay_s = 0.0;
  std::uint64_t burst_gens = 0;      // apps::make_burst_trace calls
  double burst_gen_s = 0.0;
  std::uint64_t runtime_calls = 0;   // cpusim::RuntimeSim::run calls
  double runtime_s = 0.0;
};

/// Runs `calls` under one network configuration exactly as a fresh
/// Pipeline's run_burst would (regions and burst traces cached per
/// configuration), timing each layer call. Results are in call order.
std::vector<musa::core::BurstResult> direct_burst(
    const musa::core::PipelineOptions& options,
    const std::vector<BurstCall>& calls, NetCost* cost, SpanLog* spans);

/// Host cost of the kernel layers over the probed points.
struct KernelCost {
  std::uint64_t kgen_instrs = 0;  // instructions generated by KernelSource
  double kgen_s = 0.0;
  double region_s = 0.0;          // apps::make_region
  std::uint64_t warm_accesses = 0;  // MemHierarchy::access during warm-up
  double warm_s = 0.0;
  std::uint64_t fused_in = 0, fused_ops = 0;  // VectorFusion::next_block
  double fusion_s = 0.0;
  std::uint64_t core_instrs = 0;  // measured CoreModel::run
  double core_s = 0.0;
  std::uint64_t perfect_instrs = 0;  // perfect-memory CoreModel::run
  double perfect_s = 0.0;
  std::uint64_t l1_acc = 0, l1_miss = 0, l2_acc = 0, l2_miss = 0,
                l3_acc = 0, l3_miss = 0;
  std::uint64_t dram_requests = 0, dram_row_hits = 0;
  std::uint64_t runtime_calls = 0;
  double runtime_s = 0.0;
  std::uint64_t power_evals = 0;
  double power_s = 0.0;
  double kernel_stage_s = 0.0;  // stage.kernel_s of a no-memo Pipeline::run

  /// Summed timed calls that make up Pipeline's kernel stage (fusion runs
  /// inside CoreModel::run, so it is reported but not added again).
  double layer_sum_s() const {
    return kgen_s + region_s + warm_s + core_s + perfect_s + runtime_s;
  }
};

/// What the probe derived for one point, next to what Pipeline::run gave.
struct ProbedPoint {
  std::string key;
  double ipc = 0.0, mpki_l1 = 0.0, mpki_l2 = 0.0, mpki_l3 = 0.0;
  musa::core::SimResult pipeline;  // no-memo Pipeline::run of the point
};

/// Probes one sweep point layer by layer and runs it once more through a
/// fresh, memo-less Pipeline for the closure and fidelity checks.
ProbedPoint probe_point(const musa::apps::AppModel& app,
                        const musa::core::MachineConfig& config,
                        const musa::core::PipelineOptions& options,
                        KernelCost* cost, SpanLog* spans);

}  // namespace bench
