// The MUSA multiscale simulation pipeline (the paper's contribution).
//
// For one (application, machine configuration) pair it chains every
// substrate, exactly mirroring §II "Simulation":
//
//   1. detailed mode — the application's sampled kernel trace runs through
//      the vector-fusion pass and the OoO core model against the configured
//      cache hierarchy and DRAM system, yielding per-task timing, stall
//      attribution and activity counters;
//   2. the simulated runtime system schedules the region's task instances
//      onto the configured number of cores (with dispatch overhead and
//      memory-bandwidth contention) → region duration at node level;
//   3. the Dimemas-style engine replays the 256-rank MPI burst trace with
//      compute bursts rescaled by (2) → application wall time;
//   4. the McPAT/DRAMPower-like models convert activity rates into the
//      paper's three power components and energy-to-solution.
//
// Burst mode ("hardware-agnostic", §V-A) runs steps 2–3 with task durations
// taken directly from the reference trace, skipping the microarchitecture.
//
// Reduced-scale caches: L2/L3 capacities *and* application working sets are
// co-scaled by 1/8 (L1 by 1/4) so that reuse distances fall inside the
// sampled trace window (DESIGN.md §8). Miss ratios and every capacity ratio
// the paper sweeps are preserved; Table I sizes are reported unscaled.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/apps.hpp"
#include "core/config_space.hpp"
#include "core/stage_memo.hpp"
#include "cpusim/runtime.hpp"
#include "dramsim/dram.hpp"
#include "isa/instr.hpp"
#include "netsim/dimemas.hpp"

namespace musa::core {

/// Everything one simulation point produces.
struct SimResult {
  std::string app;
  MachineConfig config;

  // Performance.
  double region_seconds = 0.0;  // compute region at node level
  double wall_seconds = 0.0;    // full application, 256 ranks
  double ipc = 0.0;             // single-core detailed IPC
  double avg_concurrency = 0.0;
  double busy_fraction = 0.0;
  double contention_factor = 1.0;

  // Memory profile (Fig. 1).
  double mpki_l1 = 0.0, mpki_l2 = 0.0, mpki_l3 = 0.0;
  double gmem_req_s = 0.0;  // node-level giga-requests/s to DRAM
  double mem_gbps = 0.0;    // achieved node DRAM bandwidth

  // Power/energy (Figs 5–9 b/c).
  double core_l1_w = 0.0;
  double l2_l3_w = 0.0;
  double dram_w = 0.0;
  bool dram_power_known = true;  // false for HBM (paper lacks data too)
  double node_w = 0.0;
  double energy_j = 0.0;  // node power × wall time
};

/// Burst-mode (hardware-agnostic) outcome for the scaling study (Fig. 2).
struct BurstResult {
  double region_seconds = 0.0;  // single compute region, node level
  double wall_seconds = 0.0;    // full parallel region incl. MPI
};

/// Wall-clock attribution of run() calls to pipeline stages, accumulated
/// per Pipeline instance; the DSE engine merges the per-worker totals into
/// its sweep report so throughput regressions are attributable to a stage.
struct StageTimes {
  double burst_s = 0.0;   // hardware-agnostic pre-pass (active-core estimate)
  double kernel_s = 0.0;  // detailed core/cache/DRAM simulation
  double replay_s = 0.0;  // machine-level MPI replay
  double power_s = 0.0;   // power/energy models
  std::uint64_t points = 0;  // full-pipeline simulations timed

  double total_s() const { return burst_s + kernel_s + replay_s + power_s; }
  void merge(const StageTimes& o) {
    burst_s += o.burst_s;
    kernel_s += o.kernel_s;
    replay_s += o.replay_s;
    power_s += o.power_s;
    points += o.points;
  }
};

struct PipelineOptions {
  std::uint64_t warm_instrs = 320'000;    // functional warm-up slice
  std::uint64_t measure_instrs = 256'000;  // measured detailed slice
  int cache_scale = 8;                    // reduced-scale factor (§8)
  double node_bw_efficiency = 0.63;       // usable fraction of peak DRAM BW
  netsim::NetworkConfig network;          // MareNostrum IV-like defaults
  std::uint64_t seed = 1;
  /// Force the core model's retained single-step reference path instead of
  /// the batched block replay. Results are bit-identical either way (the
  /// equivalence property tests prove it per core run; sweep_bench proves
  /// it on its sweep) — this knob exists so sweep_bench can measure the
  /// kernel stage against the reference. The reference is live by
  /// definition, so it also bypasses the memoized fused-op and cache-outcome
  /// halves of the measured run (DESIGN.md §7k). Deliberately excluded from
  /// the options fingerprint: memoized stage values do not depend on it.
  bool single_step_core = false;
};

/// Fingerprint of every option a memoized stage value depends on (seed,
/// slice sizes, cache scale, bandwidth efficiency — the network config only
/// affects the replay stage, which is never memoized). A StageMemo carries
/// the fingerprint it was built for and Pipeline refuses a mismatch.
std::uint64_t pipeline_options_fingerprint(const PipelineOptions& options);

class Pipeline {
 public:
  /// With a `memo`, the redundant stages (burst pre-pass, the measured
  /// run's fused ops and cache outcomes, cache warm-up state,
  /// perfect-memory run, region/trace building) are shared across every
  /// Pipeline attached to the same memo — bit-identical results, see
  /// stage_memo.hpp. Without one, every
  /// stage recomputes per point exactly as before (`run_dse --no-memo`).
  explicit Pipeline(PipelineOptions options = {},
                    std::shared_ptr<StageMemo> memo = nullptr);

  /// Full multiscale simulation of one design point.
  SimResult run(const apps::AppModel& app, const MachineConfig& config);

  /// Hardware-agnostic simulation (paper §V-A): task durations straight
  /// from the reference trace; optionally record timelines for Figs 3/4.
  BurstResult run_burst(const apps::AppModel& app, int cores, int ranks,
                        cpusim::NodeResult* node_out = nullptr,
                        netsim::ReplayResult* replay_out = nullptr);

  const PipelineOptions& options() const { return options_; }

  /// The attached stage memo (null when memoization is off).
  const std::shared_ptr<StageMemo>& memo() const { return memo_; }

  /// Cumulative per-stage wall time of every run() on this instance.
  const StageTimes& stage_times() const { return stage_times_; }
  void reset_stage_times() { stage_times_ = StageTimes{}; }

 private:
  struct DetailedTiming {
    cpusim::TaskTiming task;
    double ipc = 0.0;
    double mpki_l1 = 0.0, mpki_l2 = 0.0, mpki_l3 = 0.0;
    // Per scalar instruction, for node-level scaling.
    std::array<double, isa::kNumOpClasses> ops_per_instr{};
    std::array<double, isa::kNumOpClasses> lanes_per_instr{};
    double l1_acc_per_instr = 0.0, l2_acc_per_instr = 0.0,
           l3_acc_per_instr = 0.0;
    double dram_req_per_instr = 0.0;  // reads + write-backs
    dramsim::DramCounters dram_per_minstr;  // commands per 1e6 instrs
  };

  DetailedTiming simulate_kernel(const apps::AppModel& app,
                                 std::size_t phase_index,
                                 const apps::Phase& phase,
                                 const MachineConfig& config,
                                 double active_cores);

  const trace::Region& region_of(const apps::AppModel& app,
                                 std::size_t phase);
  const netsim::ReplayProgram& program_of(const apps::AppModel& app,
                                         int ranks);

  PipelineOptions options_;
  std::shared_ptr<StageMemo> memo_;
  StageTimes stage_times_;
  // Private per-instance caches used when no shared memo is attached,
  // keyed by (app fingerprint, phase/ranks) — no string building per call.
  // Burst traces are cached as their compiled replay programs.
  std::unordered_map<MemoKey, trace::Region, MemoKeyHash> regions_;
  std::unordered_map<MemoKey, netsim::ReplayProgram, MemoKeyHash> programs_;
};

}  // namespace musa::core
