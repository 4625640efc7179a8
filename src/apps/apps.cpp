#include "apps/apps.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace musa::apps {

namespace {

// ---------------------------------------------------------------------------
// HYDRO: Godunov-scheme compressible hydrodynamics. Compute-bound and cache
// friendly (Fig. 1: L1 6.0 / L2 1.8 / L3 0.2 MPKI); best-scaling code of the
// five (Fig. 2); working set per core fits in 512 kB L2 (4× L2-MPKI drop
// when upgrading from 256 kB, §V-B.2); moderately vectorisable (+20% at
// 512-bit); small tasks that expose the runtime dispatch bottleneck above
// 2.5 GHz (Fig. 9a).
// ---------------------------------------------------------------------------
AppModel make_hydro() {
  AppModel a;
  a.name = "hydro";
  a.kernel.name = "hydro_godunov";
  a.kernel.vec_body = {.loads = 2, .fp_add = 2, .fp_mul = 2, .stores = 1};
  a.kernel.vec_trip = 16;
  a.kernel.vec_ws_bytes = 24 * kKiB;  // L1-resident slice
  a.kernel.vec_stride = 8;
  a.kernel.scalar_tail = {.int_alu = 60, .int_mul = 4, .fp_add = 30,
                          .fp_mul = 30, .fp_div = 2, .loads = 60,
                          .stores = 25, .branches = 20};
  a.kernel.ilp_chains = 6;
  a.kernel.streams = {
      {.share = 0.133, .ws_bytes = 96 * kKiB, .stride = 8},   // L2-resident
      {.share = 0.090,
       .ws_bytes = 224 * kKiB,
       .stride = 8,
       .dependent = true},  // fits 512 kB L2 (serialising indirection)
      {.share = 0.006, .ws_bytes = 96 * kMiB, .stride = 8},   // DRAM stream
      {.share = 0.771, .ws_bytes = 24 * kKiB, .stride = 8},   // L1-resident
  };
  a.task_instrs = 96e3;  // small tasks: runtime-bound at high frequency
  a.tasks_per_region = 768;
  a.task_imbalance = 0.04;
  a.serial_segments = 0;
  a.ref_region_seconds = 12e-3;  // 768 × ~16 µs reference tasks
  a.iterations = 8;
  a.rank_imbalance = 0.015;
  a.p2p_neighbors = 2;
  a.p2p_bytes = 256 * 1024;
  a.allreduce = false;
  a.barrier = false;  // neighbour exchange only: no global sync pressure
  a.dispatch_overhead_s = 140e-9;  // binds above 2.5 GHz (Fig. 9a)
  return a;
}

// ---------------------------------------------------------------------------
// SP-MZ: NAS multi-zone scalar-pentadiagonal solver. Streaming access with
// very high L1 MPKI (Fig. 1: 97 / 22 / 13.8); the most vectorisable code
// (+75% at 512-bit, still gaining at 2048-bit in Table II); no serialised
// segments, but too few coarse zones to fill 64 cores (§V-A).
// ---------------------------------------------------------------------------
AppModel make_spmz() {
  AppModel a;
  a.name = "spmz";
  a.kernel.name = "spmz_sweep";
  a.kernel.vec_body = {.loads = 3, .fp_add = 3, .fp_mul = 3, .stores = 2};
  a.kernel.vec_trip = 64;  // long vector loops: fusable to 2048-bit
  a.kernel.vec_ws_bytes = 128 * kKiB;  // L2-resident streaming tiles
  a.kernel.vec_stride = 8;
  a.kernel.scalar_tail = {.int_alu = 20, .int_mul = 1, .fp_add = 8,
                          .fp_mul = 8, .fp_div = 1, .loads = 36,
                          .stores = 15, .branches = 6};
  a.kernel.ilp_chains = 6;
  a.kernel.load_use_prob = 0.15;  // streaming sweeps: few load-use chains
  a.kernel.streams = {
      // Line-strided (stride 64) streams: every access a new line.
      {.share = 0.350, .ws_bytes = 48 * kKiB, .stride = 64},   // L2 hit
      {.share = 0.160, .ws_bytes = 400 * kKiB, .stride = 64},  // L3 hit
      {.share = 0.050, .ws_bytes = 64 * kMiB, .stride = 64},   // DRAM
      {.share = 0.440, .ws_bytes = 24 * kKiB, .stride = 8},    // L1-resident
  };
  a.task_instrs = 600e3;  // coarse zones
  a.tasks_per_region = 80;
  a.task_imbalance = 0.30;  // zone sizes differ
  a.serial_segments = 0;
  a.ref_region_seconds = 28.8e-3;
  a.iterations = 8;
  a.rank_imbalance = 0.05;
  a.p2p_neighbors = 2;
  a.p2p_bytes = 1024 * 1024;
  a.allreduce = false;
  a.barrier = true;
  return a;
}

// ---------------------------------------------------------------------------
// BT-MZ: NAS multi-zone block-tridiagonal solver. Compute-intensive,
// moderate cache sensitivity (+9% with larger caches), serialised segments
// between sweeps (§V-A), moderate vectorisation.
// ---------------------------------------------------------------------------
AppModel make_btmz() {
  AppModel a;
  a.name = "btmz";
  a.kernel.name = "btmz_solve";
  a.kernel.vec_body = {.loads = 2, .fp_add = 3, .fp_mul = 3, .stores = 1};
  a.kernel.vec_trip = 24;
  a.kernel.vec_ws_bytes = 128 * kKiB;
  a.kernel.vec_stride = 8;
  a.kernel.scalar_tail = {.int_alu = 50, .int_mul = 3, .fp_add = 40,
                          .fp_mul = 40, .fp_div = 3, .loads = 65,
                          .stores = 25, .branches = 15};
  a.kernel.ilp_chains = 5;
  a.kernel.streams = {
      {.share = 0.020, .ws_bytes = 48 * kKiB, .stride = 64},   // L2 hit
      {.share = 0.012,
       .ws_bytes = 256 * kKiB,
       .stride = 64,
       .dependent = true},  // 512 kB-sensitive (serialising indirection)
      {.share = 0.004, .ws_bytes = 64 * kMiB, .stride = 64},   // DRAM
      {.share = 0.964, .ws_bytes = 26 * kKiB, .stride = 8},    // L1-resident
  };
  a.task_instrs = 400e3;
  a.tasks_per_region = 256;
  a.task_imbalance = 0.20;
  a.serial_segments = 3;       // inter-sweep serial sections
  a.serial_task_work = 1.0;
  a.ref_region_seconds = 51.2e-3;
  a.iterations = 8;
  a.rank_imbalance = 0.06;
  a.p2p_neighbors = 2;
  a.p2p_bytes = 384 * 1024;
  a.allreduce = false;
  a.barrier = true;
  return a;
}

// ---------------------------------------------------------------------------
// Specfem3D: spectral-element seismic wave propagation. Irregular
// (unstructured-mesh) access with long dependence chains — strongly
// OoO-sensitive (−60% on the low-end core, the only code > 5% slower on
// medium, §V-B.3); cache-size-insensitive; high per-core bandwidth demand
// that does not scale because only a handful of tasks exist (Fig. 3).
// ---------------------------------------------------------------------------
AppModel make_spec3d() {
  AppModel a;
  a.name = "spec3d";
  a.kernel.name = "spec3d_element";
  a.kernel.vec_body = {.loads = 3, .fp_add = 2, .fp_mul = 3, .stores = 1};
  a.kernel.vec_trip = 32;
  a.kernel.vec_ws_bytes = 96 * kKiB;  // element matrices: L2-resident
  a.kernel.vec_stride = 8;
  a.kernel.scalar_tail = {.int_alu = 55, .int_mul = 4, .fp_add = 35,
                          .fp_mul = 35, .fp_div = 2, .loads = 60,
                          .stores = 20, .branches = 14};
  a.kernel.ilp_chains = 1;  // serial update chains: latency-bound
  a.kernel.streams = {
      // Irregular (stride-0) gathers through the unstructured mesh.
      {.share = 0.050, .ws_bytes = 48 * kKiB, .stride = 0},   // L2 hit
      {.share = 0.020, .ws_bytes = 640 * kKiB, .stride = 0},  // L3 hit
      {.share = 0.020, .ws_bytes = 96 * kMiB, .stride = 0},   // DRAM
      {.share = 0.910, .ws_bytes = 24 * kKiB, .stride = 8},   // L1-resident
  };
  a.task_instrs = 2.4e6;  // very coarse tasks...
  a.tasks_per_region = 14;  // ...and far too few of them (Fig. 3)
  a.task_imbalance = 0.25;
  a.serial_segments = 0;
  a.ref_region_seconds = 28.8e-3;
  a.iterations = 8;
  a.rank_imbalance = 0.05;
  a.p2p_neighbors = 2;
  a.p2p_bytes = 192 * 1024;
  a.allreduce = true;
  a.allreduce_bytes = 64;
  a.barrier = false;
  return a;
}

// ---------------------------------------------------------------------------
// LULESH: unstructured shock hydrodynamics. Heavily memory-bandwidth-bound
// (the only code gaining from 8 channels: +60% at 64 cores, §V-B.4); short
// inner loops defeat the fusion model (no SIMD gain, §V-B.1); thread-level
// load imbalance limits 64-core scaling (§V-A) and rank-level imbalance
// fills MPI barriers (Fig. 4).
// ---------------------------------------------------------------------------
AppModel make_lulesh() {
  AppModel a;
  a.name = "lulesh";
  a.kernel.name = "lulesh_hourglass";
  a.kernel.vec_body = {.loads = 2, .fp_add = 1, .fp_mul = 1, .stores = 1};
  a.kernel.vec_trip = 3;  // short loops: groups never fill past 128-bit
  a.kernel.vec_ws_bytes = 24 * kKiB;  // L1-resident gather slice
  a.kernel.vec_stride = 8;
  a.kernel.scalar_tail = {.int_alu = 45, .int_mul = 3, .fp_add = 25,
                          .fp_mul = 25, .fp_div = 2, .loads = 40,
                          .stores = 20, .branches = 12};
  a.kernel.ilp_chains = 4;
  a.kernel.streams = {
      {.share = 0.040, .ws_bytes = 32 * kKiB, .stride = 8},    // L2 hit
      {.share = 0.005, .ws_bytes = 420 * kKiB, .stride = 64},  // L2-size-sens.
      {.share = 0.035, .ws_bytes = 256 * kMiB, .stride = 64},  // DRAM stream
      {.share = 0.920, .ws_bytes = 24 * kKiB, .stride = 8},    // L1-resident
  };
  a.task_instrs = 150e3;
  a.tasks_per_region = 72;
  a.task_imbalance = 0.35;  // thread load imbalance (§V-A)
  a.serial_segments = 0;
  a.ref_region_seconds = 24e-3;
  a.iterations = 8;
  a.rank_imbalance = 0.12;  // rank imbalance → barrier waits (Fig. 4)
  a.p2p_neighbors = 2;
  a.p2p_bytes = 768 * 1024;
  a.allreduce = true;  // global dt reduction every iteration
  a.allreduce_bytes = 8;
  a.barrier = true;
  return a;
}

}  // namespace

const std::vector<AppModel>& registry() {
  static const std::vector<AppModel> apps = {
      make_hydro(), make_spmz(), make_btmz(), make_spec3d(), make_lulesh()};
  return apps;
}

const AppModel& find_app(const std::string& name) {
  for (const auto& a : registry())
    if (a.name == name) return a;
  throw SimError("unknown application: " + name);
}

std::vector<Phase> AppModel::phases() const {
  std::vector<Phase> all;
  Phase primary;
  primary.name = name + "_main";
  primary.kernel = kernel;
  primary.task_instrs = task_instrs;
  primary.tasks_per_region = tasks_per_region;
  primary.task_imbalance = task_imbalance;
  primary.serial_segments = serial_segments;
  primary.serial_task_work = serial_task_work;
  primary.ref_region_seconds = ref_region_seconds;
  all.push_back(std::move(primary));
  all.insert(all.end(), extra_phases.begin(), extra_phases.end());
  return all;
}

trace::Region make_region(const Phase& phase, std::uint64_t seed) {
  MUSA_CHECK_MSG(phase.tasks_per_region > 0, "region needs tasks");
  trace::Region region;
  region.name = phase.name + "_region";
  Rng rng(seed ^ 0x9d2c'5680'1c3a'77f1ull);

  const int chunks = phase.serial_segments + 1;
  const int per_chunk =
      (phase.tasks_per_region + chunks - 1) / chunks;

  std::int32_t prev_serial = -1;  // index of the serial task gating a chunk
  int produced = 0;
  for (int c = 0; c < chunks && produced < phase.tasks_per_region; ++c) {
    std::vector<std::int32_t> chunk_tasks;
    const int count = std::min(per_chunk, phase.tasks_per_region - produced);
    for (int i = 0; i < count; ++i, ++produced) {
      trace::TaskInstance t;
      t.type = 0;
      t.work = std::max(0.15, rng.next_normal(1.0, phase.task_imbalance));
      if (prev_serial >= 0) t.deps.push_back(prev_serial);
      chunk_tasks.push_back(static_cast<std::int32_t>(region.tasks.size()));
      region.tasks.push_back(std::move(t));
    }
    if (c + 1 < chunks) {
      // Serial section: depends on the whole chunk, gates the next one.
      trace::TaskInstance s;
      s.type = 0;
      s.work = phase.serial_task_work;
      s.deps = chunk_tasks;
      prev_serial = static_cast<std::int32_t>(region.tasks.size());
      region.tasks.push_back(std::move(s));
    }
  }
  return region;
}

trace::Region make_region(const AppModel& app, std::uint64_t seed) {
  return make_region(app.phases().front(), seed);
}

trace::AppTrace make_burst_trace(const AppModel& app, int ranks,
                                 std::uint64_t seed) {
  MUSA_CHECK_MSG(ranks >= 1, "need at least one rank");
  trace::AppTrace trace;
  trace.app_name = app.name;
  trace.ranks.resize(ranks);

  // Static per-rank compute skew (domain decomposition imbalance) plus
  // per-iteration jitter.
  Rng rng(seed ^ 0xace1'2462'9d1e'4b2full);
  std::vector<double> rank_factor(ranks);
  for (int r = 0; r < ranks; ++r)
    rank_factor[r] = std::max(0.5, rng.next_normal(1.0, app.rank_imbalance));

  const std::vector<Phase> phases = app.phases();
  const bool p2p = ranks > 1 && app.p2p_neighbors >= 1;
  const std::size_t per_iteration =
      phases.size() + (p2p ? (app.p2p_neighbors >= 2 ? 8 : 4) : 0) +
      (ranks > 1 && app.allreduce) + (ranks > 1 && app.barrier);
  for (int r = 0; r < ranks; ++r) {
    trace.ranks[r].rank = r;
    auto& ev = trace.ranks[r].events;
    ev.reserve(per_iteration *
               static_cast<std::size_t>(std::max(0, app.iterations)));
    const int right = (r + 1) % ranks;
    const int left = (r + ranks - 1) % ranks;
    for (int it = 0; it < app.iterations; ++it) {
      for (std::size_t ph = 0; ph < phases.size(); ++ph) {
        const double jitter =
            std::max(0.7, rng.next_normal(1.0, app.rank_imbalance / 3));
        ev.push_back(trace::BurstEvent::compute(
            phases[ph].ref_region_seconds * rank_factor[r] * jitter,
            /*region=*/static_cast<int>(ph)));
      }
      if (p2p) {
        // Ring halo exchange with non-blocking pairs.
        ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kIrecv, left,
                                            app.p2p_bytes, /*req=*/0));
        ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kIsend, right,
                                            app.p2p_bytes, /*req=*/1));
        if (app.p2p_neighbors >= 2) {
          ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kIrecv, right,
                                              app.p2p_bytes, /*req=*/2));
          ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kIsend, left,
                                              app.p2p_bytes, /*req=*/3));
        }
        ev.push_back(
            trace::BurstEvent::mpi(trace::MpiOp::kWait, left, 0, /*req=*/0));
        ev.push_back(
            trace::BurstEvent::mpi(trace::MpiOp::kWait, right, 0, /*req=*/1));
        if (app.p2p_neighbors >= 2) {
          ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kWait, right, 0,
                                              /*req=*/2));
          ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kWait, left, 0,
                                              /*req=*/3));
        }
      }
      if (ranks > 1 && app.allreduce)
        ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kAllreduce, -1,
                                            app.allreduce_bytes));
      if (ranks > 1 && app.barrier)
        ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kBarrier, -1, 0));
    }
  }
  return trace;
}

}  // namespace musa::apps
