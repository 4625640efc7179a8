// Dimemas-equivalent MPI replay engine.
//
// Replays the burst traces of all ranks against an abstract network model
// (latency + bandwidth with per-node output-link serialisation, eager /
// rendezvous point-to-point protocols, logarithmic-tree collectives with
// barrier semantics). Compute bursts are rescaled per region with factors
// obtained from detailed node simulation — this is exactly how MUSA stitches
// micro-architecture results into full-application, full-machine time
// (paper §II "Simulation").
//
// The engine replays a ReplayProgram (replay_program.hpp): the trace
// compiled once into flat steps with dense channel and region indices and
// the jitter draws precomputed, so callers that replay one trace under
// many options (the pipeline's what-ifs) compile it once and cache it.
// Replaying an AppTrace compiles it and replays the result.
//
// The engine is a multi-pass coroutine-style simulator: each rank advances
// until it blocks on an unmatched message or an incomplete collective, and
// is visited again only once a message, a collective completion or its
// sender's exit wakes it, in the order a scan of every rank would reach it
// (DESIGN.md §7j). The driver loops until all ranks drain; a pass that
// wakes nobody while ranks remain indicates an inconsistent trace and
// raises SimError.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/replay_program.hpp"
#include "netsim/topology.hpp"
#include "trace/burst.hpp"

namespace musa::netsim {

struct NetworkConfig {
  double latency_s = 1.5e-6;      // per-hop zero-byte latency
  double bandwidth_gbps = 12.0;   // per-link bandwidth (GB/s)
  std::uint64_t eager_threshold = 32 * 1024;  // rendezvous above this size
  Topology topology = Topology::kCrossbar;

  /// Point-to-point transfer time over `hops` network hops.
  double transfer_s(std::uint64_t bytes, int hops = 1) const {
    return latency_s * std::max(1, hops) +
           static_cast<double>(bytes) / (bandwidth_gbps * 1e9);
  }
};

struct ReplayOptions {
  /// Multiplies compute bursts of each region_id (default 1.0 when absent):
  /// simulated_region_time / reference_region_time from the node simulator.
  std::vector<double> region_scale;

  /// Stddev of per-(rank, burst) multiplicative noise on compute bursts.
  /// Models the *lumpiness* of node-level makespans: with few tasks per
  /// core, per-rank region durations vary run to run, and synchronising
  /// collectives turn that variance into wait time that grows with core
  /// count — the paper's main source of full-application efficiency loss
  /// (§V-A: "load imbalance across different MPI ranks in the presence of
  /// synchronization barriers"). Deterministic in (rank, burst index).
  double region_jitter_sigma = 0.0;

  bool record_timeline = false;
};

/// Per-rank activity segment for Fig. 4-style timelines.
struct RankSeg {
  enum class Kind : std::uint8_t { kCompute, kP2p, kCollective };
  int rank = 0;
  double start = 0.0;
  double end = 0.0;
  Kind kind = Kind::kCompute;
};

struct RankStats {
  double compute_s = 0.0;  // time in (rescaled) compute bursts
  double p2p_s = 0.0;      // time in point-to-point calls and waits
  double collective_s = 0.0;  // time blocked in Allreduce/Barrier
  double finish_s = 0.0;   // when the rank drained its trace
};

struct ReplayResult {
  double total_seconds = 0.0;  // max finish over ranks
  std::vector<RankStats> ranks;
  std::vector<RankSeg> timeline;  // only if options.record_timeline

  double total_compute() const {
    double acc = 0.0;
    for (const auto& r : ranks) acc += r.compute_s;
    return acc;
  }
  double total_mpi() const {
    double acc = 0.0;
    for (const auto& r : ranks) acc += r.p2p_s + r.collective_s;
    return acc;
  }
};

class DimemasEngine {
 public:
  explicit DimemasEngine(const NetworkConfig& config) : config_(config) {}

  ReplayResult replay(const ReplayProgram& program,
                      const ReplayOptions& options) const;

  /// Compiles `app` and replays it: the same result as replaying
  /// compile_replay(app).
  ReplayResult replay(const trace::AppTrace& app,
                      const ReplayOptions& options) const;

 private:
  NetworkConfig config_;
};

}  // namespace musa::netsim
