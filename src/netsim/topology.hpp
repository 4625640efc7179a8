// Network topologies for the replay engine.
//
// Dimemas models an abstract latency/bandwidth network; production machines
// differ mostly in *distance* (hop count) and shared-medium contention.
// This module adds the classical topologies so network sensitivity can be
// studied (the paper's related work — CODES — focuses on exactly this):
//
//   kCrossbar — non-blocking, every pair one hop (the paper's baseline,
//               MareNostrum-like fat network),
//   kBus      — single shared medium: all transfers serialise,
//   kTorus2D  — square 2-D torus, Manhattan-with-wraparound hop distance,
//   kFatTree  — two-level switch hierarchy of the given radix: 2 hops
//               inside a leaf switch, 4 hops across.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace musa::netsim {

enum class Topology : std::uint8_t { kCrossbar, kBus, kTorus2D, kFatTree };

constexpr const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kCrossbar: return "crossbar";
    case Topology::kBus: return "bus";
    case Topology::kTorus2D: return "torus2d";
    case Topology::kFatTree: return "fat-tree";
  }
  return "?";
}

/// Switch radix used by kFatTree leaf switches.
constexpr int kFatTreeRadix = 16;

/// Hop distances of one topology at one node count. The torus grid edge and
/// the diameter are computed once, at construction, so a per-message lookup
/// in the replay engine is a few integer operations. hops() does not
/// range-check its ranks; hop_count() does.
class HopMetric {
 public:
  HopMetric(Topology topology, int nodes);

  int hops(int src, int dst) const {
    if (src == dst) return 0;
    switch (topology_) {
      case Topology::kCrossbar:
      case Topology::kBus:
        return 1;
      case Topology::kTorus2D: {
        const int dx = torus_axis(src % edge_, dst % edge_);
        const int dy = torus_axis(src / edge_, dst / edge_);
        return std::max(1, dx + dy);
      }
      case Topology::kFatTree:
        return src / kFatTreeRadix == dst / kFatTreeRadix ? 2 : 4;
    }
    return 1;
  }

  /// Worst-case hops — used for collective cost scaling.
  int diameter() const { return diameter_; }

 private:
  int torus_axis(int a, int b) const {
    const int d = std::abs(a - b);
    return std::min(d, edge_ - d);
  }

  Topology topology_;
  int edge_ = 1;      // torus grid edge: smallest g with g*g >= nodes
  int diameter_ = 1;
};

/// Hop count between two ranks for a topology with P nodes.
int hop_count(Topology topology, int src, int dst, int nodes);

/// Network diameter (worst-case hops) — used for collective cost scaling.
int diameter(Topology topology, int nodes);

}  // namespace musa::netsim
