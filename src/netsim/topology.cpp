#include "netsim/topology.hpp"

#include "common/check.hpp"

namespace musa::netsim {

HopMetric::HopMetric(Topology topology, int nodes) : topology_(topology) {
  MUSA_CHECK_MSG(nodes >= 1, "topology needs at least one node");
  while (edge_ * edge_ < nodes) ++edge_;
  switch (topology) {
    case Topology::kCrossbar:
    case Topology::kBus:
      diameter_ = 1;
      break;
    case Topology::kTorus2D:
      diameter_ = std::max(1, 2 * (edge_ / 2));
      break;
    case Topology::kFatTree:
      diameter_ = nodes <= kFatTreeRadix ? 2 : 4;
      break;
  }
}

int hop_count(Topology topology, int src, int dst, int nodes) {
  const HopMetric metric(topology, nodes);
  MUSA_CHECK_MSG(src >= 0 && src < nodes && dst >= 0 && dst < nodes,
                 "rank out of range for topology");
  return metric.hops(src, dst);
}

int diameter(Topology topology, int nodes) {
  return HopMetric(topology, nodes).diameter();
}

}  // namespace musa::netsim
