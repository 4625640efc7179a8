// Pareto-frontier extraction over simulation results — the decision layer
// a co-design study ends with: of 864 configurations, which are not
// dominated in the (execution time, energy) plane?
#pragma once

#include <cstddef>
#include <vector>

namespace musa::analysis {

/// A point in a minimisation problem: both coordinates are costs.
struct CostPoint {
  double x = 0.0;       // e.g. execution time
  double y = 0.0;       // e.g. energy to solution
  std::size_t tag = 0;  // caller's index into its own result set
};

/// Indices (tags) of the non-dominated points, sorted by ascending x.
/// A point is dominated if another point is <= in both coordinates and
/// strictly < in at least one.
std::vector<CostPoint> pareto_front(std::vector<CostPoint> points);

/// Hypervolume indicator of a front w.r.t. a reference (worst-corner)
/// point: the area dominated by the front. Larger = better frontier.
double hypervolume(const std::vector<CostPoint>& front, double ref_x,
                   double ref_y);

}  // namespace musa::analysis
