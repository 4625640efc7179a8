#include "analysis/pareto.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace musa::analysis {

std::vector<CostPoint> pareto_front(std::vector<CostPoint> points) {
  if (points.empty()) return {};
  // Sort by x ascending, then y ascending: sweeping left to right, a point
  // is on the front iff its y is strictly below every y seen so far.
  std::sort(points.begin(), points.end(),
            [](const CostPoint& a, const CostPoint& b) {
              return a.x != b.x ? a.x < b.x : a.y < b.y;
            });
  std::vector<CostPoint> front;
  double best_y = std::numeric_limits<double>::infinity();
  for (const auto& p : points) {
    if (p.y < best_y) {
      front.push_back(p);
      best_y = p.y;
    }
  }
  return front;
}

double hypervolume(const std::vector<CostPoint>& front, double ref_x,
                   double ref_y) {
  if (front.empty()) return 0.0;
  // Front is sorted by ascending x / descending y (pareto_front output).
  double volume = 0.0;
  double prev_x = ref_x;
  for (auto it = front.rbegin(); it != front.rend(); ++it) {
    MUSA_CHECK_MSG(it->x <= ref_x && it->y <= ref_y,
                   "reference point must dominate no front point");
    volume += (prev_x - it->x) * (ref_y - it->y);
    prev_x = it->x;
  }
  return volume;
}

}  // namespace musa::analysis
