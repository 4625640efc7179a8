// Static design-space analysis: partition a SpaceAxes grid into
// all-feasible and all-infeasible boxes without visiting individual points.
//
// The engine classifies the full box with the abstract rules
// (absdomain.hpp); an undecided box is bisected along a dependency
// dimension of the first undecided rule and the halves recurse. Because
// every transfer function is exact on singleton boxes, the recursion always
// terminates with a partition whose per-point classification equals
// pointwise RuleSet::check() — the paper's 864-point grid is one feasible
// box, and a ≥10⁶-point extended grid resolves in hundreds of boxes, i.e.
// O(boxes · rules) work instead of O(points · rules).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config_space.hpp"
#include "verify/absdomain.hpp"

namespace musa::verify {

struct AnalysisOptions {
  /// Safety valve on the split recursion: exceeding it throws SimError
  /// (a correct rule catalogue stays far below — the bound exists so a
  /// buggy never-deciding transfer function cannot hang the analyzer).
  std::uint64_t max_boxes = 1u << 20;
};

enum class BoxClass : std::uint8_t { kFeasible, kInfeasible };

/// One leaf of the partition.
struct ClassifiedBox {
  Box box;
  BoxClass cls = BoxClass::kFeasible;
  std::string killing_rule;  // infeasible only: first violated rule id
  std::string detail;        // infeasible only: offending values
};

struct AnalysisReport {
  std::uint64_t total_points = 0;
  std::uint64_t feasible_points = 0;
  std::vector<ClassifiedBox> boxes;  // exact partition of the grid

  /// Points killed per rule id, in machine_rule_ids() order. Attribution is
  /// exact: a box is killed by rule R only when every earlier rule is
  /// satisfied box-wide, so these counts diff cleanly against a pointwise
  /// lint report keyed on first-violated rule.
  std::vector<std::pair<std::string, std::uint64_t>> kill_counts;

  /// Per dimension: which axis values appear in at least one feasible point.
  std::array<std::vector<bool>, core::SpaceAxes::kDims> dim_feasible;

  std::uint64_t boxes_classified = 0;  // classify_box calls (O(boxes))
  double wall_s = 0.0;

  double feasible_fraction() const {
    return total_points == 0
               ? 0.0
               : static_cast<double>(feasible_points) /
                     static_cast<double>(total_points);
  }
};

/// Partitions the grid. Cost is O(boxes · rules · Σ dim sizes); no term is
/// proportional to the point count.
AnalysisReport analyze(const core::SpaceAxes& axes, AnalysisOptions opts = {});

/// Classification of one point per the partition (linear scan over leaves;
/// meant for tests and spot queries, not bulk enumeration).
BoxClass classify_point(const AnalysisReport& report,
                        const std::array<int, core::SpaceAxes::kDims>& idx);

/// Row-major linear indices of every feasible point, sorted ascending — the
/// enumeration order of the grid, so a plan built from these matches the
/// order a pointwise enumeration would produce (for the paper axes:
/// ConfigSpace::full_space() order). O(feasible points), unavoidable for an
/// explicit plan, but with zero rule evaluations.
std::vector<std::uint64_t> feasible_indices(const core::SpaceAxes& axes,
                                            const AnalysisReport& report);

/// Exhaustive cross-check of the partition against pointwise
/// check_machine(): classification must match at every point, and for
/// infeasible points the box's killing rule must equal the first rule the
/// pointwise report names. O(points) — the CI agreement gate runs it on the
/// 864-point paper grid.
struct AgreementReport {
  std::uint64_t points = 0;
  std::uint64_t disagreements = 0;
  std::vector<std::string> examples;  // first few mismatches, for the log
};

AgreementReport check_agreement(const core::SpaceAxes& axes,
                                const AnalysisReport& report,
                                std::size_t max_examples = 8);

}  // namespace musa::verify
