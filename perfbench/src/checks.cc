#include "checks.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

std::vector<int> BadRounds(const std::vector<pieck::RoundStats>& rounds,
                           int cohort) {
  std::vector<int> bad;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const pieck::RoundStats& s = rounds[r];
    if (s.num_selected != cohort || s.uploads_built != cohort ||
        !std::isfinite(s.mean_benign_loss)) {
      bad.push_back(static_cast<int>(r));
    }
  }
  return bad;
}

bool HrBeatsRandom(double hr, int k, int num_negatives) {
  return hr > static_cast<double>(k) / static_cast<double>(num_negatives + 1);
}

ErAudit BruteForceEr(const pieck::Matrix& items,
                     const pieck::BenignEvalView& users,
                     const pieck::Dataset& train, int target, int k) {
  ErAudit audit;
  const size_t num_items = items.rows();
  const size_t dim = items.cols();
  std::vector<char> seen(num_items, 0);
  std::vector<std::pair<double, int>> scored;
  scored.reserve(num_items);
  // Better first: higher score, then lower item id.
  auto better = [](const std::pair<double, int>& a,
                   const std::pair<double, int>& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  for (size_t i = 0; i < users.size(); ++i) {
    const int user = users.user_id(i);
    if (train.Interacted(user, target)) continue;
    ++audit.denom;
    const double* u = users.embedding(i);
    for (int j : train.ItemsOf(user)) seen[static_cast<size_t>(j)] = 1;
    scored.clear();
    for (size_t j = 0; j < num_items; ++j) {
      if (seen[j]) continue;
      const double* v = items.RowPtr(j);
      double s = 0.0;
      for (size_t d = 0; d < dim; ++d) s += u[d] * v[d];
      scored.emplace_back(s, static_cast<int>(j));
    }
    for (int j : train.ItemsOf(user)) seen[static_cast<size_t>(j)] = 0;

    const size_t keep = std::min(scored.size(), static_cast<size_t>(k) + 1);
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      better);
    const size_t top = std::min(scored.size(), static_cast<size_t>(k));
    for (size_t r = 0; r < top; ++r) {
      if (scored[r].second == target) {
        ++audit.hits;
        break;
      }
    }
    if (keep == static_cast<size_t>(k) + 1) {
      const double a = scored[top - 1].first;
      const double b = scored[top].first;
      if (std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(a))) ++audit.ambiguous;
    }
  }
  return audit;
}

bool ErAgrees(double program_er, const ErAudit& audit) {
  if (audit.denom == 0) return program_er == 0.0;
  const double program_hits =
      program_er * static_cast<double>(audit.denom);
  return std::fabs(program_hits - static_cast<double>(audit.hits)) <=
         static_cast<double>(audit.ambiguous) + 1e-6;
}

}  // namespace perfbench
