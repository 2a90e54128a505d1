// Correctness checks the benchmark makes apart from the program: each
// recomputes or bounds a result from public outputs only, so a wrong
// program output fails the run instead of being timed.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fed/client_state_store.h"
#include "fed/server.h"
#include "tensor/matrix.h"

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Rounds whose cohort is not `cohort` clients, whose uploads differ
/// from the cohort, or whose mean benign loss is not finite. Empty when
/// every round is sound.
std::vector<int> BadRounds(const std::vector<pieck::RoundStats>& rounds,
                           int cohort);

/// HR@k of random ranking against `num_negatives` sampled negatives is
/// k / (num_negatives + 1); a trained model must beat it.
bool HrBeatsRandom(double hr, int k, int num_negatives);

/// ER@k of one target recomputed by brute force: plain MF dot products
/// against every item the user has not interacted with, ranked by
/// score (ties to the lower item id). `ambiguous` counts users whose
/// k-th and (k+1)-th scores tie within rounding, where the program's
/// blocked kernels may order the boundary differently.
struct ErAudit {
  int64_t hits = 0;
  int64_t denom = 0;
  int64_t ambiguous = 0;
  double er() const {
    return denom > 0 ? static_cast<double>(hits) / static_cast<double>(denom)
                     : 0.0;
  }
};
ErAudit BruteForceEr(const pieck::Matrix& items,
                     const pieck::BenignEvalView& users,
                     const pieck::Dataset& train, int target, int k);

/// True when the program's ER equals the audit's up to the ambiguous
/// users.
bool ErAgrees(double program_er, const ErAudit& audit);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
