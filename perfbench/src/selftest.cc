// The benchmark's own tests, at reduced size: every check accepts a
// correct input and rejects a deliberately wrong one, and the mmap
// storage tier reproduces the RAM tier bit for bit on the
// pop-100k-mmap configuration. Exits non-zero when any test fails.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/simulation.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok    " : "FAILED", what.c_str());
  if (!ok) ++failures;
}

void TestBadRounds() {
  std::vector<pieck::RoundStats> rounds(3);
  for (pieck::RoundStats& s : rounds) {
    s.num_selected = 4;
    s.uploads_built = 4;
    s.mean_benign_loss = 0.7;
  }
  Expect(BadRounds(rounds, 4).empty(), "BadRounds accepts sound rounds");
  std::vector<pieck::RoundStats> wrong = rounds;
  wrong[1].uploads_built = 3;
  Expect(BadRounds(wrong, 4) == std::vector<int>{1},
         "BadRounds rejects a lost upload");
  wrong = rounds;
  wrong[2].mean_benign_loss = std::numeric_limits<double>::quiet_NaN();
  Expect(BadRounds(wrong, 4) == std::vector<int>{2},
         "BadRounds rejects a NaN loss");
  wrong = rounds;
  wrong[0].num_selected = 5;
  Expect(BadRounds(wrong, 4) == std::vector<int>{0},
         "BadRounds rejects a wrong cohort");
}

void TestHr() {
  Expect(HrBeatsRandom(0.11, 10, 99), "HrBeatsRandom accepts 11%");
  Expect(!HrBeatsRandom(0.10, 10, 99), "HrBeatsRandom rejects exactly 10%");
  Expect(!HrBeatsRandom(0.02, 10, 99), "HrBeatsRandom rejects 2%");
}

void TestErAudit() {
  // Items on a line: item j scores j * u for a user embedding (u, 0).
  pieck::Matrix items(6, 2);
  for (size_t j = 0; j < 6; ++j) {
    items.MutableRowPtr(j)[0] = static_cast<double>(j);
    items.MutableRowPtr(j)[1] = 0.0;
  }
  // User 0 prefers high ids, user 1 low ids, user 2 interacted with 3.
  pieck::Matrix users(3, 2);
  users.MutableRowPtr(0)[0] = 1.0;
  users.MutableRowPtr(1)[0] = -1.0;
  users.MutableRowPtr(2)[0] = 1.0;
  auto train = pieck::Dataset::FromInteractions(
      3, 6, {{0, 0}, {1, 5}, {2, 3}});
  Expect(train.ok(), "test dataset builds");
  const pieck::BenignEvalView view(&users);
  // Target 3, k = 2: user 0's top two are {5, 4} and user 1's {0, 1},
  // both misses; user 2 interacted with 3 and is excluded.
  ErAudit audit = BruteForceEr(items, view, *train, 3, 2);
  Expect(audit.denom == 2 && audit.hits == 0 && audit.ambiguous == 0,
         "BruteForceEr excludes interacted users and ranks by score");
  audit = BruteForceEr(items, view, *train, 4, 2);
  // Target 4: user 0 (top {5, 4}) hits, user 1 misses, user 2 ({5, 4})
  // hits.
  Expect(audit.denom == 3 && audit.hits == 2, "BruteForceEr counts hits");
  Expect(ErAgrees(2.0 / 3.0, audit), "ErAgrees accepts the exact ER");
  Expect(!ErAgrees(1.0 / 3.0, audit), "ErAgrees rejects a wrong ER");

  // A zero user embedding ties every item: the boundary is ambiguous,
  // and one disagreeing user is then tolerated.
  pieck::Matrix flat(1, 2);
  const pieck::BenignEvalView flat_view(&flat);
  auto one = pieck::Dataset::FromInteractions(1, 6, {{0, 0}});
  audit = BruteForceEr(items, flat_view, *one, 5, 2);
  Expect(audit.ambiguous == 1 && audit.hits == 0,
         "BruteForceEr breaks ties to the lower id and flags them");
  Expect(ErAgrees(1.0, audit), "ErAgrees tolerates a tied boundary");
}

/// FNV-1a over the raw bytes of `n` doubles, chained from `h`.
uint64_t Digest(const double* data, size_t n,
                uint64_t h = 1469598103934665603ull) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs `spec` round by round; returns the digest of the final item
/// table and every benign embedding, and the per-round losses.
uint64_t RunDigest(const JobSpec& spec, std::vector<double>* losses) {
  auto sim = pieck::Simulation::Create(spec.config);
  if (!sim.ok()) {
    Expect(false, "Simulation::Create: " + sim.status().ToString());
    return 0;
  }
  for (int r = 0; r < spec.config.rounds; ++r) {
    losses->push_back((*sim)->RunRound().mean_benign_loss);
  }
  const pieck::Matrix& items = (*sim)->global().item_embeddings;
  uint64_t h = Digest(items.RowPtr(0), items.rows() * items.cols());
  const pieck::BenignEvalView view = (*sim)->benign_eval_view();
  for (size_t i = 0; i < view.size(); ++i) {
    h = Digest(view.embedding(i), view.dim(), h);
  }
  return h;
}

void TestMmapMatchesRam() {
  const JobSpec mmap = Pop100kMmap(5, 2, /*small=*/true);
  JobSpec ram = mmap;
  ram.config.storage = pieck::StorageConfig();
  std::vector<double> mmap_losses, ram_losses, other_losses;
  const uint64_t a = RunDigest(mmap, &mmap_losses);
  const uint64_t b = RunDigest(ram, &ram_losses);
  Expect(a == b, "mmap and RAM storage give the same model digest");
  Expect(mmap_losses == ram_losses,
         "mmap and RAM storage give the same per-round losses");
  const uint64_t c = RunDigest(Pop100kMmap(6, 2, true), &other_losses);
  Expect(c != a, "the digest tells another seed's model apart");
}

void TestSmallJobs() {
  Tracer tracer(true);
  for (const JobSpec& spec :
       {Pop100kMmap(3, 2, true), Ml1mDefended(3, 2, true),
        Table4Cell(3, pieck::AttackKind::kPieckUea,
                   pieck::DefenseKind::kOurs)}) {
    JobResult result;
    std::string error;
    const bool ran = RunJob(spec, &tracer, &result, &error);
    Expect(ran, spec.name + " runs" + (ran ? "" : ": " + error));
    if (!ran) continue;
    for (const CheckResult& c : result.checks) {
      Expect(c.ok, spec.name + ": " + c.name + " (" + c.detail + ")");
    }
    Expect(result.attempted ==
                   spec.config.rounds + 2 * spec.eval_repeats &&
               result.failed == 0,
           spec.name + " counts its operations");
  }
  // Every span closed, and inside its parent.
  bool nested = !tracer.spans().empty();
  for (const Tracer::Span& s : tracer.spans()) {
    nested = nested && s.end_ns >= s.start_ns;
    if (s.parent >= 0) {
      const Tracer::Span& p = tracer.spans()[static_cast<size_t>(s.parent)];
      nested = nested && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns;
    }
  }
  Expect(nested, "spans are closed and nested in their parents");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestBadRounds();
  perfbench::TestHr();
  perfbench::TestErAudit();
  perfbench::TestMmapMatchesRam();
  perfbench::TestSmallJobs();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
