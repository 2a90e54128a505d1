// The benchmark's in-process workloads, driven only through the
// program's public surfaces (ExperimentConfig, Simulation, the data
// generator and the metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "core/experiment_config.h"
#include "fed/server.h"
#include "storage/storage.h"
#include "trace.h"

namespace perfbench {

/// One fixed job: `setup_repeats` timed Simulation::Create calls (the
/// last simulation is kept), `config.rounds` timed RunRound calls, then
/// `eval_repeats` timed ER@10 + HR@10 evaluations and the checks.
/// Repeats make the medians of short timings steady; they cost little.
struct JobSpec {
  std::string name;
  pieck::ExperimentConfig config;
  int setup_repeats = 3;
  int eval_repeats = 1;
  /// Recompute ER@10 by brute force and compare (ml1m-defended).
  bool audit_er = false;
  /// Require HR@10 above random ranking. Table IV cells leave this to
  /// the table checks, which expect it of the undefended row only.
  bool check_hr = true;
};

/// `ml1m-defended`: full ML-1M size, PIECK-UEA at p~=5% against the
/// paper's defense, RAM storage. `small` shrinks it for the self-tests.
JobSpec Ml1mDefended(uint64_t seed, int threads, bool small);

/// `pop-100k-mmap`: 100k users x 50k items, no attack or defense, mmap
/// storage with the pread-batch engine and a 16,384-row hot-row cache.
JobSpec Pop100kMmap(uint64_t seed, int threads, bool small);

/// One cell of the Table IV binary's MF half, configured as
/// `bench_table4_defenses --skip-dl --seed <seed>` configures it.
JobSpec Table4Cell(uint64_t seed, pieck::AttackKind attack,
                   pieck::DefenseKind defense);

struct JobResult {
  std::vector<double> create_s;
  double generate_s = 0.0;  // traced runs only
  std::vector<double> round_ms;
  std::vector<pieck::RoundStats> rounds;
  double loop_s = 0.0;
  double er = 0.0;
  double hr = 0.0;
  double er_s = 0.0;  // medians over the evaluation repeats
  double hr_s = 0.0;
  double wall_s = 0.0;
  int num_users = 0;
  int64_t store_bytes = 0;
  int64_t arena_bytes = 0;
  pieck::StorageCounters storage;
  std::vector<CheckResult> checks;
  /// Operations: one per round plus the two evaluations.
  int attempted = 0;
  int failed = 0;
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Runs one job; spans go to `tracer` when it is enabled. Returns false
/// with `*error` set when the simulation cannot be built.
bool RunJob(const JobSpec& spec, Tracer* tracer, JobResult* out,
            std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
