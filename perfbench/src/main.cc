// perfbench_driver: runs one in-process benchmark workload and prints
// its metrics as one JSON line (the last line of standard output).
//
//   perfbench_driver --workload <ml1m-defended|pop-100k-mmap|table4-cell|
//                                table4-defense|table4-replay>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --threads <n> [--jobs <n>] [--trace-out <file>]
//
// Untraced, a workload repeats its fixed job while another one fits in
// `--seconds` (at least once), or exactly `--jobs` times, and reports
// end-to-end medians over all jobs. Traced, it runs the job once
// untraced and once with spans, and reports per-layer metrics of the
// traced job and the tracing overhead (traced minus untraced wall
// time). The table4-mf workload's in-process parts: `table4-cell` is
// the PIECK-UEA x Ours cell, `table4-defense` the NoDefense and Ours
// rows of the Table IV binary's MF grid, and `table4-replay` (traced)
// all 24 cells. Replayed cells do what a cell of the binary does: one
// Simulation::Create and one ER + HR evaluation.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Rounds in the opening and closing windows: a fifth of the job each.
int WindowRounds(int rounds) { return std::max(1, rounds / 5); }

std::vector<Metric> EndToEnd(const std::vector<JobResult>& jobs) {
  std::vector<double> wall, setup, rate, cold, warm, eval, bytes;
  for (const JobResult& j : jobs) {
    wall.push_back(j.wall_s);
    setup.insert(setup.end(), j.create_s.begin(), j.create_s.end());
    rate.push_back(static_cast<double>(j.rounds.size()) / j.loop_s);
    const int n = static_cast<int>(j.round_ms.size());
    const int w = WindowRounds(n);
    cold.insert(cold.end(), j.round_ms.begin(), j.round_ms.begin() + w);
    warm.insert(warm.end(), j.round_ms.end() - w, j.round_ms.end());
    eval.push_back(j.er_s + j.hr_s);
    bytes.push_back(static_cast<double>(j.store_bytes) / j.num_users);
  }
  return {{"wall_s", Median(wall), "s"},
          {"setup_s", Median(setup), "s"},
          {"rounds_per_s", Median(rate), "rounds/s"},
          {"cold_round_p50_ms", Median(cold), "ms"},
          {"warm_round_p50_ms", Median(warm), "ms"},
          {"eval_s", Median(eval), "s"},
          {"state_bytes_per_user", Median(bytes), "B/user"}};
}

/// Per-layer metrics over the traced jobs (one job, or the 24 cells of
/// the table replay). `defended`/`undefended` give the defense ratios;
/// both empty means the workload runs no defense (ratios of 1).
std::vector<Metric> PerLayer(const std::vector<JobResult>& jobs,
                             const std::vector<const JobResult*>& defended,
                             const std::vector<const JobResult*>& undefended,
                             double trace_wall_s, double untraced_wall_s) {
  std::vector<double> create, select, train, train_per_client, route, apply,
      unstaged;
  double generate = 0.0, er_s = 0.0, hr_s = 0.0, users = 0.0;
  double uploads = 0.0, entries = 0.0, malicious = 0.0;
  double store_bytes = 0.0, arena_bytes = 0.0;
  pieck::StorageCounters sc;
  for (const JobResult& j : jobs) {
    create.insert(create.end(), j.create_s.begin(), j.create_s.end());
    generate += j.generate_s;
    for (size_t r = 0; r < j.rounds.size(); ++r) {
      const pieck::RoundStats& s = j.rounds[r];
      select.push_back(s.select_ms);
      train.push_back(s.train_ms);
      train_per_client.push_back(s.train_ms * 1e3 /
                                 std::max(1, s.num_selected));
      route.push_back(s.route_ms);
      apply.push_back(s.apply_ms);
      unstaged.push_back(j.round_ms[r] - s.select_ms - s.train_ms -
                         s.route_ms - s.apply_ms);
      uploads += s.uploads_built;
      entries += static_cast<double>(s.router_entries);
      malicious += s.num_malicious_selected;
    }
    er_s += j.er_s;
    hr_s += j.hr_s;
    users += j.num_users;
    store_bytes = std::max(store_bytes, static_cast<double>(j.store_bytes));
    arena_bytes = std::max(arena_bytes, static_cast<double>(j.arena_bytes));
    sc.hits += j.storage.hits;
    sc.misses += j.storage.misses;
    sc.evictions += j.storage.evictions;
    sc.writebacks += j.storage.writebacks;
    sc.io_read_runs += j.storage.io_read_runs;
    sc.io_write_runs += j.storage.io_write_runs;
    sc.staged_hits += j.storage.staged_hits;
  }
  auto ratio = [&](auto field) {
    if (defended.empty() || undefended.empty()) return 1.0;
    std::vector<double> d, u;
    for (const JobResult* j : defended) field(*j, &d);
    for (const JobResult* j : undefended) field(*j, &u);
    return Median(d) / Median(u);
  };
  const double train_ratio = ratio([](const JobResult& j,
                                      std::vector<double>* v) {
    for (const pieck::RoundStats& s : j.rounds) v->push_back(s.train_ms);
  });
  const double store_ratio = ratio([](const JobResult& j,
                                      std::vector<double>* v) {
    v->push_back(static_cast<double>(j.store_bytes));
  });
  const double n = static_cast<double>(jobs.size());
  return {
      {"core.create_s", Median(create), "s"},
      {"data.generate_s", generate / n, "s"},
      {"fed.select_ms", Median(select), "ms"},
      {"fed.train_ms", Median(train), "ms"},
      {"fed.train_us_per_client", Median(train_per_client), "us"},
      {"fed.route_ms", Median(route), "ms"},
      {"fed.apply_ms", Median(apply), "ms"},
      {"fed.unstaged_ms", Median(unstaged), "ms"},
      {"fed.uploads", uploads, "count"},
      {"fed.router_entries", entries, "count"},
      {"fed.store_bytes", store_bytes, "B"},
      {"fed.arena_bytes", arena_bytes, "B"},
      {"storage.hits", static_cast<double>(sc.hits), "count"},
      {"storage.misses", static_cast<double>(sc.misses), "count"},
      {"storage.hit_rate", sc.hit_rate(), "ratio"},
      {"storage.evictions", static_cast<double>(sc.evictions), "count"},
      {"storage.writebacks", static_cast<double>(sc.writebacks), "count"},
      {"storage.read_runs", static_cast<double>(sc.io_read_runs), "count"},
      {"storage.write_runs", static_cast<double>(sc.io_write_runs), "count"},
      {"storage.staged_hits", static_cast<double>(sc.staged_hits), "count"},
      {"defense.train_ratio", train_ratio, "ratio"},
      {"defense.store_ratio", store_ratio, "ratio"},
      {"attack.malicious_uploads", malicious, "count"},
      {"metrics.er_s", er_s / n, "s"},
      {"metrics.hr_s", hr_s / n, "s"},
      {"serving.er_users_per_s", users / er_s, "users/s"},
      {"trace.wall_s", trace_wall_s, "s"},
      {"trace.overhead_s", trace_wall_s - untraced_wall_s, "s"},
  };
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void PrintResult(const std::vector<JobResult>& jobs,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::pair<std::string, double>>& extra) {
  int attempted = 0, failed = 0;
  std::string checks;
  for (const JobResult& j : jobs) {
    attempted += j.attempted;
    failed += j.failed;
  }
  // The checks of the first job stand for all (every job runs the same
  // checks); a failure in any later job is listed too.
  for (size_t i = 0; i < jobs.size(); ++i) {
    for (const CheckResult& c : jobs[i].checks) {
      if (i > 0 && c.ok) continue;
      if (!checks.empty()) checks += ", ";
      checks += "{\"name\": \"" + JsonEscape(c.name) + "\", \"ok\": " +
                (c.ok ? "true" : "false") + ", \"detail\": \"" +
                JsonEscape(c.detail) + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"checks\": [%s], \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed,
              checks.c_str());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}, \"extra\": {");
  for (size_t i = 0; i < extra.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i ? ", " : "", extra[i].first.c_str(),
                extra[i].second);
  }
  std::printf("}}\n");
}

bool WriteTrace(const Tracer& tracer, const std::string& path) {
  if (path.empty()) return true;
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    std::printf("self %-20s %10.4f s\n", name.c_str(), seconds);
  }
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Table IV's MF grid in the binary's order: defenses are rows, attacks
/// columns.
const std::vector<pieck::DefenseKind>& Table4Defenses() {
  static const std::vector<pieck::DefenseKind> kDefenses = {
      pieck::DefenseKind::kNoDefense, pieck::DefenseKind::kNormBound,
      pieck::DefenseKind::kMedian,    pieck::DefenseKind::kTrimmedMean,
      pieck::DefenseKind::kKrum,      pieck::DefenseKind::kMultiKrum,
      pieck::DefenseKind::kBulyan,    pieck::DefenseKind::kOurs};
  return kDefenses;
}
const std::vector<pieck::AttackKind>& Table4Attacks() {
  static const std::vector<pieck::AttackKind> kAttacks = {
      pieck::AttackKind::kAHum, pieck::AttackKind::kPieckIpe,
      pieck::AttackKind::kPieckUea};
  return kAttacks;
}

/// Runs the Table IV cells of `defenses` (every attack each) at `seed`
/// into `jobs` and, with `print`, prints them in the binary's table
/// layout. Returns false with `*error` set when a simulation cannot be
/// built.
bool ReplayTable(uint64_t seed,
                 const std::vector<pieck::DefenseKind>& defenses, bool print,
                 Tracer* tracer, std::vector<JobResult>* jobs,
                 std::string* error) {
  std::vector<std::vector<std::string>> rows;
  for (pieck::DefenseKind d : defenses) {
    std::vector<std::string> row = {pieck::DefenseKindToString(d)};
    for (pieck::AttackKind a : Table4Attacks()) {
      JobSpec spec = Table4Cell(seed, a, d);
      spec.setup_repeats = 1;
      spec.eval_repeats = 1;
      jobs->emplace_back();
      if (!RunJob(spec, tracer, &jobs->back(), error)) {
        *error = spec.name + ": " + *error;
        return false;
      }
      row.push_back(pieck::FormatPercent(jobs->back().er));
      row.push_back(pieck::FormatPercent(jobs->back().hr));
    }
    rows.push_back(row);
  }
  if (!print) return true;
  std::printf("== Table IV replay (MF-FRS, in-process, seed %llu) ==\n"
              "| Defense |",
              static_cast<unsigned long long>(seed));
  for (pieck::AttackKind a : Table4Attacks()) {
    std::printf(" %s ER@10 | %s HR@10 |", pieck::AttackKindToString(a),
                pieck::AttackKindToString(a));
  }
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("|");
    for (const std::string& cell : row) std::printf(" %s |", cell.c_str());
    std::printf("\n");
  }
  return true;
}

int Main(int argc, char** argv) {
  pieck::FlagParser flags;
  if (pieck::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const int64_t job_count = flags.GetInt("jobs", 0);
  const std::string trace_out = flags.GetString("trace-out", "");
  if (threads < 1 || job_count < 0) {
    std::fprintf(stderr, "--threads must be >= 1 and --jobs >= 0\n");
    return 2;
  }

  Tracer tracer(traced);
  std::string error;
  std::vector<JobResult> jobs;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto run = [&](const JobSpec& spec) {
    jobs.emplace_back();
    if (!RunJob(spec, &tracer, &jobs.back(), &error)) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), error.c_str());
      return false;
    }
    return true;
  };

  if (workload == "table4-replay" || workload == "table4-defense") {
    const bool replay = workload == "table4-replay";
    if (replay != traced) {
      std::fprintf(stderr, "%s runs with --trace %d only\n", workload.c_str(),
                   replay ? 1 : 0);
      return 2;
    }
    if (!replay) {
      if (!ReplayTable(seed,
                       {pieck::DefenseKind::kNoDefense,
                        pieck::DefenseKind::kOurs},
                       true, &tracer, &jobs, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      PrintResult(jobs, {}, {});
      return 0;
    }
    // The same 24 cells untraced, then traced, in one process.
    Tracer silent(false);
    std::vector<JobResult> plain;
    const Clock::time_point t0 = Clock::now();
    if (!ReplayTable(seed, Table4Defenses(), false, &silent, &plain, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const double untraced_wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const Clock::time_point t1 = Clock::now();
    if (!ReplayTable(seed, Table4Defenses(), true, &tracer, &jobs, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - t1).count();
    std::vector<const JobResult*> ours, none;
    for (size_t i = 0; i < jobs.size(); ++i) {
      const pieck::DefenseKind d = Table4Defenses()[i / Table4Attacks().size()];
      if (d == pieck::DefenseKind::kOurs) ours.push_back(&jobs[i]);
      if (d == pieck::DefenseKind::kNoDefense) none.push_back(&jobs[i]);
    }
    std::vector<Metric> layers = PerLayer(jobs, ours, none, wall,
                                          untraced_wall);
    if (!WriteTrace(tracer, trace_out)) return 1;
    jobs.insert(jobs.end(), plain.begin(), plain.end());
    PrintResult(jobs, layers, {});
    return 0;
  }

  JobSpec spec;
  if (workload == "ml1m-defended") {
    spec = Ml1mDefended(seed, threads, false);
  } else if (workload == "pop-100k-mmap") {
    spec = Pop100kMmap(seed, threads, false);
  } else if (workload == "table4-cell") {
    spec = Table4Cell(seed, pieck::AttackKind::kPieckUea,
                      pieck::DefenseKind::kOurs);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    return 2;
  }

  if (traced) {
    // The same job untraced, then traced, for the tracing overhead.
    Tracer silent(false);
    JobResult untraced;
    if (!RunJob(spec, &silent, &untraced, &error)) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), error.c_str());
      return 1;
    }
    if (!run(spec)) return 1;
    const double wall = jobs[0].wall_s;
    std::vector<Metric> layers;
    if (spec.config.defense == pieck::DefenseKind::kNoDefense) {
      layers = PerLayer(jobs, {}, {}, wall, untraced.wall_s);
    } else {
      // One undefended pass of the same seed, untraced and outside the
      // traced wall time, for the defense ratios.
      JobSpec plain = spec;
      plain.name += "/undefended";
      plain.config.defense = pieck::DefenseKind::kNoDefense;
      plain.setup_repeats = 1;
      JobResult base;
      if (!RunJob(plain, &silent, &base, &error)) {
        std::fprintf(stderr, "%s: %s\n", plain.name.c_str(), error.c_str());
        return 1;
      }
      layers = PerLayer(jobs, {&jobs[0]}, {&base}, wall, untraced.wall_s);
      jobs.push_back(std::move(base));
    }
    jobs.push_back(std::move(untraced));
    if (!WriteTrace(tracer, trace_out)) return 1;
    PrintResult(jobs, layers, {});
    return 0;
  }

  // Untraced: `--jobs` whole jobs, or whole jobs while the next one is
  // expected to fit.
  do {
    if (!run(spec)) return 1;
  } while (job_count > 0 ? static_cast<int64_t>(jobs.size()) < job_count
                         : elapsed() + jobs.back().wall_s <= seconds);
  PrintResult(jobs, EndToEnd(jobs),
              {{"er", jobs.front().er}, {"hr", jobs.front().hr}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
