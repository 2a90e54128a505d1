#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "core/simulation.h"
#include "data/synthetic.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

JobSpec Ml1mDefended(uint64_t seed, int threads, bool small) {
  JobSpec spec;
  spec.name = "ml1m-defended";
  spec.audit_er = true;
  spec.eval_repeats = 3;
  pieck::ExperimentConfig& c = spec.config;
  c.dataset = pieck::MovieLens1MConfig(small ? 0.1 : 1.0);
  c.dataset.seed = seed;
  c.model_kind = pieck::ModelKind::kMatrixFactorization;
  c.loss = pieck::LossKind::kBce;
  c.learning_rate = 1.0;
  c.users_per_round = small ? 32 : 256;
  c.rounds = small ? 8 : 60;
  c.attack = pieck::AttackKind::kPieckUea;
  c.attack_config.mined_top_n = 20;
  c.malicious_fraction = 0.05;
  c.aggregator_params.malicious_fraction = c.malicious_fraction;
  c.defense = pieck::DefenseKind::kOurs;
  c.num_threads = threads;
  c.seed = seed;
  return spec;
}

JobSpec Pop100kMmap(uint64_t seed, int threads, bool small) {
  JobSpec spec;
  spec.name = "pop-100k-mmap";
  pieck::ExperimentConfig& c = spec.config;
  c.dataset.name = "pop-100k";
  c.dataset.num_users = small ? 2000 : 100000;
  c.dataset.num_items = small ? 1000 : 50000;
  c.dataset.num_interactions = 8ll * c.dataset.num_users;
  c.dataset.item_zipf_exponent = 1.0;
  c.dataset.user_zipf_exponent = 0.6;
  c.dataset.min_user_interactions = 2;
  c.dataset.seed = seed;
  c.model_kind = pieck::ModelKind::kMatrixFactorization;
  c.loss = pieck::LossKind::kBce;
  c.learning_rate = 1.0;
  c.users_per_round = small ? 64 : 256;
  c.rounds = small ? 60 : 1000;
  c.num_threads = threads;
  c.storage.kind = pieck::StorageKind::kMmap;
  c.storage.io_engine = pieck::IoEngineKind::kPreadBatch;
  // Well below the population, so returning users fault from the file.
  c.storage.cache_rows = small ? 256 : 16384;
  c.seed = seed;
  return spec;
}

JobSpec Table4Cell(uint64_t seed, pieck::AttackKind attack,
                   pieck::DefenseKind defense) {
  JobSpec spec;
  spec.name = std::string("table4/") + pieck::AttackKindToString(attack) +
              "/" + pieck::DefenseKindToString(defense);
  spec.setup_repeats = 15;
  spec.eval_repeats = 9;
  spec.check_hr = false;
  pieck::ExperimentConfig& c = spec.config;
  // The binary's ML-100K-like MF defaults: scale 0.3, 256/943 of the
  // users per round, 150 rounds, p~=5%, dim 16, eta 1.0.
  c.dataset = pieck::MovieLens100KConfig(0.3);
  c.model_kind = pieck::ModelKind::kMatrixFactorization;
  c.embedding_dim = 16;
  c.learning_rate = 1.0;
  c.users_per_round = std::min(
      std::max(8, static_cast<int>(256.0 / 943.0 * c.dataset.num_users)),
      c.dataset.num_users);
  c.rounds = 150;
  c.malicious_fraction = 0.05;
  c.aggregator_params.malicious_fraction = c.malicious_fraction;
  c.seed = seed;
  c.attack = attack;
  if (attack == pieck::AttackKind::kPieckUea) c.attack_config.mined_top_n = 20;
  if (attack == pieck::AttackKind::kPieckIpe) c.attack_config.mined_top_n = 10;
  c.defense = defense;
  return spec;
}

bool RunJob(const JobSpec& spec, Tracer* tracer, JobResult* out,
            std::string* error) {
  const pieck::ExperimentConfig& config = spec.config;
  if (tracer->enabled()) {
    // The generator alone, on the config Create will use; outside the
    // job, so that the traced job's wall time stays comparable.
    Tracer::Scope span = tracer->Open("GenerateSynthetic");
    const Clock::time_point t0 = Clock::now();
    auto data = pieck::GenerateSynthetic(config.dataset);
    out->generate_s = SecondsSince(t0);
    if (!data.ok()) {
      *error = data.status().ToString();
      return false;
    }
  }

  const Clock::time_point job_start = Clock::now();
  Tracer::Scope job_span = tracer->Open("job");

  std::unique_ptr<pieck::Simulation> sim;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    sim.reset();
    Tracer::Scope span = tracer->Open("Simulation::Create");
    const Clock::time_point t0 = Clock::now();
    auto created = pieck::Simulation::Create(config);
    out->create_s.push_back(SecondsSince(t0));
    if (!created.ok()) {
      *error = created.status().ToString();
      return false;
    }
    sim = std::move(*created);
  }

  {
    Tracer::Scope loop_span = tracer->Open("rounds");
    const Clock::time_point t0 = Clock::now();
    out->rounds.reserve(static_cast<size_t>(config.rounds));
    for (int r = 0; r < config.rounds; ++r) {
      Tracer::Scope span = tracer->Open("RunRound");
      const Clock::time_point tr = Clock::now();
      pieck::RoundStats stats = sim->RunRound();
      out->round_ms.push_back(SecondsSince(tr) * 1e3);
      span.Attr("select_ms", stats.select_ms);
      span.Attr("train_ms", stats.train_ms);
      span.Attr("route_ms", stats.route_ms);
      span.Attr("apply_ms", stats.apply_ms);
      out->rounds.push_back(std::move(stats));
    }
    out->loop_s = SecondsSince(t0);
  }

  std::vector<double> ers, hrs, er_s, hr_s;
  for (int i = 0; i < spec.eval_repeats; ++i) {
    {
      Tracer::Scope span = tracer->Open("EvaluateEr");
      const Clock::time_point t0 = Clock::now();
      ers.push_back(sim->EvaluateEr(config.top_k));
      er_s.push_back(SecondsSince(t0));
    }
    Tracer::Scope span = tracer->Open("EvaluateHr");
    const Clock::time_point t0 = Clock::now();
    hrs.push_back(sim->EvaluateHr(config.top_k));
    hr_s.push_back(SecondsSince(t0));
  }
  out->er = ers.front();
  out->hr = hrs.front();
  out->er_s = Median(er_s);
  out->hr_s = Median(hr_s);

  out->num_users = sim->store().num_users();
  out->store_bytes = sim->store().FootprintBytes();
  out->arena_bytes = out->rounds.empty()
                         ? 0
                         : out->rounds.back().scratch_bytes_in_use;
  out->storage = sim->store().storage_counters();

  {
    Tracer::Scope span = tracer->Open("checks");
    out->attempted = config.rounds + 2 * spec.eval_repeats;
    const std::vector<int> bad = BadRounds(out->rounds, config.users_per_round);
    out->checks.push_back(
        {"rounds: cohort, uploads and finite loss", bad.empty(),
         std::to_string(bad.size()) + " bad of " +
             std::to_string(out->rounds.size())});
    out->failed += static_cast<int>(bad.size());

    if (spec.check_hr) {
      const bool hr_ok =
          HrBeatsRandom(out->hr, config.top_k, config.hr_num_negatives);
      out->checks.push_back({"HR@10 above random ranking", hr_ok,
                             "HR@10 = " + std::to_string(out->hr)});
      out->failed += hr_ok ? 0 : 1;
    }

    // Evaluation is a pure function of the model: repeats must agree.
    int unstable = 0;
    for (int i = 1; i < spec.eval_repeats; ++i) {
      unstable += (ers[i] != ers[0]) + (hrs[i] != hrs[0]);
    }
    out->checks.push_back({"repeated evaluations agree", unstable == 0,
                           std::to_string(unstable) + " differ"});
    out->failed += unstable;

    bool er_ok = out->er >= 0.0 && out->er <= 1.0;
    std::string er_detail = "ER@10 = " + std::to_string(out->er);
    if (spec.audit_er && er_ok) {
      // The workloads attack one target, so ER is that target's ratio.
      const ErAudit audit = BruteForceEr(
          sim->global().item_embeddings, sim->benign_eval_view(),
          sim->train(), sim->targets().front(), config.top_k);
      er_ok = sim->targets().size() == 1 && ErAgrees(out->er, audit);
      er_detail += ", brute force " + std::to_string(audit.er()) + ", " +
                   std::to_string(audit.ambiguous) + " tied boundaries";
    }
    out->checks.push_back({spec.audit_er ? "ER@10 equals brute force"
                                         : "ER@10 in [0, 1]",
                           er_ok, er_detail});
    out->failed += er_ok ? 0 : 1;
  }
  out->wall_s = SecondsSince(job_start);
  return true;
}

}  // namespace perfbench
