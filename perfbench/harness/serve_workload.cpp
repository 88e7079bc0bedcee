// The serve_mixed workload: one TuneService (default options, on-disk store
// in a fresh directory) driven by a single-threaded open-loop generator.
//
//   * Fast requests arrive at kFastRate per second, each due at a fixed
//     time: three store-hit tunes to one predict, for one of the pre-tuned
//     hit keys, from one of kTenants client tenants. The mix and the tenant
//     count are those of the repository's service load generator
//     (bench/ext_serve.cpp). Keys and predict configurations are drawn from
//     the space with the workload seed. The rate keeps the requests that
//     queue behind a cold pair within the service's default admission
//     capacity (queue_capacity 64 per tenant): at kFastRate each tenant
//     queues 5 requests per second of a pair, so a pair may take up to
//     12 s (three times its 4 s on a 4-core host) before a request is
//     rejected.
//   * Every kColdPeriodS a pair of cold tunes (new seeds: convolution on the
//     Nvidia K40 and on the Intel i7) arrives from the "batch" tenant, plus
//     a duplicate of the first, which coalesces onto it. The pair occupies
//     both workers, so fast requests arriving meanwhile wait behind it:
//     hits run on the same worker pool as tunes (head-of-line waiting).
//     The cold seeds are fixed (kColdSeed), not drawn from the run seed: how
//     long a tune fits depends on its seed, and the pair's duration sets
//     every waiting time of the run.
//
// Latency is measured from each request's due time: generator lateness
// (submit - due) plus the service's own TuneResponse::latency_ms.
// Before the measured phase a first service instance tunes the hit keys
// into the store directory (a previous process warming the store); set-up
// is then starting a service on that directory.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "common/rng.hpp"
#include "serve/catalog.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "tuner/autotuner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = pt::serve;
namespace tuner = pt::tuner;

constexpr double kFastRate = 20.0;       // hit + predict requests per second
constexpr std::size_t kPredictEvery = 4; // every fourth fast request
constexpr double kColdPeriodS = 20.0;    // one cold pair per period
constexpr std::uint64_t kColdSeed = 0x636f6c64;
constexpr std::size_t kTenants = 4;      // fast-request client tenants
constexpr int kLookupSamples = 200;      // timed store lookups

enum class Kind { kHit, kPredict, kCold, kDuplicate };

struct Planned {
  Kind kind = Kind::kHit;
  double due_s = 0.0;
  std::string tenant;
  serve::TuneRequest request;
  std::size_t key = 0;  // hit-key index (hit/predict) or cold index
};

struct Sent {
  Planned plan;
  Clock::time_point due;
  Clock::time_point sent;
  std::future<serve::TuneResponse> future;
};

serve::TuneRequest tune_request(const Cell& cell, std::uint64_t seed) {
  serve::TuneRequest req;
  req.kind = serve::RequestKind::kTune;
  req.key = {cell.benchmark, cell.device, "paper"};
  req.seed = seed;
  return req;
}

serve::TuneServiceOptions service_options(const std::string& dir,
                                          const serve::BenchmarkCatalog& catalog) {
  serve::TuneServiceOptions opts;
  opts.store.directory = dir;
  opts.store.catalog_version = catalog.version();
  return opts;
}

bool same_answer(const serve::TuneResponse& a, const serve::TuneResponse& b) {
  return a.best_config == b.best_config && a.best_time_ms == b.best_time_ms;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kHit: return "hit";
    case Kind::kPredict: return "predict";
    case Kind::kCold: return "cold";
    case Kind::kDuplicate: return "duplicate";
  }
  return "?";
}

/// Rounds (one hit and one predict each) sent after every added result.
constexpr std::size_t kProbeRounds = 250;

}  // namespace

IdleServiceProbe::IdleServiceProbe(std::size_t cells)
    : hit_ms_(cells),
      predict_ms_(cells),
      service_(serve::TuneServiceOptions{}, serve::EvaluatorFactory{}) {}

void IdleServiceProbe::add(WarmEntry added, Outcome& outcome) {
  service_.store().put(added.entry);
  entries_.push_back(std::move(added));
  serve::Session client(service_, "probe");
  for (std::size_t r = 0; r < kProbeRounds; ++r) {
    const WarmEntry& w = entries_[r % entries_.size()];
    const serve::TuneKey& key = w.entry.key;
    Clock::time_point t0 = Clock::now();
    const serve::TuneResponse hit = client.tune(key, w.entry.seed);
    hit_ms_[w.cell].push_back(ms_between(t0, Clock::now()));
    if (hit.status != serve::ResponseStatus::kOk || !hit.from_cache ||
        hit.best_config != w.entry.best_config ||
        hit.best_time_ms != w.entry.best_time_ms) {
      outcome.wrong("store hit for " + key.to_string() + " differs from the tune");
      return;
    }
    const tuner::Configuration& config = (*w.configs)[r % w.configs->size()];
    t0 = Clock::now();
    const serve::TuneResponse predict = client.predict(key, config, w.entry.seed);
    predict_ms_[w.cell].push_back(ms_between(t0, Clock::now()));
    if (predict.status != serve::ResponseStatus::kOk ||
        predict.predicted_ms != w.entry.model->predict_ms(config)) {
      outcome.wrong("served predict for " + key.to_string() +
                    " differs from the model");
      return;
    }
  }
}

int run_serve_workload(const RunOptions& options) {
  const Clock::time_point origin = Clock::now();
  SpanRecorder recorder(origin);
  const std::vector<Optimum> optima = load_optima(options.reference);
  const std::vector<Cell> cells = {{"convolution", pt::archsim::kNvidiaK40},
                                   {"convolution", pt::archsim::kIntelI7}};
  const std::string dir = options.out_dir + "/serve-store-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  // Hit keys: one per cell, tuned into the store by an earlier instance.
  // A key is the first seed of its stream whose tune gives a prediction
  // (there is nothing to store otherwise).
  std::vector<serve::TuneRequest> hit_keys;
  std::vector<serve::TuneResponse> warm_answers;
  {
    const serve::BenchmarkCatalog catalog;
    serve::TuneService warm(service_options(dir, catalog), catalog.factory());
    for (std::size_t k = 0; k < cells.size(); ++k) {
      for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
        serve::TuneRequest req =
            tune_request(cells[k], derive_seed(options.seed, 2, 2 * attempt + k));
        serve::TuneResponse answer = warm.request("warm", req);
        if (answer.status == serve::ResponseStatus::kOk) {
          hit_keys.push_back(std::move(req));
          warm_answers.push_back(std::move(answer));
          break;
        }
      }
      if (hit_keys.size() != k + 1)
        throw std::runtime_error("no hit key with a prediction for " +
                                 cells[k].label());
    }
  }
  Outcome outcome;
  std::vector<CellReference> refs;
  {
    const pt::clsim::Platform nf = noise_free_platform();
    for (const Cell& c : cells) refs.push_back(make_reference(c, optima, nf));
  }

  // Set-up, what a serving process does before its first request: build the
  // catalog and start a service on the warm store directory. Stored entries
  // load lazily, on their first request (loading them here would make
  // set-up depend on which models the seed stored). Repeated; the last
  // service is kept.
  std::unique_ptr<serve::BenchmarkCatalog> catalog;
  std::unique_ptr<serve::TuneService> service;
  const std::vector<double> setup_s = repeat_setup([&](std::size_t rep) {
    service.reset();
    catalog.reset();
    const Clock::time_point t0 = Clock::now();
    catalog = std::make_unique<serve::BenchmarkCatalog>();
    service = std::make_unique<serve::TuneService>(service_options(dir, *catalog),
                                                   catalog->factory());
    if (options.trace)
      recorder.add("setup", t0, Clock::now(), -1, static_cast<std::int64_t>(rep));
  });

  // The request plan: a pure function of (seed, seconds).
  const tuner::ParamSpace& space = refs[0].paper->space();
  std::vector<Planned> plan;
  pt::common::Rng rng(derive_seed(options.seed, 4, 0));
  const auto fast = static_cast<std::size_t>(options.seconds * kFastRate);
  for (std::size_t i = 0; i < fast; ++i) {
    Planned p;
    p.due_s = static_cast<double>(i) / kFastRate;
    p.tenant = "client-" + std::to_string(i % kTenants);
    p.key = rng.below(hit_keys.size());
    p.request = hit_keys[p.key];
    if (i % kPredictEvery != kPredictEvery - 1) {
      p.kind = Kind::kHit;
    } else {
      p.kind = Kind::kPredict;
      p.request.kind = serve::RequestKind::kPredict;
      p.request.config = space.decode(rng.below(space.size()));
    }
    plan.push_back(std::move(p));
  }
  std::vector<serve::TuneRequest> cold;
  // Cold pairs spread evenly over the run, one per period (at least one).
  const int pairs = std::max(1, static_cast<int>(options.seconds / kColdPeriodS));
  for (int pair = 0; pair < pairs; ++pair) {
    const double t = (pair + 0.2) * options.seconds / pairs;
    const std::size_t first = cold.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      cold.push_back(tune_request(cells[c], derive_seed(kColdSeed, 3, first + c)));
      Planned p;
      p.kind = Kind::kCold;
      p.due_s = t;
      p.tenant = "batch";
      p.key = first + c;
      p.request = cold.back();
      plan.push_back(p);
      if (c == 0) {
        p.kind = Kind::kDuplicate;
        plan.push_back(p);
      }
    }
  }
  std::stable_sort(plan.begin(), plan.end(), [](const Planned& a, const Planned& b) {
    return a.due_s < b.due_s;
  });

  // Open loop: submit each request at its due time, never waiting for
  // answers.
  const serve::TuneServiceStats before = service->stats();
  std::vector<Sent> sent;
  sent.reserve(plan.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (Planned& p : plan) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(p.due_s));
    // Sleep to just before the due time, then spin: a plain sleep wakes
    // tens of microseconds late, and that lateness would count as latency.
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
    Sent s;
    s.due = due;
    s.sent = Clock::now();
    s.future = service->submit(p.tenant, p.request);
    s.plan = std::move(p);
    sent.push_back(std::move(s));
  }

  std::vector<std::vector<double>> cold_s(cells.size());
  std::vector<double> hit_ms, predict_ms, hit_service, predict_service,
      cold_service, lag_ms, warm_ms;
  std::vector<serve::TuneResponse> cold_answers(cold.size());
  std::vector<serve::TuneResponse> responses;
  responses.reserve(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    serve::TuneResponse r = s.future.get();
    const double lag = ms_between(s.due, s.sent);
    const double client = lag + r.latency_ms;
    lag_ms.push_back(lag);
    ++outcome.attempted;
    if (options.trace) {
      const auto done = s.sent + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         r.latency_ms));
      const std::int64_t root = recorder.add(
          std::string("serve.client.") + kind_name(s.plan.kind), s.due, done,
          -1, static_cast<std::int64_t>(i));
      recorder.add("serve.service", s.sent, done, root,
                   static_cast<std::int64_t>(i));
    }
    const std::string what = std::string(kind_name(s.plan.kind)) + " " +
                             s.plan.request.key.to_string() + " seed " +
                             std::to_string(s.plan.request.seed);
    if (r.status == serve::ResponseStatus::kNoPrediction) {
      // The tuner's documented answer (paper §6), not a failed request.
      std::cerr << "perfbench: " << what << ": " << r.error << "\n";
      responses.push_back(std::move(r));
      continue;
    }
    if (r.status != serve::ResponseStatus::kOk) {
      outcome.fail(what + ": " + std::string(serve::to_string(r.status)) +
                   " " + r.error);
      if (s.plan.kind == Kind::kHit || s.plan.kind == Kind::kPredict)
        warm_ms.push_back(1e300);  // a failed request misses the limit
      responses.push_back(std::move(r));
      continue;
    }
    switch (s.plan.kind) {
      case Kind::kHit:
        hit_ms.push_back(client);
        hit_service.push_back(r.latency_ms);
        warm_ms.push_back(client);
        if (!r.from_cache || !same_answer(r, warm_answers[s.plan.key]))
          outcome.wrong(what + ": hit differs from the stored tune");
        break;
      case Kind::kPredict:
        predict_ms.push_back(client);
        predict_service.push_back(r.latency_ms);
        warm_ms.push_back(client);
        break;
      case Kind::kCold:
        cold_s[s.plan.key % cells.size()].push_back(client / 1000.0);
        cold_service.push_back(r.latency_ms);
        cold_answers[s.plan.key] = r;
        break;
      case Kind::kDuplicate:
        break;
    }
    responses.push_back(std::move(r));
  }
  // Duplicates must carry their original's answer.
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i].plan.kind != Kind::kDuplicate ||
        responses[i].status != serve::ResponseStatus::kOk)
      continue;
    if (!same_answer(responses[i], cold_answers[sent[i].plan.key]))
      outcome.wrong("duplicate of " + sent[i].plan.request.key.to_string() +
                    " answered differently");
  }
  const serve::TuneServiceStats after = service->stats();

  // Store lookups through the public call, after the traffic.
  std::vector<double> lookup_us;
  for (int i = 0; i < kLookupSamples; ++i) {
    const auto& req = hit_keys[static_cast<std::size_t>(i) % hit_keys.size()];
    const Clock::time_point t0 = Clock::now();
    const auto entry = service->store().lookup(req.key, req.seed);
    lookup_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
    if (!entry) outcome.wrong("store lost " + req.key.to_string());
  }

  // Output checks and quality figures of every served tune (the hit keys'
  // and the cold ones), per cell.
  std::vector<std::vector<double>> tuned_vs_opt(cells.size()),
      cost_s(cells.size()), mre_pct(cells.size());
  const Clock::time_point check_start = Clock::now();
  std::vector<std::pair<serve::TuneRequest, serve::TuneResponse>> served;
  for (std::size_t k = 0; k < hit_keys.size(); ++k)
    served.emplace_back(hit_keys[k], warm_answers[k]);
  for (std::size_t k = 0; k < cold.size(); ++k)
    if (cold_answers[k].status == serve::ResponseStatus::kOk)
      served.emplace_back(cold[k], cold_answers[k]);
  for (const auto& [req, answer] : served) {
    const std::size_t c = req.key.device == cells[0].device ? 0 : 1;
    const WinnerCheck check = check_winner(refs[c], answer.best_config);
    if (!check.ok) {
      outcome.wrong(check.problem);
      continue;
    }
    tuned_vs_opt[c].push_back(check.tuned_vs_opt);
    const auto entry = service->store().lookup(req.key, req.seed);
    if (!entry || entry->model == nullptr) {
      outcome.wrong("no stored model for " + req.key.to_string());
      continue;
    }
    cost_s[c].push_back(entry->data_gathering_cost_ms / 1000.0);
    double rel = 0.0;
    for (std::size_t i = 0; i < refs[c].heldout.size(); ++i)
      rel += std::abs(entry->model->predict_ms(refs[c].heldout[i]) -
                      refs[c].heldout_ms[i]) /
             refs[c].heldout_ms[i];
    mre_pct[c].push_back(100.0 * rel / static_cast<double>(refs[c].heldout.size()));
  }

  // Every served predict against the stored model of its key.
  for (std::size_t k = 0; k < hit_keys.size(); ++k) {
    const auto entry = service->store().lookup(hit_keys[k].key, hit_keys[k].seed);
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const Planned& p = sent[i].plan;
      if (p.kind != Kind::kPredict || p.key != k ||
          responses[i].status != serve::ResponseStatus::kOk)
        continue;
      if (!entry || entry->model == nullptr ||
          responses[i].predicted_ms != entry->model->predict_ms(*p.request.config))
        outcome.wrong("served predict for " + p.request.key.to_string() +
                      " differs from the stored model");
    }
  }

  // Served answers against a direct AutoTuner::tune for a sample of one key
  // per run, drawn from the hit keys (checked with their predicts) and the
  // cold keys.
  pt::common::Rng pick(derive_seed(options.seed, 5, 0));
  const std::size_t sample = pick.below(hit_keys.size() + cold.size());
  const auto direct = [&](const serve::TuneRequest& req) {
    const pt::clsim::Platform platform = pt::archsim::default_platform();
    const auto bench = pt::benchkit::make_benchmark(req.key.kernel);
    pt::benchkit::BenchmarkEvaluator eval(*bench,
                                          platform.device_by_name(req.key.device));
    return tuner::AutoTuner(service->options().tuner)
        .tune(eval, tuner::TuneRun::with_seed(req.seed));
  };
  if (sample < hit_keys.size()) {
    const std::size_t hit_sample = sample;
    const tuner::AutoTuneResult d = direct(hit_keys[hit_sample]);
    const serve::TuneResponse& w = warm_answers[hit_sample];
    if (!d.success || d.best_config != w.best_config ||
        d.best_time_ms != w.best_time_ms)
      outcome.wrong("served " + hit_keys[hit_sample].key.to_string() +
                    " differs from a direct tune");
    for (std::size_t i = 0; i < sent.size() && d.model; ++i) {
      const Planned& p = sent[i].plan;
      if (p.kind != Kind::kPredict || p.key != hit_sample ||
          responses[i].status != serve::ResponseStatus::kOk)
        continue;
      if (responses[i].predicted_ms != d.model->predict_ms(*p.request.config))
        outcome.wrong("served predict differs from the direct model");
    }
  } else if (const std::size_t cold_sample = sample - hit_keys.size();
             cold_answers[cold_sample].status == serve::ResponseStatus::kOk) {
    const tuner::AutoTuneResult d = direct(cold[cold_sample]);
    const serve::TuneResponse& c = cold_answers[cold_sample];
    if (!d.success || d.best_config != c.best_config ||
        d.best_time_ms != c.best_time_ms)
      outcome.wrong("served " + cold[cold_sample].key.to_string() +
                    " differs from a direct tune");
  }
  if (options.trace) recorder.add("check", check_start, Clock::now(), -1, -1);

  service.reset();
  catalog.reset();
  std::filesystem::remove_all(dir);

  const auto count = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"tune_wall_s_p50", across_cells(cold_s, median), "s"},
        {"device_cost_s_p50", across_cells(cost_s, median), "s"},
        {"tuned_vs_opt_mean", across_cells(tuned_vs_opt, mean), "x"},
        {"model_mre_pct_mean", across_cells(mre_pct, mean), "%"},
        {"hit_p50_ms", quantile(hit_ms, 0.5), "ms"},
        {"predict_p50_ms", quantile(predict_ms, 0.5), "ms"},
        {"slo_share", share_within(warm_ms, kSloMs), "share"},
        {"ok_share",
         1.0 - static_cast<double>(outcome.failed) /
                   static_cast<double>(outcome.attempted),
         "share"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    const std::map<std::string, double> self = recorder.self_ms();
    double client_self = 0.0;
    double service_self = 0.0;
    for (const auto& [name, ms] : self) {
      if (name.rfind("serve.client.", 0) == 0) client_self += ms;
      if (name == "serve.service") service_self += ms;
    }
    const double serve_self = client_self + service_self;
    const double hits = count(after.cache_hits, before.cache_hits);
    const double misses = count(after.cache_misses, before.cache_misses);
    metrics = complete_layer_metrics({
        {"serve.hit.client_p90_ms", quantile(hit_ms, 0.9), "ms"},
        {"serve.hit.client_p99_ms", quantile(hit_ms, 0.99), "ms"},
        {"serve.hit.service_p99_ms", quantile(hit_service, 0.99), "ms"},
        {"serve.predict.client_p90_ms", quantile(predict_ms, 0.9), "ms"},
        {"serve.predict.client_p99_ms", quantile(predict_ms, 0.99), "ms"},
        {"serve.predict.service_p99_ms", quantile(predict_service, 0.99), "ms"},
        {"serve.cold.client_p50_ms", 1000.0 * across_cells(cold_s, median), "ms"},
        {"serve.cold.service_p50_ms", median(cold_service), "ms"},
        {"serve.store.lookup_us", median(lookup_us), "us"},
        {"serve.cache_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
         "ratio"},
        {"serve.coalesced", count(after.coalesced, before.coalesced), "count"},
        {"serve.rejected", count(after.rejected, before.rejected), "count"},
        {"serve.tunes_executed", count(after.tunes_executed, before.tunes_executed),
         "count"},
        {"serve.gen_lag_ms", quantile(lag_ms, 0.99), "ms"},
        {"self_share.serve.client", serve_self > 0.0 ? client_self / serve_self : 0.0,
         "ratio"},
        {"self_share.serve.service",
         serve_self > 0.0 ? service_self / serve_self : 0.0, "ratio"},
        {"trace.spans", static_cast<double>(recorder.spans().size()), "count"},
    });
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!recorder.write(path))
      std::cerr << "perfbench: could not write " << path << "\n";
  }
  emit_result(options, make_run_record(options), outcome, metrics);
  return 0;
}

}  // namespace perfbench
