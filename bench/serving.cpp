// Serving study: a seeded multi-tenant request storm (open, periodic and
// dual requests over shared and unique clouds) through PlanCache and the
// batching ServeFrontend, driven by closed-loop clients. Latency is submit
// to resolution. Three sections: the mixed storm at 1, 4 and 16 clients;
// a cache-hit storm that must build zero trees and zero moments after
// warmup; and an overload burst far above capacity, hardened (bounded
// queue, kShedOldest, deadline, degradation) against unhardened (kBlock).
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/moments.hpp"
#include "core/tree.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "serve/storm.hpp"
#include "study.hpp"
#include "util/timer.hpp"

namespace bltc::study {

namespace {

struct StormRun {
  std::vector<double> latency_ms;  ///< sorted
  double throughput = 0.0;         ///< requests per second
  std::size_t ok = 0, shed = 0, expired = 0;
  serve::FrontendStats frontend;

  /// Nearest-rank percentile.
  double pct(double p) const {
    const auto i = static_cast<std::size_t>(
        p * static_cast<double>(latency_ms.size()));
    return latency_ms[std::min(latency_ms.size() - 1, i)];
  }
};

/// Drive every storm request through `frontend` with `clients` closed-loop
/// threads. Shed and expired requests count in the latencies: under
/// overload, resolving them fast is the point of the hardening.
StormRun run_storm(serve::ServeFrontend& frontend, const RequestStorm& storm,
                   const serve::StormParams& presets, std::size_t clients,
                   double deadline_ms = 0.0) {
  StormRun run;
  run.latency_ms.assign(storm.requests.size(), 0.0);
  std::atomic<std::size_t> cursor{0}, ok{0}, shed{0}, expired{0};
  WallTimer wall;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= storm.requests.size()) return;
          serve::ServeRequest request =
              serve::storm_request(storm, storm.requests[i], presets);
          request.deadline_ms = deadline_ms;
          WallTimer timer;
          try {
            frontend.submit(request).get();
            ++ok;
          } catch (const serve::RequestShed&) {
            ++shed;
          } catch (const serve::DeadlineExceeded&) {
            ++expired;
          }
          run.latency_ms[i] = timer.seconds() * 1e3;
        }
      });
    }
  }
  run.throughput = static_cast<double>(storm.requests.size()) / wall.seconds();
  std::sort(run.latency_ms.begin(), run.latency_ms.end());
  run.ok = ok;
  run.shed = shed;
  run.expired = expired;
  run.frontend = frontend.stats();
  return run;
}

void warm(serve::ServeFrontend& frontend, const RequestStorm& storm,
          const serve::StormParams& presets) {
  for (const StormRequest& req : storm.requests) {
    frontend.evaluate_now(serve::storm_request(storm, req, presets));
  }
}

}  // namespace

void serving(bool quick) {
  constexpr int kRepeats = 3;
  StormSpec spec;
  spec.num_requests = quick ? 32 : 48;
  spec.num_shared = 3;
  spec.shared_size = quick ? 1024 : 2048;
  spec.small_size = 256;
  const RequestStorm storm = request_storm(spec, 20260809);
  const serve::StormParams presets = serve::default_storm_params(storm.box);

  StormSpec hit_spec = spec;  // every request revisits a shared cloud
  hit_spec.shared_fraction = 1.0;
  hit_spec.translate_fraction = 0.0;
  const RequestStorm hit_storm = request_storm(hit_spec, 77);
  StormSpec overload_spec = hit_spec;
  overload_spec.num_requests = 192;
  const RequestStorm overload_storm = request_storm(overload_spec, 99);
  constexpr std::size_t kOverloadClients = 32;
  constexpr double kDeadlineMs = 50.0;

  Report rep("serving", quick, kRepeats);
  rep.config("requests", std::to_string(spec.num_requests));
  rep.config("shared_size", std::to_string(spec.shared_size));
  rep.config("small_size", std::to_string(spec.small_size));
  rep.config("mix", "open+periodic+dual, yukawa for periodic");
  rep.config("frontend", "2 workers, group<=16, 0.5 ms max delay");
  rep.config("overload", "192 requests, 32 clients, 1 worker, queue<=8, "
                         "50 ms deadline (hardened)");

  serve::ServeOptions options;
  options.max_batch = 16;
  options.max_delay_ms = 0.5;
  options.workers = 2;

  serve::ServeOptions hardened;
  hardened.workers = 1;
  hardened.max_batch = 4;
  hardened.max_delay_ms = 0.2;
  hardened.max_queue_requests = 8;
  hardened.shed_policy = serve::ShedPolicy::kShedOldest;
  hardened.max_degrade_tier = 2;
  hardened.overload_factor = 1.0;
  hardened.ewma_alpha = 0.5;
  serve::ServeOptions unhardened = hardened;
  unhardened.shed_policy = serve::ShedPolicy::kBlock;
  unhardened.max_degrade_tier = 0;

  const auto total = [](const RequestStorm& s) {
    return static_cast<double>(s.requests.size());
  };
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::size_t clients : {1, 4, 16}) {
      serve::PlanCache cache;
      serve::ServeFrontend frontend(cache, options);
      const StormRun run = run_storm(frontend, storm, presets, clients);
      const std::string key = "clients" + std::to_string(clients) + "_";
      rep.wall(key + "p50_ms", "ms", run.pct(0.50));
      rep.wall(key + "p99_ms", "ms", run.pct(0.99));
      rep.wall(key + "throughput_rps", "1/s", run.throughput);
      rep.count(key + "cache_hits", "requests",
                static_cast<double>(cache.stats().hits));
      rep.count(key + "cache_misses", "requests",
                static_cast<double>(cache.stats().misses));
      rep.count(key + "executions", "calls",
                static_cast<double>(run.frontend.executions));
      rep.count(key + "fused_requests", "requests",
                static_cast<double>(run.frontend.fused_requests));
    }

    {
      serve::PlanCache cache;
      serve::ServeFrontend frontend(cache, options);
      warm(frontend, hit_storm, presets);
      const std::size_t trees = ClusterTree::build_count();
      const std::size_t moments = ClusterMoments::build_count();
      const StormRun run = run_storm(frontend, hit_storm, presets, 1);
      rep.wall("hitstorm_p50_ms", "ms", run.pct(0.50));
      rep.wall("hitstorm_p99_ms", "ms", run.pct(0.99));
      rep.wall("hitstorm_throughput_rps", "1/s", run.throughput);
      rep.count("hitstorm_tree_builds_after_warmup", "trees",
                static_cast<double>(ClusterTree::build_count() - trees));
      rep.count("hitstorm_moment_builds_after_warmup", "builds",
                static_cast<double>(ClusterMoments::build_count() - moments));
    }

    for (const bool hard : {true, false}) {
      serve::PlanCache cache;
      serve::ServeFrontend frontend(cache, hard ? hardened : unhardened);
      warm(frontend, overload_storm, presets);
      const StormRun run =
          run_storm(frontend, overload_storm, presets, kOverloadClients,
                    hard ? kDeadlineMs : 0.0);
      const std::string key =
          hard ? "overload_hardened_" : "overload_unhardened_";
      rep.wall(key + "p50_ms", "ms", run.pct(0.50));
      rep.wall(key + "p99_ms", "ms", run.pct(0.99));
      rep.wall(key + "throughput_rps", "1/s", run.throughput);
      rep.count(key + "ok_rate", "ratio",
                static_cast<double>(run.ok) / total(overload_storm));
      if (hard) {
        rep.count(key + "shed_rate", "ratio",
                  static_cast<double>(run.shed) / total(overload_storm));
        rep.count(key + "deadline_rate", "ratio",
                  static_cast<double>(run.expired) / total(overload_storm));
        rep.count(key + "degraded", "groups",
                  static_cast<double>(run.frontend.degraded));
      }
    }
  }
  rep.write();
}

}  // namespace bltc::study
