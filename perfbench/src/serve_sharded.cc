/// \file serve_sharded.cc
/// \brief Workload serve-sharded-hybrid: a ShardedService over K=4 PD2
/// shards (hybrid-magnitude policy, so rules O/I and L/J both run) with
/// elastic lending enabled.  A few hundred tasks' requests go in through
/// RequestQueue::push, and ShardedService::run_slot steps the shards, both
/// on the calling thread.  Mid-run, a hot subset placed together on shard 0
/// asks for much larger weights, so shard loads diverge and the controller
/// lends processors.
#include <array>
#include <memory>
#include <stdexcept>

#include "cluster/cluster.h"
#include "cluster/elastic/controller.h"
#include "common.h"
#include "serve/router.h"
#include "serve_common.h"

namespace pb {
namespace {

constexpr int kShards = 4;
constexpr int kShardProcessors = 8;
constexpr std::uint64_t kRequests = 100000;
constexpr std::size_t kQueueCapacity = 4096;
constexpr pfair::Slot kGrace = 128;
constexpr int kSetupProbes = 16;
/// Independent inputs per run (sub-loads of the run's seed).
constexpr int kLoads = 24;

GenConfig load_config(const Options& opts) {
  GenConfig g;
  g.processors = kShards * kShardProcessors;
  g.tasks = 192;
  g.requests = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(static_cast<double>(kRequests) * opts.scale));
  g.util = 0.35;
  g.join_k_lo = 1;
  g.join_k_hi = 4;
  g.reweight_k_lo = 1;
  g.reweight_k_hi = 5;
  g.hot_tasks = 24;
  g.burst_from = 0.3;
  g.burst_to = 0.7;
  g.burst_share = 0.35;
  g.burst_k_lo = 20;
  g.burst_k_hi = 32;
  return g;
}

serve::ShardedServiceConfig service_config() {
  serve::ShardedServiceConfig cfg;
  for (int k = 0; k < kShards; ++k) {
    pfair::EngineConfig e;
    e.processors = kShardProcessors;
    e.policy = pfair::ReweightPolicy::kHybridMagnitude;
    e.policing = pfair::PolicingMode::kClamp;
    e.record_slot_trace = false;
    cfg.cluster.shards.push_back(e);
  }
  // Shards step one after another on the consumer thread.  With a worker
  // pool, every slot's hand-off to the workers put the host's scheduling
  // delays into the slot time: across ten runs of different seeds the
  // median slot p99 ranged from 770 to 2260 us.
  cfg.cluster.threads = 1;
  cfg.cluster.elastic.enabled = true;
  // As in cluster_scaling --skew: weigh pressure by utilization.  The
  // cluster counts every task a shard ever held as active (departed names
  // stay in its membership map), so with the default depth weight of 0.02
  // every shard's pressure passes the lend threshold once a few hundred
  // tasks have come and gone, and no shard lends again.
  cfg.cluster.elastic.depth_weight = 0.001;
  cfg.cluster.elastic.lend_threshold = 0.70;
  cfg.queue_capacity = kQueueCapacity;
  return cfg;
}

/// The producer's side, run on the serving thread: before each slot it
/// pushes the log's next requests until the queue is full again, which is
/// where a producer thread blocked on the full queue would leave it.  A
/// separate producer thread made the figures measure the host's scheduler:
/// with three busy loops beside the benchmark on a 4-vCPU VM, its lock
/// hand-offs cut req_per_s by 20% while the single-threaded engine workload
/// did not slow down.
class Feeder {
 public:
  Feeder(serve::RequestQueue& queue, const std::vector<serve::Request>& requests)
      : queue_(queue), requests_(requests), handle_(queue.add_producer()) {}

  /// Fills the queue before slot `slot` runs.
  void fill(pfair::Slot slot, bool traced, SpanLog& log) {
    if (done_) return;
    const std::int64_t start = traced ? now_ns() : 0;
    std::size_t room = queue_.capacity() - queue_.depth();
    for (; room > 0 && next_ < requests_.size(); --room, ++next_) {
      // Never blocks: the queue has room, and only this thread touches it.
      if (!queue_.push(handle_, requests_[next_])) {
        throw std::runtime_error("request queue closed while feeding");
      }
    }
    if (next_ == requests_.size()) {
      queue_.producer_done(handle_);
      done_ = true;
    } else if (requests_[next_ - 1].due <= slot) {
      // drain_slot(slot) would wait for a watermark past `slot` forever.
      throw std::runtime_error("request queue too small for one slot's batch");
    }
    if (traced) {
      const std::int64_t end = now_ns();
      push_ns_ += end - start;
      log.add("queue.push", slot, start, end);
    }
  }

  /// Time spent in push calls (traced slots only).
  [[nodiscard]] std::int64_t push_ns() const { return push_ns_; }

 private:
  serve::RequestQueue& queue_;
  const std::vector<serve::Request>& requests_;
  int handle_;
  std::size_t next_{0};
  bool done_{false};
  std::int64_t push_ns_{0};
};

Episode run_episode(const Load& load, bool traced, const std::string& span_out) {
  Episode ep;
  ep.traced = traced;
  SpanLog consumer_log;
  obs::MetricsRegistry registry;
  std::array<obs::MetricsRegistry, kShards> shard_registries;

  const std::int64_t setup_start = now_ns();
  serve::ShardedService svc{service_config()};
  for (const InitialTask& t : load.tasks) {
    if (t.hot) {
      svc.cluster().admit(t.name, t.weight, t.rank, /*forced_shard=*/0);
    } else {
      svc.seed_task(t.name, t.weight, t.rank);
    }
  }
  std::vector<std::unique_ptr<PhaseTimers>> timers;
  if (traced) {
    svc.set_metrics(&registry);
    for (int k = 0; k < kShards; ++k) {
      auto& reg = shard_registries[static_cast<std::size_t>(k)];
      svc.cluster().shard(k).set_metrics(&reg);
      timers.push_back(std::make_unique<PhaseTimers>(reg));
    }
  }
  Feeder feeder{svc.queue(), load.requests};
  ep.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  std::array<std::int64_t, kShards> step_before{};
  std::array<PhaseTimers::Totals, kShards> phase_before{};
  std::array<double, kShards> step_total{};
  std::vector<double> skew;
  std::vector<double> depth;
  std::size_t responses_before = 0;
  std::uint64_t served = 0;
  const std::int64_t loop_start = now_ns();
  for (;;) {
    const pfair::Slot slot = svc.cluster().now();
    feeder.fill(slot, traced, consumer_log);
    if (traced) depth.push_back(static_cast<double>(svc.queue().depth()));
    const std::int64_t t0 = now_ns();
    const bool more = svc.run_slot();
    const std::int64_t t1 = now_ns();
    ep.slot_ns.push_back(static_cast<double>(t1 - t0));
    if (traced) {
      const std::int32_t span = consumer_log.add("router.run_slot", slot, t0, t1);
      // Shards step in order inside run_slot; their spans are laid end to
      // end (only the durations are measured).
      double slowest = 0;
      double sum = 0;
      std::int64_t at = t0;
      for (std::size_t k = 0; k < kShards; ++k) {
        const std::int64_t now = timers[k]->step_ns();
        const std::int64_t step = now - step_before[k];
        step_before[k] = now;
        step_total[k] += static_cast<double>(step);
        slowest = std::max(slowest, static_cast<double>(step));
        sum += static_cast<double>(step);
        const std::int32_t shard_span =
            consumer_log.add("cluster.shard_step", slot, at, at + step, span);
        add_phase_spans(consumer_log, shard_span, slot, at, *timers[k],
                        phase_before[k]);
        at += step;
      }
      if (sum > 0) skew.push_back(slowest / (sum / kShards));
      served += svc.responses().size() - responses_before;
      responses_before = svc.responses().size();
    }
    if (!more) break;
  }
  ep.wall_s = static_cast<double>(now_ns() - loop_start) / 1e9;
  ep.slots = ep.slot_ns.size();
  svc.run_to_completion(kGrace);

  response_outcome(svc.responses(), load.requests.size(), ep);
  std::vector<const pfair::Engine*> engines;
  for (int k = 0; k < kShards; ++k) engines.push_back(&svc.cluster().shard(k));
  engine_outcome(engines, ep);
  ep.response_digest = svc.response_digest();
  ep.schedule_digest = svc.cluster().schedule_digest();
  const cluster::ElasticStats& elastic = svc.cluster().elastic()->stats();
  if (elastic.loans == 0) {
    ep.failures.push_back("the elastic controller made no loan");
  }
  if (!traced) return ep;

  const double slots = static_cast<double>(ep.slots);
  ep.layer["queue.depth_p50"] = quantile(depth, 0.5);
  ep.layer["queue.depth_max"] = quantile(depth, 1.0);
  ep.layer["queue.push_blocked_s"] = static_cast<double>(feeder.push_ns()) / 1e9;
  ep.layer["queue.overflow_shed"] =
      static_cast<double>(svc.queue().total_overflow_shed());
  const double self_us =
      self_ns_by_name(consumer_log)["router.run_slot"] / slots / 1e3;
  ep.layer["service.self_us_per_slot"] = self_us;
  ep.layer["router.self_us_per_slot"] = self_us;
  ep.layer["service.batch_size_mean"] = static_cast<double>(served) / slots;
  service_counts(svc.stats(), ep);
  membership_layer(engines, ep);
  std::vector<const PhaseTimers*> timer_view;
  for (std::size_t k = 0; k < kShards; ++k) {
    timer_view.push_back(timers[k].get());
    ep.layer["cluster.shard_step_us." + std::to_string(k)] =
        step_total[k] / slots / 1e3;
  }
  engine_layer(engines, timer_view, ep.slots, ep);
  ep.layer["cluster.shard_skew"] = median(skew);
  ep.layer["cluster.elastic.loans"] = static_cast<double>(elastic.loans);
  ep.layer["cluster.elastic.units_lent"] = static_cast<double>(elastic.units_lent);
  ep.layer["cluster.elastic.recalls"] = static_cast<double>(elastic.recalls);
  ep.layer["cluster.elastic.migrations_avoided"] =
      static_cast<double>(elastic.migrations_avoided);
  ep.layer["cluster.migration.drift"] =
      svc.cluster().stats().migration_drift.to_double();
  write_spans(span_out, "serve-sharded-hybrid", {&consumer_log});
  return ep;
}

}  // namespace

void run_serve_sharded(const Options& opts, Report& report) {
  const GenConfig config = load_config(opts);
  std::vector<double> setup_probes;
  {
    GenConfig tasks_only = config;
    tasks_only.requests = 0;
    const Load idle = generate(tasks_only, subseed(opts.seed, 0));
    for (int i = 0; i < kSetupProbes; ++i) {
      setup_probes.push_back(run_episode(idle, false, "").setup_s);
    }
  }
  int cached = -1;
  Load load;
  const std::vector<Episode> episodes = repeat_episodes(
      opts, kLoads,
      [&](bool traced, int index, bool perturbed, const std::string& spans) {
        if (index != cached) {
          load = generate(config, subseed(opts.seed, index));
          cached = index;
        }
        return run_episode(perturbed ? perturb(load) : load, traced, spans);
      });
  summarize(opts, episodes, setup_probes, report);
}

}  // namespace pb
