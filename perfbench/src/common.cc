#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

namespace pb {

// ----- RNG -----

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (std::uint64_t& w : s_) w = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return lo;
  // Rejection keeps every value equally likely.
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return lo + static_cast<std::int64_t>(x % span);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

// ----- generator -----

namespace {

// The serve::generate_load traffic shape.
constexpr int kMeanBatch = 64;            ///< requests per slot, 0.5x..1.5x
constexpr pfair::Slot kDeadlineSlack = 16;  ///< deadline = due + slack
constexpr double kQueryShare = 0.04;
constexpr double kJoinShare = 0.02;
constexpr double kLeaveShare = 0.02;      ///< the rest are reweights

}  // namespace

Load generate(const GenConfig& cfg, std::uint64_t seed) {
  Load out;
  Rng rng{seed};

  // Initial set: light weights k/64 around the utilization target.
  const double mean_weight =
      cfg.tasks > 0 ? cfg.util * cfg.processors / cfg.tasks : 0.0;
  const std::int64_t mean_k = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(mean_weight * 64.0), 2, 30);
  const std::int64_t k_lo = std::max<std::int64_t>(1, mean_k - 4);
  const std::int64_t k_hi = std::min<std::int64_t>(32, mean_k + 4);
  for (int i = 0; i < cfg.tasks; ++i) {
    InitialTask task;
    task.name = "T" + std::to_string(i);
    task.weight = Rational{rng.uniform_int(k_lo, k_hi), 64};
    task.rank = i;
    task.hot = i < cfg.hot_tasks;
    out.tasks.push_back(std::move(task));
  }

  std::vector<std::string> alive;
  for (const InitialTask& task : out.tasks) alive.push_back(task.name);
  std::vector<std::string> hot;
  for (const InitialTask& task : out.tasks) {
    if (task.hot) hot.push_back(task.name);
  }
  const auto is_hot = [&hot](const std::string& name) {
    return std::find(hot.begin(), hot.end(), name) != hot.end();
  };
  std::size_t leave_pick = 0;
  const std::size_t min_alive = std::max<std::size_t>(1, out.tasks.size() / 2);
  const auto pick = [&rng](const std::vector<std::string>& pool) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
  };
  const auto burst_from = static_cast<std::uint64_t>(
      cfg.burst_from * static_cast<double>(cfg.requests));
  const auto burst_to = static_cast<std::uint64_t>(
      cfg.burst_to * static_cast<double>(cfg.requests));
  int next_join = 0;

  out.requests.reserve(cfg.requests);
  pfair::Slot due = 0;
  std::int64_t left_in_burst = 0;
  while (out.requests.size() < cfg.requests) {
    if (left_in_burst == 0) {
      ++due;
      left_in_burst =
          rng.uniform_int(kMeanBatch / 2, kMeanBatch + kMeanBatch / 2);
    }
    --left_in_burst;

    serve::Request r;
    r.id = static_cast<serve::RequestId>(out.requests.size()) + 1;
    r.due = due;
    r.deadline = due + kDeadlineSlack;
    const std::uint64_t index = out.requests.size();
    const bool bursting = index >= burst_from && index < burst_to;

    const double roll = rng.uniform01();
    const bool may_join = alive.size() < static_cast<std::size_t>(cfg.tasks);
    if (roll < kQueryShare && !alive.empty()) {
      r.kind = serve::RequestKind::kQuery;
      r.task = alive[pick(alive)];
    } else if (roll < kQueryShare + kJoinShare && may_join) {
      r.kind = serve::RequestKind::kJoin;
      r.task = "J" + std::to_string(next_join++);
      r.weight = Rational{rng.uniform_int(cfg.join_k_lo, cfg.join_k_hi), 64};
      r.rank = cfg.tasks + next_join;
      alive.push_back(r.task);
    } else if (roll < kQueryShare + kJoinShare + kLeaveShare &&
               alive.size() > min_alive &&
               !is_hot(alive[leave_pick = pick(alive)])) {
      // Hot tasks stay for the whole log (a draw that lands on one falls
      // through to a reweight).
      r.kind = serve::RequestKind::kLeave;
      r.task = alive[leave_pick];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(leave_pick));
    } else if (bursting && !hot.empty() && rng.uniform01() < cfg.burst_share) {
      r.kind = serve::RequestKind::kReweight;
      r.task = hot[pick(hot)];
      r.weight = Rational{rng.uniform_int(cfg.burst_k_lo, cfg.burst_k_hi), 64};
    } else if (!alive.empty()) {
      r.kind = serve::RequestKind::kReweight;
      r.task = alive[pick(alive)];
      r.weight =
          Rational{rng.uniform_int(cfg.reweight_k_lo, cfg.reweight_k_hi), 64};
    } else {
      continue;
    }
    out.requests.push_back(std::move(r));
  }
  return out;
}

Load perturb(const Load& load) {
  Load out = load;
  for (std::size_t i = out.requests.size() / 2; i < out.requests.size(); ++i) {
    serve::Request& r = out.requests[i];
    if (r.kind != serve::RequestKind::kReweight) continue;
    r.weight = r.weight == Rational{1, 64} ? Rational{2, 64} : Rational{1, 64};
    break;
  }
  return out;
}

// ----- statistics -----

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double slot_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  std::size_t i = 0;
  while (i < v.size()) {
    std::size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;  // [i, j) all equal v[i]
    if (static_cast<double>(j) >= target || j == v.size()) {
      return v[i] + (target - static_cast<double>(i)) /
                        static_cast<double>(j - i);
    }
    i = j;
  }
  return v.back() + 1.0;
}

double growth(const std::vector<double>& slot_ns) {
  const std::size_t tenth = slot_ns.size() / 10;
  if (tenth < 2) return 1.0;
  const std::vector<double> first(slot_ns.begin(),
                                  slot_ns.begin() + static_cast<std::ptrdiff_t>(tenth));
  const std::vector<double> last(slot_ns.end() - static_cast<std::ptrdiff_t>(tenth),
                                 slot_ns.end());
  const double base = median(first);
  return base > 0 ? median(last) / base : 1.0;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----- spans -----

std::map<std::string, double> self_ns_by_name(const SpanLog& log) {
  const auto& spans = log.spans();
  // Children of each span as intervals; their union is what the span's
  // own work did not cover (parallel children overlap, so union, not sum).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanLog::Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [from, to] : kids) {
      const std::int64_t lo = std::max(from, reach);
      if (to > lo) covered += to - lo;
      reach = std::max(reach, to);
    }
    out[spans[i].name] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return out;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::ofstream out{path};
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      out << "{\"workload\":\"" << workload << "\",\"thread\":" << t
          << ",\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
          << s.name << "\",\"slot\":" << s.slot << ",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

// ----- report -----

void Report::fail(const std::string& why) { errors_.push_back(why); }

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": " << v
        << ", \"unit\": \"" << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

// ----- episodes -----

std::uint64_t subseed(std::uint64_t seed, int k) {
  const auto stream = static_cast<std::uint64_t>(k) + 1;
  Rng rng{seed ^ (std::uint64_t{0x9E3779B97F4A7C15} * stream)};
  return rng.next();
}

std::vector<Episode> repeat_episodes(const Options& opts, int loads,
                                     const EpisodeFn& episode) {
  std::vector<Episode> out;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(opts.seconds * 1e9);
  std::int64_t longest = 0;
  bool spans_written = false;
  for (int i = 0;; ++i) {
    const std::int64_t elapsed = now_ns() - start;
    if (i > loads && elapsed + longest > budget_ns) break;
    const int load = i == 0 ? 0 : (i - 1) % loads;
    // In a traced run the warm-up is traced and the next episode (same
    // inputs) is not, so the digest gate also proves tracing changes no
    // output.
    const bool traced = opts.trace && i % 2 == 0;
    const bool perturbed = opts.inject == "digest-mismatch" && i == 1;
    const bool spans = traced && !spans_written;
    spans_written = spans_written || spans;
    const std::int64_t t0 = now_ns();
    out.push_back(episode(traced, load, perturbed, spans ? opts.span_out : ""));
    out.back().load = load;
    out.back().warmup = i == 0;
    out.back().traced = traced;
    longest = std::max(longest, now_ns() - t0);
  }
  return out;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"net.encode_ns", "ns"},
        {"net.ring_push_blocked_s", "s"},
        {"net.pump_busy_s", "s"},
        {"net.pump_useful_ratio", "ratio"},
        {"net.frames", "count"},
        {"net.malformed", "count"},
        {"queue.depth_p50", "count"},
        {"queue.depth_max", "count"},
        {"queue.push_blocked_s", "s"},
        {"queue.overflow_shed", "count"},
        {"service.self_us_per_slot", "us"},
        {"service.batch_size_mean", "count"},
        {"service.admitted", "count"},
        {"service.clamped", "count"},
        {"service.rejected", "count"},
        {"service.deferred", "count"},
        {"service.shed", "count"},
        {"service.reject.unknown_task", "count"},
        {"service.reject.already_joined", "count"},
        {"service.reject.no_capacity", "count"},
        {"service.reject.leaving", "count"},
        {"service.reject.defer_exhausted", "count"},
        {"service.reject.other", "count"},
        {"service.fail_share", "ratio"},
        {"service.tasks_ever", "count"},
        {"service.live_task_ratio", "ratio"},
    };
    for (const char* phase :
         {"faults", "joins", "enactments", "releases", "events", "ideal",
          "dispatch.select", "dispatch.commit", "miss_detect"}) {
      u.emplace_back(std::string{"engine."} + phase + "_ns_per_slot", "ns");
    }
    for (const char* count :
         {"engine.dispatched", "engine.holes", "engine.initiations",
          "engine.enactments", "engine.oi_events", "engine.lj_events",
          "engine.halts", "engine.disruptions", "dispatch.fastpath.upserts",
          "dispatch.fastpath.pops", "dispatch.fastpath.erases",
          "accrual.fast_entries"}) {
      u.emplace_back(count, "count");
    }
    u.emplace_back("dispatch.pops_per_upsert", "ratio");
    for (int k = 0; k < 4; ++k) {
      u.emplace_back("cluster.shard_step_us." + std::to_string(k), "us");
    }
    u.emplace_back("cluster.shard_skew", "ratio");
    u.emplace_back("router.self_us_per_slot", "us");
    for (const char* count :
         {"cluster.elastic.loans", "cluster.elastic.units_lent",
          "cluster.elastic.recalls", "cluster.elastic.migrations_avoided"}) {
      u.emplace_back(count, "count");
    }
    u.emplace_back("cluster.migration.drift", "quanta");
    u.emplace_back("obs.trace_overhead_share", "ratio");
    return u;
  }();
  return kUnits;
}

void summarize(const Options& opts, const std::vector<Episode>& episodes,
               const std::vector<double>& setup_probes, Report& report) {
  // The first episode of each sub-load is its reference: later episodes of
  // the same inputs must reproduce its digests exactly.
  std::map<int, const Episode*> reference;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& ep = episodes[i];
    const std::string tag = "episode " + std::to_string(i) + " (load " +
                            std::to_string(ep.load) + "): ";
    const auto [it, first] = reference.emplace(ep.load, &ep);
    if (!first && (ep.response_digest != it->second->response_digest ||
                   ep.schedule_digest != it->second->schedule_digest)) {
      report.fail(tag + "response/schedule digest differs from its first run");
    }
    if (ep.terminal != ep.offered) {
      report.fail(tag + std::to_string(ep.terminal) +
                  " requests got exactly one terminal response, " +
                  std::to_string(ep.offered) + " were offered");
    }
    if (ep.misses != 0) {
      report.fail(tag + std::to_string(ep.misses) + " deadline misses");
    }
    for (const std::string& why : ep.failures) report.fail(tag + why);
  }

  // Simulated-time metrics repeat exactly for a sub-load, so one run of
  // each is enough; each metric is the median over the run's sub-loads
  // (the totals over all of them are the result's attempted/failed).
  std::vector<double> enact_p50;
  std::vector<double> enact_p99;
  std::vector<double> drift_means;
  std::vector<double> drift_maxima;
  for (const auto& [load, ep] : reference) {
    report.attempted += ep->offered;
    report.failed += ep->failed;
    enact_p50.push_back(slot_quantile(ep->enact_slots, 0.50));
    enact_p99.push_back(slot_quantile(ep->enact_slots, 0.99));
    drift_means.push_back(ep->drift_abs_mean);
    drift_maxima.push_back(ep->drift_abs_max);
  }

  // Host-time metrics: the median over the measured untraced episodes of
  // each episode's own figure.
  std::vector<double> setups = setup_probes;
  std::vector<double> req_rate;
  std::vector<double> slot_rate;
  std::vector<double> slot_p50;
  std::vector<double> slot_p99;
  std::vector<double> growths;
  std::vector<double> traced_p50;
  for (const Episode& ep : episodes) {
    if (ep.warmup) continue;
    if (ep.traced) {
      traced_p50.push_back(quantile(ep.slot_ns, 0.50) / 1e3);
      continue;
    }
    setups.push_back(ep.setup_s);
    req_rate.push_back(static_cast<double>(ep.terminal) / ep.wall_s);
    slot_rate.push_back(static_cast<double>(ep.slots) / ep.wall_s);
    slot_p50.push_back(quantile(ep.slot_ns, 0.50) / 1e3);
    slot_p99.push_back(quantile(ep.slot_ns, 0.99) / 1e3);
    growths.push_back(growth(ep.slot_ns));
  }

  if (!opts.trace) {
    report.metric("setup_s", median(setups), "s");
    report.metric("req_per_s", median(req_rate), "1/s");
    report.metric("slots_per_s", median(slot_rate), "1/s");
    report.metric("slot_us_p50", median(slot_p50), "us");
    report.metric("slot_us_p99", median(slot_p99), "us");
    report.metric("slot_cost_growth", median(growths), "ratio");
    report.metric("enact_slots_p50", median(enact_p50), "slots");
    report.metric("enact_slots_p99", median(enact_p99), "slots");
    report.metric("drift_abs_mean", median(drift_means), "quanta");
    report.metric("drift_abs_max", median(drift_maxima), "quanta");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::map<std::string, std::vector<double>> layer;
  for (const Episode& ep : episodes) {
    if (ep.warmup || !ep.traced) continue;
    for (const auto& [name, value] : ep.layer) layer[name].push_back(value);
  }
  // (rejected + shed) / offered over every sub-load of the run.
  layer["service.fail_share"] = {
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, report.attempted))};
  const double base = median(slot_p50);
  for (const auto& [name, unit] : layer_metric_units()) {
    double value = 0.0;
    if (name == "obs.trace_overhead_share") {
      value = base > 0 ? (median(traced_p50) - base) / base : 0.0;
    } else if (const auto it = layer.find(name); it != layer.end()) {
      value = median(it->second);
    }
    report.metric(name, value, unit);
  }
}

}  // namespace pb
