/// \file serve_common.h
/// \brief Readouts shared by the workloads: engine phase timers and spans,
/// engine counters and drift, and the service responses.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "pfair/engine.h"
#include "pfair/verify.h"
#include "serve/request.h"

namespace pb {

/// The engine's phase timers (Engine::set_metrics), resolved once.
class PhaseTimers {
 public:
  /// The reported phases, in step() order.  dispatch.select and
  /// dispatch.commit are timed inside the enclosing "dispatch" phase.
  static constexpr std::array<const char*, 9> kPhases = {
      "faults", "joins",           "enactments",      "releases",   "events",
      "ideal",  "dispatch.select", "dispatch.commit", "miss_detect"};
  using Totals = std::array<std::int64_t, kPhases.size()>;

  explicit PhaseTimers(obs::MetricsRegistry& registry)
      : dispatch_(&registry.timer("engine.phase.dispatch")) {
    for (std::size_t i = 0; i < kPhases.size(); ++i) {
      timers_[i] = &registry.timer(std::string{"engine.phase."} + kPhases[i]);
    }
  }
  [[nodiscard]] std::int64_t total_ns(std::size_t phase) const {
    return timers_[phase]->total_ns;
  }
  /// Time inside Engine::step so far: the top-level phases.
  [[nodiscard]] std::int64_t step_ns() const {
    std::int64_t sum = dispatch_->total_ns;
    for (std::size_t i = 0; i < kPhases.size(); ++i) {
      if (i != kSelect && i != kCommit) sum += timers_[i]->total_ns;
    }
    return sum;
  }

 private:
  static constexpr std::size_t kSelect = 6;
  static constexpr std::size_t kCommit = 7;
  std::array<obs::Timer*, kPhases.size()> timers_{};
  obs::Timer* dispatch_;
};

/// Adds one slot's engine phases as child spans of `parent`, laid end to
/// end from `start` (their order inside the step is fixed; only the
/// durations are measured).  `before` holds the previous totals and is
/// updated.
inline void add_phase_spans(SpanLog& log, std::int32_t parent,
                            std::int64_t slot, std::int64_t start,
                            const PhaseTimers& timers,
                            PhaseTimers::Totals& before) {
  std::int64_t at = start;
  for (std::size_t i = 0; i < PhaseTimers::kPhases.size(); ++i) {
    const std::int64_t now = timers.total_ns(i);
    const std::int64_t delta = now - before[i];
    before[i] = now;
    log.add(PhaseTimers::kPhases[i], slot, at, at + delta, parent);
    at += delta;
  }
}

/// Layer metrics of the engine(s): phase cost per slot and the stat
/// counters, summed over `engines`.
inline void engine_layer(const std::vector<const pfair::Engine*>& engines,
                         const std::vector<const PhaseTimers*>& timers,
                         std::uint64_t slots, Episode& ep) {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, slots));
  for (std::size_t p = 0; p < PhaseTimers::kPhases.size(); ++p) {
    double total = 0;
    for (const PhaseTimers* t : timers) {
      total += static_cast<double>(t->total_ns(p));
    }
    ep.layer[std::string{"engine."} + PhaseTimers::kPhases[p] +
             "_ns_per_slot"] = total / n;
  }
  pfair::EngineStats sum;
  for (const pfair::Engine* e : engines) {
    const pfair::EngineStats& s = e->stats();
    sum.dispatched += s.dispatched;
    sum.holes += s.holes;
    sum.initiations += s.initiations;
    sum.enactments += s.enactments;
    sum.oi_events += s.oi_events;
    sum.lj_events += s.lj_events;
    sum.halts += s.halts;
    sum.disruptions += s.disruptions;
    sum.fastpath_upserts += s.fastpath_upserts;
    sum.fastpath_pops += s.fastpath_pops;
    sum.fastpath_erases += s.fastpath_erases;
    sum.accrual_fast_entries += s.accrual_fast_entries;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  ep.layer["engine.dispatched"] = d(sum.dispatched);
  ep.layer["engine.holes"] = d(sum.holes);
  ep.layer["engine.initiations"] = d(sum.initiations);
  ep.layer["engine.enactments"] = d(sum.enactments);
  ep.layer["engine.oi_events"] = d(sum.oi_events);
  ep.layer["engine.lj_events"] = d(sum.lj_events);
  ep.layer["engine.halts"] = d(sum.halts);
  ep.layer["engine.disruptions"] = d(sum.disruptions);
  ep.layer["dispatch.fastpath.upserts"] = d(sum.fastpath_upserts);
  ep.layer["dispatch.fastpath.pops"] = d(sum.fastpath_pops);
  ep.layer["dispatch.fastpath.erases"] = d(sum.fastpath_erases);
  ep.layer["dispatch.pops_per_upsert"] =
      sum.fastpath_upserts > 0
          ? d(sum.fastpath_pops) / d(sum.fastpath_upserts)
          : 0.0;
  ep.layer["accrual.fast_entries"] = d(sum.accrual_fast_entries);
}

/// |drift| over every task of `engines` at the end of the run, and their
/// deadline misses.
inline void engine_outcome(const std::vector<const pfair::Engine*>& engines,
                           Episode& ep) {
  double sum = 0;
  double max = 0;
  std::size_t tasks = 0;
  for (const pfair::Engine* e : engines) {
    ep.misses += e->misses().size();
    for (std::size_t i = 0; i < e->task_count(); ++i) {
      const double d =
          std::abs(e->task(static_cast<pfair::TaskId>(i)).drift.to_double());
      sum += d;
      max = std::max(max, d);
      ++tasks;
    }
  }
  ep.drift_abs_mean = tasks > 0 ? sum / static_cast<double>(tasks) : 0.0;
  ep.drift_abs_max = max;
}

/// Maps a reject reason onto its service.reject.<slug> counter.
inline std::string reject_slug(const std::string& reason) {
  if (reason.find("defer window exhausted") != std::string::npos) {
    return "defer_exhausted";
  }
  if (reason == "unknown task") return "unknown_task";
  if (reason == "task name already joined") return "already_joined";
  if (reason == "no capacity (property W)") return "no_capacity";
  if (reason.find("leaving") != std::string::npos) return "leaving";
  return "other";
}

/// Reads the responses: one terminal response per offered id, failures,
/// enactment latencies; on a traced episode also the per-reason rejects.
inline void response_outcome(const std::vector<serve::Response>& responses,
                             std::uint64_t offered, Episode& ep) {
  std::vector<std::uint8_t> terminal(offered + 1, 0);
  for (const serve::Response& r : responses) {
    if (r.decision == serve::Decision::kDeferred) continue;
    if (r.id >= 1 && r.id <= offered && terminal[r.id] < 2) ++terminal[r.id];
    if (r.decision == serve::Decision::kRejected ||
        r.decision == serve::Decision::kShed) {
      ++ep.failed;
    }
    if (r.decision == serve::Decision::kRejected && ep.traced) {
      ep.layer["service.reject." + reject_slug(r.reason)] += 1;
    }
    const bool applied = r.decision == serve::Decision::kAccepted ||
                         r.decision == serve::Decision::kClamped;
    if (applied && r.enact_slot != pfair::kNever) {
      ep.enact_slots.push_back(static_cast<double>(r.enact_slot - r.due));
    }
  }
  ep.offered = offered;
  for (std::uint64_t id = 1; id <= offered; ++id) {
    if (terminal[id] == 1) ++ep.terminal;
  }
}

/// Live share of every task the engines ever held.
inline void membership_layer(const std::vector<const pfair::Engine*>& engines,
                             Episode& ep) {
  double ever = 0;
  double live = 0;
  for (const pfair::Engine* e : engines) {
    for (std::size_t i = 0; i < e->task_count(); ++i) {
      const pfair::TaskState& t = e->task(static_cast<pfair::TaskId>(i));
      ever += 1;
      if (t.left_at == pfair::kNever || t.left_at > e->now()) live += 1;
    }
  }
  ep.layer["service.tasks_ever"] = ever;
  ep.layer["service.live_task_ratio"] = ever > 0 ? live / ever : 0.0;
}

/// Service decision counters (ReweightService::ServiceStats and
/// ShardedService::RouterStats share these fields).
template <typename Stats>
void service_counts(const Stats& s, Episode& ep) {
  ep.layer["service.admitted"] = static_cast<double>(s.admitted);
  ep.layer["service.clamped"] = static_cast<double>(s.clamped);
  ep.layer["service.rejected"] = static_cast<double>(s.rejected);
  ep.layer["service.deferred"] = static_cast<double>(s.deferred);
  ep.layer["service.shed"] = static_cast<double>(s.shed);
}

}  // namespace pb
