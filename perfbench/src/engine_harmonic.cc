/// \file engine_harmonic.cc
/// \brief Workload engine-harmonic-1024: pfair::Engine::step alone on 1024
/// static light tasks with harmonic weights 1/2..1/11 at nearly full
/// utilization, plus a light stream of reweights issued through
/// Engine::request_weight_change.  No joins or leaves: no task ever
/// departs.  The schedule prefix is checked against the DispatchMode::kScan
/// oracle outside the timed region.
#include <algorithm>
#include <cmath>

#include "common.h"
#include "obs/metrics.h"
#include "pfair/engine.h"
#include "pfair/verify.h"
#include "serve_common.h"

namespace pb {
namespace {

constexpr int kTasks = 1024;
constexpr pfair::Slot kSlots = 6000;
/// Slots compared against the scan oracle (the oracle is several times
/// slower than the fast path, so only a prefix).
constexpr pfair::Slot kOraclePrefix = 1500;
/// A task is not reweighted again within this many slots of its last
/// request, so each request's enactment can be attributed; a request not
/// enacted by then (rejected) stops being tracked.
constexpr pfair::Slot kCooldown = 128;
constexpr int kSetupProbes = 16;
/// Independent inputs per run (sub-loads of the run's seed).
constexpr int kLoads = 24;

struct Change {
  pfair::Slot at;
  pfair::TaskId task;
  Rational weight;
};

struct Inputs {
  std::vector<Rational> weights;  ///< initial weight of task i
  int processors{0};
  pfair::Slot slots{0};
  std::vector<Change> changes;    ///< ordered by slot
};

Rational harmonic(std::int64_t k) { return Rational{1, 2 + k}; }

/// The dispatch_micro 1024-harmonic task shape (weights 1/(2 + i%10)) in a
/// seeded order, on the smallest M that fits them (>= 99% utilized), and a
/// reweight stream of 0..4 requests per slot to other harmonic weights.
Inputs make_inputs(const Options& opts, std::uint64_t seed) {
  Inputs in;
  Rng rng{seed};
  double total = 0;
  for (int i = 0; i < kTasks; ++i) in.weights.push_back(harmonic(i % 10));
  for (std::size_t i = in.weights.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(in.weights[i - 1], in.weights[j]);
  }
  for (const Rational& w : in.weights) total += w.to_double();
  in.processors = static_cast<int>(std::ceil(total));
  in.slots = std::max<pfair::Slot>(
      200, static_cast<pfair::Slot>(static_cast<double>(kSlots) * opts.scale));

  std::vector<Rational> current = in.weights;
  std::vector<pfair::Slot> last(static_cast<std::size_t>(kTasks), -kCooldown);
  for (pfair::Slot t = 1; t < in.slots; ++t) {
    const std::int64_t n = rng.uniform_int(0, 4);
    for (std::int64_t k = 0; k < n; ++k) {
      const auto id = static_cast<std::size_t>(rng.uniform_int(0, kTasks - 1));
      if (t - last[id] < kCooldown) continue;
      const Rational target = harmonic(rng.uniform_int(0, 9));
      if (target == current[id]) continue;
      last[id] = t;
      current[id] = target;
      in.changes.push_back(Change{t, static_cast<pfair::TaskId>(id), target});
    }
  }
  return in;
}

pfair::Engine build(const Inputs& in, pfair::DispatchMode mode) {
  pfair::EngineConfig cfg;
  cfg.processors = in.processors;
  cfg.policy = pfair::ReweightPolicy::kOmissionIdeal;
  cfg.policing = pfair::PolicingMode::kReject;
  cfg.dispatch_mode = mode;
  pfair::Engine engine{cfg};
  for (const Rational& w : in.weights) engine.add_task(w);
  return engine;
}

struct Pending {
  pfair::TaskId task;
  pfair::Slot due;
  int count;  ///< the task's enactment count before the request
};

/// FNV-1a over the sorted scheduled set of slot `t` of `engine`'s trace.
std::uint64_t slot_hash(const pfair::Engine& engine, pfair::Slot t) {
  std::vector<pfair::TaskId> ids =
      engine.trace().at(static_cast<std::size_t>(t)).scheduled;
  std::sort(ids.begin(), ids.end());
  std::uint64_t h = 14695981039346656037ULL;
  for (const pfair::TaskId id : ids) {
    h ^= static_cast<std::uint64_t>(id);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Steps `engine` through `slots`, issuing the changes due at each slot
/// just before its step.  Only the requests and the step are timed; the
/// enactment bookkeeping between steps is the benchmark's own.
void drive(pfair::Engine& engine, const Inputs& in, pfair::Slot slots,
           Episode& ep, SpanLog* log, const PhaseTimers* timers) {
  std::size_t next = 0;
  std::vector<Pending> pending;
  PhaseTimers::Totals phase_before{};
  std::int64_t timed = 0;
  for (pfair::Slot t = 0; t < slots; ++t) {
    const std::size_t first = next;
    for (std::size_t i = first;
         i < in.changes.size() && in.changes[i].at == t; ++i) {
      const Change& c = in.changes[i];
      pending.push_back(Pending{c.task, t, engine.task(c.task).enactment_count});
    }
    const std::int64_t t0 = now_ns();
    while (next < in.changes.size() && in.changes[next].at == t) {
      const Change& c = in.changes[next++];
      engine.request_weight_change(c.task, c.weight, t);
    }
    engine.step();
    const std::int64_t t1 = now_ns();
    timed += t1 - t0;
    ep.slot_ns.push_back(static_cast<double>(t1 - t0));
    if (log != nullptr) {
      const std::int32_t span = log->add("engine.step", t, t0, t1);
      add_phase_spans(*log, span, t, t0, *timers, phase_before);
    }
    // A request enacted in the step whose enactment count moved; one that
    // never enacts (rejected) stops being tracked after the cooldown.
    std::erase_if(pending, [&](const Pending& p) {
      if (engine.task(p.task).enactment_count > p.count) {
        ep.enact_slots.push_back(static_cast<double>(t - p.due));
        return true;
      }
      return t - p.due >= kCooldown;
    });
    ep.offered += next - first;
  }
  ep.wall_s = static_cast<double>(timed) / 1e9;
  ep.slots = static_cast<std::uint64_t>(slots);
}

/// `in` with the middle change's target moved to another weight.
Inputs perturb(const Inputs& in) {
  Inputs out = in;
  if (!out.changes.empty()) {
    Change& c = out.changes[out.changes.size() / 2];
    c.weight = c.weight == harmonic(9) ? harmonic(8) : harmonic(9);
  }
  return out;
}

Episode run_episode(const Inputs& in, bool traced, const std::string& span_out,
                    std::vector<std::uint64_t>* prefix) {
  Episode ep;
  ep.traced = traced;
  SpanLog log;
  obs::MetricsRegistry registry;
  const std::int64_t setup_start = now_ns();
  pfair::Engine engine = build(in, pfair::DispatchMode::kIncremental);
  ep.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  if (traced) engine.set_metrics(&registry);
  const PhaseTimers timers{registry};
  drive(engine, in, in.slots, ep, traced ? &log : nullptr, &timers);

  // The engine answers no requests: each one is initiated, rejected by
  // policing, or (targeting the weight the task already has) a no-op, so
  // the terminal-response gate has nothing to count here.
  const pfair::EngineStats& st = engine.stats();
  ep.terminal = ep.offered;
  ep.failed = static_cast<std::uint64_t>(st.rejected_requests);
  if (static_cast<std::uint64_t>(st.initiations + st.rejected_requests) >
      ep.offered) {
    ep.failures.push_back("the engine processed more requests than offered");
  }
  const std::vector<const pfair::Engine*> engines{&engine};
  engine_outcome(engines, ep);
  ep.schedule_digest = pfair::schedule_digest(engine);
  std::uint64_t h = 14695981039346656037ULL;
  for (const double slots : ep.enact_slots) {
    h ^= static_cast<std::uint64_t>(slots);
    h *= 1099511628211ULL;
  }
  ep.response_digest = h;
  if (prefix != nullptr) {
    for (pfair::Slot t = 0; t < std::min(kOraclePrefix, in.slots); ++t) {
      prefix->push_back(slot_hash(engine, t));
    }
  }
  if (!traced) return ep;
  engine_layer(engines, {&timers}, ep.slots, ep);
  write_spans(span_out, "engine-harmonic-1024", {&log});
  return ep;
}

}  // namespace

void run_engine_harmonic(const Options& opts, Report& report) {
  std::vector<double> setup_probes;
  {
    const Inputs first = make_inputs(opts, opts.seed);
    for (int i = 0; i < kSetupProbes; ++i) {
      const std::int64_t t0 = now_ns();
      const pfair::Engine engine = build(first, pfair::DispatchMode::kIncremental);
      setup_probes.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  }
  int cached = -1;
  Inputs inputs;
  std::vector<std::uint64_t> prefix;
  const std::vector<Episode> episodes = repeat_episodes(
      opts, kLoads,
      [&](bool traced, int index, bool perturbed, const std::string& spans) {
        if (index != cached) {
          inputs = make_inputs(opts, subseed(opts.seed, index));
          cached = index;
        }
        const bool oracle_prefix = index == 0 && prefix.empty();
        return run_episode(perturbed ? perturb(inputs) : inputs, traced, spans,
                           oracle_prefix ? &prefix : nullptr);
      });

  // The oracle: sub-load 0 under the reference scan dispatch, outside the
  // timed episodes, must schedule the same prefix.
  const Inputs first = make_inputs(opts, subseed(opts.seed, 0));
  pfair::Engine oracle = build(first, pfair::DispatchMode::kScan);
  Episode scratch;
  const pfair::Slot n = std::min(kOraclePrefix, first.slots);
  drive(oracle, first, n, scratch, nullptr, nullptr);
  for (pfair::Slot t = 0; t < n; ++t) {
    if (slot_hash(oracle, t) != prefix.at(static_cast<std::size_t>(t))) {
      report.fail("schedule differs from the kScan oracle at slot " +
                  std::to_string(t));
      break;
    }
  }
  summarize(opts, episodes, setup_probes, report);
}

}  // namespace pb
