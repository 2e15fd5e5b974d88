/// \file common.h
/// \brief Shared pieces of the repository benchmark: options, the seeded
/// request generator, timing and statistics helpers, the in-memory span
/// log of traced runs, the episode record and the result report.
///
/// The benchmark drives the program only through its public headers
/// (net::, serve::, pfair::Engine, cluster::Cluster).  Everything here is
/// the benchmark's own code: inputs come from its own RNG, so a change to
/// the program's load generator never changes what is measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pfair/types.h"
#include "rational/rational.h"
#include "serve/request.h"

namespace pfr::cluster {}
namespace pfr::net {}
namespace pfr::obs {}

namespace pb {

namespace cluster = ::pfr::cluster;
namespace net = ::pfr::net;
namespace obs = ::pfr::obs;
namespace pfair = ::pfr::pfair;
namespace serve = ::pfr::serve;
using ::pfr::Rational;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Input-size multiplier (1 = the benchmark's size; the self-tests run
  /// tiny sizes).
  double scale{1.0};
  /// Fault injection for the gate self-tests: "corrupt-frame" or
  /// "digest-mismatch" (empty = none).
  std::string inject;
  /// Where a traced run writes its spans as JSON lines (empty = nowhere).
  std::string span_out;
  std::string commit{"unknown"};
};

// ----- deterministic RNG (xoshiro256** seeded through splitmix64) -----

class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Uniform double in [0, 1).
  double uniform01();

 private:
  std::uint64_t s_[4];
};

// ----- request generator -----

/// The service traffic shape of serve::generate_load: an initial set of
/// light k/64 tasks sized to `util` of capacity, then per-slot bursts of
/// 32..96 requests (mean 64) -- 4% queries, 2% joins, 2% leaves, the rest
/// reweights, each with a deadline 16 slots past its due slot.  Membership
/// stays inside [tasks/2, tasks] as the generator sees it (open loop: it
/// tracks what it asked for, not what the server accepted).
struct GenConfig {
  int processors{8};
  int tasks{32};
  std::uint64_t requests{10000};
  double util{0.6};           ///< initial utilization target (share of M)
  int join_k_lo{4};           ///< join weights k/64, k in [lo, hi]
  int join_k_hi{8};
  int reweight_k_lo{4};       ///< reweight targets k/64, k in [lo, hi]
  int reweight_k_hi{16};
  /// Hot subset: the first `hot_tasks` initial tasks are marked hot and
  /// never leave; while
  /// the request index lies in [burst_from, burst_to) (shares of the log),
  /// a reweight targets a hot task with probability `burst_share` and asks
  /// for k in [burst_k_lo, burst_k_hi].
  int hot_tasks{0};
  double burst_from{0};
  double burst_to{0};
  double burst_share{0};
  int burst_k_lo{16};
  int burst_k_hi{24};
};

struct InitialTask {
  std::string name;
  Rational weight;
  int rank{0};
  bool hot{false};
};

struct Load {
  std::vector<InitialTask> tasks;
  std::vector<serve::Request> requests;  ///< non-decreasing due, ids 1..N
};

[[nodiscard]] Load generate(const GenConfig& cfg, std::uint64_t seed);
/// `load` with the middle reweight's target changed: replaying it must
/// change the digests (the repeat-identity gate's self-test).
[[nodiscard]] Load perturb(const Load& load);

// ----- timing and statistics -----

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (the ceil(q*n)-th smallest); 0 on empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Quantile of whole-slot counts read as continuous time: a count d stands
/// for the interval [d, d+1), and the quantile interpolates linearly inside
/// the interval it falls in (so it moves smoothly instead of jumping from
/// one integer to the next, and is never 0).
[[nodiscard]] double slot_quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Median of the last tenth of `slot_ns` over the median of the first
/// tenth (1 when there are fewer than 20 samples).
[[nodiscard]] double growth(const std::vector<double>& slot_ns);
[[nodiscard]] double peak_rss_mb();

// ----- spans of a traced run -----

/// In-memory span log, one per thread (no locking).  A span names a call
/// into one layer; spans of one slot share `slot`; `parent` is the index
/// of the enclosing span in the same log (-1 for roots).
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t slot;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };
  std::int32_t add(const char* name, std::int64_t slot, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1) {
    spans_.push_back(Span{name, slot, start_ns, end_ns, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
};

/// Self time per span name: duration minus the time its children cover.
[[nodiscard]] std::map<std::string, double> self_ns_by_name(
    const SpanLog& log);
/// Appends every span of `logs` to `path` as JSON lines (thread = index).
void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs);

// ----- one repetition of a workload -----

/// What one episode (one full pass over the generated inputs) measured.
/// Host-time fields vary run to run; the rest repeat exactly for a seed.
struct Episode {
  int load{0};         ///< sub-load index
  bool warmup{false};  ///< checked by the gates, left out of the timings
  bool traced{false};
  double setup_s{0};
  double wall_s{0};                 ///< the serving/stepping loop
  std::vector<double> slot_ns;      ///< one run_slot / step each
  std::uint64_t offered{0};         ///< requests offered to the program
  std::uint64_t terminal{0};        ///< requests with a terminal response
  std::uint64_t failed{0};          ///< rejected + shed
  std::uint64_t slots{0};
  std::uint64_t misses{0};
  std::uint64_t response_digest{0};
  std::uint64_t schedule_digest{0};
  std::vector<double> enact_slots;  ///< due -> enactment, per enactment
  double drift_abs_mean{0};
  double drift_abs_max{0};
  /// Workload-specific gates that failed (e.g. lossy ring delivery).
  std::vector<std::string> failures;
  /// Layer metrics of a traced episode (name -> value); see
  /// layer_metric_units().
  std::map<std::string, double> layer;
};

/// Checks and measurements of one benchmark run.
class Report {
 public:
  /// Records a failed correctness gate; the run reports correct=false.
  void fail(const std::string& why);
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  /// The result line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string json() const;

  std::uint64_t attempted{0};
  std::uint64_t failed{0};

 private:
  std::vector<std::string> errors_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Seed of sub-load `k` of a run (each run measures several independent
/// inputs drawn from its --seed, so one unlucky draw cannot move a median).
[[nodiscard]] std::uint64_t subseed(std::uint64_t seed, int k);

/// Runs one episode on sub-load `load`.  `perturbed`: replay the inputs
/// with one request changed (the digest gate's self-test); `spans`: the
/// path the episode writes its spans to, or empty.
using EpisodeFn = std::function<Episode(bool traced, int load, bool perturbed,
                                        const std::string& spans)>;

/// Runs a warm-up episode on sub-load 0, then sub-loads 0..loads-1 once
/// each, then cycles through them again while `opts.seconds` allows (after
/// the first pass, no episode starts that would end past the deadline).
/// A traced run alternates traced and untraced episodes, starting with a
/// traced warm-up, so the tracing overhead is measured in the same run.
/// The second episode repeats the warm-up's inputs, which is what the
/// digest gate compares first.
[[nodiscard]] std::vector<Episode> repeat_episodes(const Options& opts,
                                                   int loads,
                                                   const EpisodeFn& episode);

/// The gates every workload shares (digest identity across repeats of a
/// sub-load, one terminal response per offered request, zero deadline
/// misses, the episodes' own failures), then the end-to-end metrics
/// (untraced run) or the per-layer metrics plus service.fail_share and
/// obs.trace_overhead_share (traced run).
void summarize(const Options& opts, const std::vector<Episode>& episodes,
               const std::vector<double>& setup_probes, Report& report);

/// Every per-layer metric name with its unit; a traced run prints all of
/// them (0 where a layer is not on the workload's path).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metric_units();

// ----- workloads -----

void run_serve_ring_oi(const Options& opts, Report& report);
void run_engine_harmonic(const Options& opts, Report& report);
void run_serve_sharded(const Options& opts, Report& report);

}  // namespace pb
