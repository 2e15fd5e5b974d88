/// \file serve_ring_oi.cc
/// \brief Workload serve-ring-oi: the full front door.  One producer
/// thread encodes wire frames into an anonymous ShmRing, one thread calls
/// IngestMux::pump_once, and the calling thread runs
/// ReweightService::run_slot (PD2-OI, M=8, 32 initial tasks, bursts of 64
/// requests per slot), long enough that departed tasks far outnumber live
/// ones.
#include <atomic>
#include <chrono>
#include <thread>

#include "common.h"
#include "net/ingest.h"
#include "net/spsc_ring.h"
#include "net/wire.h"
#include "serve/service.h"
#include "serve_common.h"
#include "threads.h"

namespace pb {
namespace {

constexpr std::uint64_t kRequests = 160000;
constexpr std::size_t kRingFrames = 4096;
constexpr std::size_t kQueueCapacity = 4096;
/// Extra engine-only slots after the log so late enactments resolve.
constexpr pfair::Slot kGrace = 128;
constexpr int kSetupProbes = 16;
/// Independent inputs per run (sub-loads of the run's seed).
constexpr int kLoads = 24;

GenConfig load_config(const Options& opts) {
  GenConfig g;
  g.processors = 8;
  g.tasks = 32;
  g.requests = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(static_cast<double>(kRequests) * opts.scale));
  return g;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.engine.processors = 8;
  cfg.engine.policy = pfair::ReweightPolicy::kOmissionIdeal;
  cfg.engine.policing = pfair::PolicingMode::kClamp;
  cfg.engine.record_slot_trace = false;
  cfg.queue_capacity = kQueueCapacity;
  return cfg;
}

struct ProducerStats {
  std::uint64_t sent{0};
  std::int64_t encode_ns{0};
  std::int64_t blocked_ns{0};
};

/// Streams the log into the ring: hello, one frame per request, bye.
/// Lossless: a full ring waits for space.  `corrupt` flips a payload byte
/// of the middle frame (the gate self-test).
void produce(net::ShmRing& ring, const std::vector<serve::Request>& requests,
             bool traced, bool corrupt, SpanLog& log, ProducerStats& st) {
  std::uint8_t frame[net::kFrameBytes];
  net::encode_hello(0, frame);
  ring.push_blocking(frame);
  std::size_t i = 0;
  while (i < requests.size()) {
    const pfair::Slot due = requests[i].due;
    const std::int64_t span_start = traced ? now_ns() : 0;
    for (; i < requests.size() && requests[i].due == due; ++i) {
      if (traced) {
        const std::int64_t t0 = now_ns();
        net::encode_request(requests[i], frame);
        st.encode_ns += now_ns() - t0;
      } else {
        net::encode_request(requests[i], frame);
      }
      if (corrupt && i == requests.size() / 2) frame[40] ^= 0x5a;
      if (!ring.try_push(frame)) {
        // Lossless: wait for the mux to drain, sleeping rather than
        // spinning so the waiting producer does not take a core from the
        // threads it is waiting on.
        const std::int64_t t0 = traced ? now_ns() : 0;
        do {
          if (ring.closed()) return;  // the episode is unwinding
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        } while (!ring.try_push(frame));
        if (traced) st.blocked_ns += now_ns() - t0;
      }
      ++st.sent;
    }
    if (traced) log.add("net.produce", due, span_start, now_ns());
  }
  net::encode_bye(frame);
  ring.push_blocking(frame);
}

struct PumpStats {
  std::uint64_t calls{0};
  std::uint64_t useful{0};
  std::int64_t busy_ns{0};
};

/// The mux loop, as IngestMux::run() drives it, with each pump_once call
/// visible to the trace.  `aborting` ends it early when the episode unwinds
/// (the producer then never sends its bye frame).
void pump(net::IngestMux& mux, bool traced, const std::atomic<bool>& aborting,
          SpanLog& log, PumpStats& st) {
  while (!aborting.load(std::memory_order_relaxed)) {
    const std::int64_t t0 = traced ? now_ns() : 0;
    const bool moved = mux.pump_once();
    if (traced) {
      const std::int64_t t1 = now_ns();
      ++st.calls;
      st.busy_ns += t1 - t0;
      if (moved) {
        ++st.useful;
        log.add("net.pump_once", -1, t0, t1);
      }
    }
    if (moved) continue;
    if (mux.all_sources_done()) {
      if (!mux.pump_once()) break;  // confirming quiescent pass
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

Episode run_episode(const Load& load, bool traced, bool corrupt,
                    const std::string& span_out) {
  Episode ep;
  ep.traced = traced;
  SpanLog consumer_log;
  SpanLog producer_log;
  SpanLog mux_log;
  ProducerStats produced;
  PumpStats pumped;
  obs::MetricsRegistry registry;

  const std::int64_t setup_start = now_ns();
  serve::ReweightService svc{service_config()};
  for (const InitialTask& t : load.tasks) {
    svc.seed_task(t.name, t.weight, t.rank);
  }
  net::ShmRing ring = net::ShmRing::create_anonymous(kRingFrames);
  net::IngestMux mux{svc.queue()};
  mux.add_ring(ring);
  if (traced) svc.set_metrics(&registry);
  std::atomic<bool> aborting{false};
  Workers workers{[&] {
    aborting.store(true);
    ring.close();
    svc.queue().close();
  }};
  workers.spawn([&] {
    produce(ring, load.requests, traced, corrupt, producer_log, produced);
  });
  workers.spawn([&] { pump(mux, traced, aborting, mux_log, pumped); });
  ep.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  const PhaseTimers timers{registry};
  PhaseTimers::Totals phase_before{};
  std::vector<double> depth;
  std::size_t responses_before = 0;
  std::uint64_t served = 0;
  const std::int64_t loop_start = now_ns();
  for (;;) {
    const pfair::Slot slot = svc.engine().now();
    if (traced) depth.push_back(static_cast<double>(svc.queue().depth()));
    const std::int64_t t0 = now_ns();
    const bool more = svc.run_slot();
    const std::int64_t t1 = now_ns();
    ep.slot_ns.push_back(static_cast<double>(t1 - t0));
    if (traced) {
      const std::int32_t span = consumer_log.add("service.run_slot", slot, t0, t1);
      add_phase_spans(consumer_log, span, slot, t0, timers, phase_before);
      served += svc.responses().size() - responses_before;
      responses_before = svc.responses().size();
    }
    if (!more) break;
  }
  ep.wall_s = static_cast<double>(now_ns() - loop_start) / 1e9;
  ep.slots = ep.slot_ns.size();
  workers.join();
  svc.run_to_completion(kGrace);

  response_outcome(svc.responses(), load.requests.size(), ep);
  const std::vector<const pfair::Engine*> engines{&svc.engine()};
  engine_outcome(engines, ep);
  ep.response_digest = svc.response_digest();
  ep.schedule_digest = pfair::schedule_digest(svc.engine());

  const net::IngestMux::Stats ms = mux.stats();
  if (ms.requests != produced.sent || ms.malformed != 0 ||
      produced.sent != load.requests.size()) {
    ep.failures.push_back("ring delivery not lossless: " +
                          std::to_string(produced.sent) + " frames sent, " +
                          std::to_string(ms.requests) + " requests delivered, " +
                          std::to_string(ms.malformed) + " malformed");
  }
  if (!traced) return ep;

  const double slots = static_cast<double>(ep.slots);
  ep.layer["net.encode_ns"] =
      produced.sent > 0
          ? static_cast<double>(produced.encode_ns) / static_cast<double>(produced.sent)
          : 0.0;
  ep.layer["net.ring_push_blocked_s"] = static_cast<double>(produced.blocked_ns) / 1e9;
  ep.layer["net.pump_busy_s"] = static_cast<double>(pumped.busy_ns) / 1e9;
  ep.layer["net.pump_useful_ratio"] =
      pumped.calls > 0 ? static_cast<double>(pumped.useful) /
                             static_cast<double>(pumped.calls)
                       : 0.0;
  ep.layer["net.frames"] = static_cast<double>(ms.frames);
  ep.layer["net.malformed"] = static_cast<double>(ms.malformed);
  ep.layer["queue.depth_p50"] = quantile(depth, 0.5);
  ep.layer["queue.depth_max"] = quantile(depth, 1.0);
  ep.layer["queue.overflow_shed"] =
      static_cast<double>(svc.queue().total_overflow_shed());
  ep.layer["service.self_us_per_slot"] =
      self_ns_by_name(consumer_log)["service.run_slot"] / slots / 1e3;
  ep.layer["service.batch_size_mean"] = static_cast<double>(served) / slots;
  service_counts(svc.stats(), ep);
  membership_layer(engines, ep);
  engine_layer(engines, {&timers}, ep.slots, ep);
  write_spans(span_out, "serve-ring-oi",
              {&consumer_log, &producer_log, &mux_log});
  return ep;
}

}  // namespace

void run_serve_ring_oi(const Options& opts, Report& report) {
  const GenConfig config = load_config(opts);
  std::vector<double> setup_probes;
  {
    GenConfig tasks_only = config;
    tasks_only.requests = 0;
    const Load idle = generate(tasks_only, subseed(opts.seed, 0));
    for (int i = 0; i < kSetupProbes; ++i) {
      setup_probes.push_back(run_episode(idle, false, false, "").setup_s);
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
        return run_episode(perturbed ? perturb(load) : load, traced,
                           opts.inject == "corrupt-frame", spans);
      });
  summarize(opts, episodes, setup_probes, report);
}

}  // namespace pb
