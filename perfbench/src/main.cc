/// \file main.cc
/// \brief pfr_perfbench: runs one workload of the repository benchmark and
/// prints its metrics as one JSON line (the last line of stdout).
///
///   pfr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 [--scale <x>] [--inject corrupt-frame|digest-mismatch]
///                 [--span-out <path>] [--commit <id>]
///
/// Workloads: serve-ring-oi, engine-harmonic-1024, serve-sharded-hybrid.
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
/// Exit status: 0 when every correctness gate passed, 1 when one failed
/// (the result line still prints, with "correct": false), 2 on bad usage.
#include <sys/utsname.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pfr_perfbench: " << why
            << "\nusage: pfr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <x>] [--inject <what>] "
               "[--span-out <path>] [--commit <id>]\n";
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  pb::Options o;
  try {
    for (const auto& [key, value] : args) {
      if (key == "workload") {
        o.workload = value;
      } else if (key == "seed") {
        o.seed = std::stoull(value);
      } else if (key == "seconds") {
        o.seconds = std::stod(value);
      } else if (key == "trace") {
        o.trace = value == "1";
      } else if (key == "scale") {
        o.scale = std::stod(value);
      } else if (key == "inject") {
        o.inject = value;
      } else if (key == "span-out") {
        o.span_out = value;
      } else if (key == "commit") {
        o.commit = value;
      } else {
        usage("unknown flag --" + key);
      }
    }
  } catch (const std::exception&) {
    usage("bad value");
  }
  if (!(o.scale > 0) || !(o.seconds > 0)) usage("scale and seconds must be > 0");
  if (!o.inject.empty() && o.inject != "corrupt-frame" &&
      o.inject != "digest-mismatch") {
    usage("unknown --inject " + o.inject);
  }
  return o;
}

/// Where and how the numbers were taken, printed before the result line.
void print_context(const pb::Options& o) {
  utsname host{};
  ::uname(&host);
#ifdef PFR_SIMD
  const bool simd = true;
#else
  const bool simd = false;
#endif
  std::cout << "{\"context\": {\"host\": \"" << host.nodename
            << "\", \"machine\": \"" << host.machine
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << PB_COMPILER << "\", \"build_type\": \""
            << PB_BUILD_TYPE << "\", \"pfr_simd\": " << (simd ? "true" : "false")
            << ", \"commit\": \"" << o.commit << "\", \"workload\": \""
            << o.workload << "\", \"seed\": " << o.seed
            << ", \"seconds\": " << o.seconds
            << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"scale\": " << o.scale
            << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options opts = parse(argc, argv);
  void (*run)(const pb::Options&, pb::Report&) = nullptr;
  if (opts.workload == "serve-ring-oi") {
    run = pb::run_serve_ring_oi;
  } else if (opts.workload == "engine-harmonic-1024") {
    run = pb::run_engine_harmonic;
  } else if (opts.workload == "serve-sharded-hybrid") {
    run = pb::run_serve_sharded;
  } else {
    usage("unknown workload '" + opts.workload + "'");
  }
  print_context(opts);
  pb::Report report;
  try {
    run(opts, report);
  } catch (const std::exception& e) {
    std::cerr << "pfr_perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& why : report.errors()) {
    std::cerr << "gate failed: " << why << "\n";
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
