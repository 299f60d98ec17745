// slim_perfbench: runs one workload of the end-to-end Rounds benchmark and
// prints one JSON line of run metadata, then the result as the last line:
//
//   slim_perfbench --workload rounds --seed 1 --seconds 10 --trace 0
//       [--tmp-root DIR] [--trace-out FILE]
//
// The exit code is 0 only when every output check passed.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "slim_perfbench: " << why << "\n"
            << "usage: slim_perfbench --workload rounds|census_query|ward "
               "--seed N --seconds S --trace 0|1 [--tmp-root DIR] "
               "[--trace-out FILE]\n";
  return 2;
}

// Wall time of a fixed random pointer chase of 256Ki steps through 4 MiB,
// about the size of the benchmark's stores; median of three. It depends on the host's
// speed alone, so the run metadata can show when the host rather than the
// code moved a run's timings.
double HostProbeMs() {
  constexpr uint32_t kSlots = 1u << 20;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle.
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::vector<double> ms;
  uint32_t at = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (uint32_t step = 0; step < kSlots / 4; ++step) at = next[at];
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  static std::atomic<uint32_t> sink;
  sink.store(at, std::memory_order_relaxed);  // Keeps the chase.
  return perfbench::Median(ms);
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string tmp_root = ".";
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed " + value);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 600) {
        return Usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--tmp-root") {
      tmp_root = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (perfbench::PatientsFor(opt.workload) == 0) {
    return Usage("unknown workload '" + opt.workload + "'");
  }
  if (!have_seed || !have_trace) {
    return Usage("--seed and --trace are required");
  }

  // Handoff files go to a private directory, removed at exit, so runs in
  // one checkout never share a path.
  std::error_code ec;
  std::filesystem::create_directories(tmp_root, ec);
  std::string pattern = tmp_root + "/perfbench-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    std::cerr << "slim_perfbench: cannot create a directory in " << tmp_root
              << "\n";
    return 1;
  }
  opt.dir = pattern;

  double probe_before_ms = HostProbeMs();
  perfbench::Report report = perfbench::RunWorkload(opt);
  double probe_after_ms = HostProbeMs();
  std::filesystem::remove_all(opt.dir, ec);

  for (const std::string& e : report.errors) {
    std::cerr << "slim_perfbench: check failed: " << e << "\n";
  }
  std::ostringstream out;
  out << "{\"correct\":" << (report.correct ? "true" : "false")
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"metrics\":{";
  bool first = true;
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) continue;
    out << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":"
        << FormatValue(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << "{\"perfbench_run\":" << report.meta_json
            << ",\"host_probe_ms\":[" << FormatValue(probe_before_ms) << ","
            << FormatValue(probe_after_ms) << "]}\n"
            << out.str() << std::endl;
  return report.correct ? 0 : 1;
}
