#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;    // rounds, census_query or ward.
  uint64_t seed = 0;       // The only input of the census generator.
  double seconds = 10;     // Length of the measured phase.
  bool trace = false;      // Traced run: per-layer metrics only.
  std::string dir;         // Private directory for handoff files.
  std::string trace_out;   // Where a traced run writes its spans, if set.
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Report {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  // One JSON object describing the run: workload, seed, sizes, sample
  // counts, build type and obs setting.
  std::string meta_json;
};

// Census size of a workload; 0 for an unknown name.
int PatientsFor(const std::string& workload);

// Runs one workload. Never throws; failures land in the report.
Report RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
