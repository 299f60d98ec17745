#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// The p-th percentile (0..100) of `v` by linear interpolation between
// closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

// Latency samples in fixed memory: log-spaced buckets 0.1% wide from 0.01
// to 1e8 (in the caller's unit), so a percentile is off by at most 0.1%.
// Memory does not grow with run length, which keeps peak_rss_mb a measure
// of SLIM rather than of how many samples a run kept.
class Histogram {
 public:
  void Record(double v);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  // The p-th percentile (0..100), the centre of its bucket; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint32_t> counts_;  // Allocated on the first Record.
  uint64_t count_ = 0;
};

// Peak resident set size of this process, in MiB.
double PeakRssMiB();

// Deltas of obs registry counters (read through
// obs::DefaultRegistry().CounterValue) accumulated over measured windows.
class CounterWindows {
 public:
  explicit CounterWindows(std::vector<std::string> names);
  void Begin();
  void End();
  uint64_t Delta(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<uint64_t> at_begin_;
  std::map<std::string, uint64_t> totals_;
};

// Accepted/failed operation counts plus the first few failure messages.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  // Counts one operation; returns `ok`.
  bool Check(bool ok, const std::string& what);
  void Merge(const Outcome& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
