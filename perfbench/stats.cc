#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
constexpr double kHistLow = 0.01;
constexpr double kHistGrowth = 1.001;
const double kLogGrowth = std::log(kHistGrowth);
const size_t kHistBuckets =
    static_cast<size_t>(std::log(1e8 / kHistLow) / kLogGrowth) + 1;
}  // namespace

void Histogram::Record(double v) {
  if (counts_.empty()) counts_.assign(kHistBuckets, 0);
  double ratio = std::max(v, kHistLow) / kHistLow;
  size_t i = static_cast<size_t>(std::log(ratio) / kLogGrowth);
  ++counts_[std::min(i, kHistBuckets - 1)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) counts_.assign(kHistBuckets, 0);
  for (size_t i = 0; i < kHistBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  // Same rank rule as the vector Percentile, rounded to a whole sample.
  uint64_t rank = static_cast<uint64_t>(
      std::llround(p / 100.0 * static_cast<double>(count_ - 1)));
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistBuckets; ++i) {
    seen += counts_[i];
    if (seen > rank) {
      return kHistLow * std::exp((static_cast<double>(i) + 0.5) * kLogGrowth);
    }
  }
  return kHistLow * std::exp(static_cast<double>(kHistBuckets) * kLogGrowth);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

CounterWindows::CounterWindows(std::vector<std::string> names)
    : names_(std::move(names)), at_begin_(names_.size(), 0) {}

void CounterWindows::Begin() {
  for (size_t i = 0; i < names_.size(); ++i) {
    at_begin_[i] = slim::obs::DefaultRegistry().CounterValue(names_[i]);
  }
}

void CounterWindows::End() {
  for (size_t i = 0; i < names_.size(); ++i) {
    totals_[names_[i]] +=
        slim::obs::DefaultRegistry().CounterValue(names_[i]) - at_begin_[i];
  }
}

uint64_t CounterWindows::Delta(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second;
}

bool Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  return ok;
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

}  // namespace perfbench
