#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Benchmark-owned spans. The program under test is not instrumented for
// this benchmark: every span here is opened by benchmark code around a call
// into one module's public functions. Spans are kept in per-thread memory
// and collected when the run ends.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct SpanRecord {
  const char* name = nullptr;  // Static string; one per call site.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index into the collected vector; -1 for a root.
  uint64_t request = 0;  // Shared by a root span and all its descendants.
};

// Process-wide span recording switch. Off by default; the untraced run
// never turns it on.
void SetTracing(bool on);
bool TracingOn();

// RAII span. Records nothing unless tracing is on (and not paused on this
// thread) when it is opened. A span opened with no open parent on its
// thread starts a new request.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

// Suspends span recording on this thread, for output checks that call the
// same public functions as the measured operations.
class PauseTracing {
 public:
  PauseTracing();
  ~PauseTracing();
  PauseTracing(const PauseTracing&) = delete;
  PauseTracing& operator=(const PauseTracing&) = delete;

 private:
  bool was_paused_;
};

// Moves every thread's recorded spans into one vector, re-basing parent
// indices. Call only while no other thread is recording.
std::vector<SpanRecord> CollectSpans();

// Self time of each span: its duration minus the part of it covered by its
// children. Index-aligned with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

// Writes the first `limit` spans as JSON lines (name, start/end in ns,
// parent, request).
bool WriteSpansJsonl(const std::vector<SpanRecord>& spans, size_t limit,
                     const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
