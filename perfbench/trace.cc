#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;  // Local indices of the spans still open.
  bool paused = false;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_request{1};

// Buffers outlive their threads so a run can collect spans after joining.
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!TracingOn()) return;
  ThreadBuffer& buf = LocalBuffer();
  if (buf.paused) return;
  SpanRecord rec;
  rec.name = name;
  if (buf.open.empty()) {
    rec.request = g_next_request.fetch_add(1, std::memory_order_relaxed);
  } else {
    rec.parent = buf.open.back();
    rec.request = buf.spans[static_cast<size_t>(rec.parent)].request;
  }
  index_ = static_cast<int64_t>(buf.spans.size());
  buf.open.push_back(index_);
  buf.spans.push_back(rec);
  buf.spans.back().start_ns = NowNs();
}

Span::~Span() {
  if (index_ < 0) return;
  int64_t end = NowNs();
  ThreadBuffer& buf = LocalBuffer();
  buf.spans[static_cast<size_t>(index_)].end_ns = end;
  buf.open.pop_back();
}

PauseTracing::PauseTracing() {
  ThreadBuffer& buf = LocalBuffer();
  was_paused_ = buf.paused;
  buf.paused = true;
}

PauseTracing::~PauseTracing() { LocalBuffer().paused = was_paused_; }

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buf : g_buffers) {
    int64_t base = static_cast<int64_t>(out.size());
    for (SpanRecord rec : buf->spans) {
      if (rec.parent >= 0) rec.parent += base;
      out.push_back(rec);
    }
    buf->spans.clear();
  }
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // Children of one parent run one after another on the parent's thread,
  // so subtracting each child's clipped duration removes exactly the part
  // of the parent they cover.
  for (const SpanRecord& child : spans) {
    if (child.parent < 0) continue;
    const SpanRecord& parent = spans[static_cast<size_t>(child.parent)];
    int64_t lo = std::max(child.start_ns, parent.start_ns);
    int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) self[static_cast<size_t>(child.parent)] -= hi - lo;
  }
  return self;
}

bool WriteSpansJsonl(const std::vector<SpanRecord>& spans, size_t limit,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  for (size_t i = 0; i < spans.size() && i < limit; ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return out.good();
}

}  // namespace perfbench
