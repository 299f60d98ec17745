#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/lock_profiler.h"
#include "obs/metrics.h"
#include "rounds.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/icu.h"

namespace perfbench {

using slim::Result;
using slim::Status;

namespace {

// Every run covers this many censuses, each generated from its own seed
// derived from --seed: how fast the store's indexes serve a census depends
// on its content, so one census per run would make runs with different
// seeds differ by more than the bounds.
constexpr int kCensuses = 4;
// Each census is set up this many times (the last is kept); setup_s is the
// median of all of them.
constexpr int kSetupRepeats = 3;
// census_query and ward run an interlude (see Interlude) this often.
constexpr double kInterludeSeconds = 1;
constexpr int kInterludeRotations = 128;
// census_query and ward ask their questions about this many distinct
// electrolyte labels (three questions each).
constexpr size_t kCensusLabels = 128;
constexpr size_t kWardLabels = 64;
constexpr int kWardReaders = 3;
// census_query alternates traced and untraced blocks of this many queries.
constexpr int kQueryBlock = 16;
constexpr size_t kSpansWritten = 200000;

double MsBetween(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}
double SecondsBetween(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

// Tracing on also installs the lock profiler, so lock waits are measured
// only where spans are.
void SetTraced(bool on) {
  SetTracing(on);
  if (on) {
    (void)slim::obs::LockProfiler::Default().Install(nullptr);
  } else {
    slim::obs::LockProfiler::Default().Uninstall();
  }
}

struct Fixture {
  std::unique_ptr<BaseLayer> base;
  std::unique_ptr<Deployment> pad;
  PadLayout layout;
};

// What a workload hands back to the report.
struct Measured {
  std::vector<double> setup_s;
  Samples setup;  // Samples of the setup builds and handoffs; not reported.
  Samples main;   // Everything the measured phase did.
  double main_wall_s = 0;
  // Wall time of the measured phase's gesture-making work (selections,
  // adds, deletes and opens; no output checks, no handoffs).
  double gesture_wall_s = 0;
  // Wall time of the measured phase's question-asking work.
  double query_wall_s = 0;
  // Per census, from its starting pad.
  std::vector<double> triples;
  std::vector<double> pad_bytes_per_scrap;
  // Trace overhead: wall time per unit of work, traced and untraced.
  double traced_wall_s = 0, untraced_wall_s = 0;
  double traced_work = 0, untraced_work = 0;
  // Traced ward: counters over the traced half, queries inside it.
  CounterWindows ward_query_counters{{"trim.select.calls",
                                      "trim.select.index.scan"}};
  uint64_t ward_traced_queries = 0;
  size_t renamed_mrns = 0;  // See BaseLayer::Register.
  std::vector<uint64_t> census_seeds;
};

// The seed of the i-th census of a run.
uint64_t CensusSeed(uint64_t seed, int i) {
  slim::Rng rng(seed);
  uint64_t out = 0;
  for (int k = 0; k <= i; ++k) out = rng.Next64();
  return out;
}

// Generates a census from its seed alone, registers it and builds the
// starting pad, kSetupRepeats times, timing each as one setup_s sample.
Status SetUp(int patients, uint64_t census_seed, RunContext& ctx,
             Measured& m, Fixture* out) {
  ctx.samples = &m.setup;
  bool probe = false;
  size_t objects_before = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    out->pad.reset();
    out->base.reset();
    int64_t t0 = NowNs();
    slim::workload::IcuOptions options;
    options.patients = patients;
    options.seed = census_seed;
    slim::workload::IcuWorkload census =
        slim::workload::GenerateIcuWorkload(options);
    int64_t t1 = NowNs();
    out->base = std::make_unique<BaseLayer>();
    Status st = out->base->Register(std::move(census));
    int64_t t2 = NowNs();
    if (!ctx.outcome.Check(st.ok(), "register census: " + st.ToString())) {
      return st;
    }
    out->pad = std::make_unique<Deployment>(out->base.get(), ctx.traced);
    // The per-layer build counts cover the kept build only.
    probe = ctx.traced && TracingOn() && rep + 1 == kSetupRepeats;
    objects_before = out->pad->app().dmi().NativeObjectCount();
    if (probe) ctx.probe.add_counters.Begin();
    st = BuildPad(*out->pad, ctx, &out->layout);
    int64_t t3 = NowNs();
    if (!st.ok()) return st;
    m.setup_s.push_back(SecondsBetween(t0, t3));
    ctx.probe.generate_ms.push_back(MsBetween(t0, t1));
    ctx.probe.register_ms.push_back(MsBetween(t1, t2));
  }
  slim::pad::SlimPadDmi& dmi = out->pad->app().dmi();
  if (probe) {
    ctx.probe.add_counters.End();
    ctx.probe.native_objects_added += dmi.NativeObjectCount() - objects_before;
    ctx.probe.scraps_added += dmi.Scraps().size();
  }
  // Sizes come from the starting pad, so they do not depend on how many
  // sessions or rotations a run gets through.
  PadFiles files;
  Handoff(*out->pad, {}, ctx, &files);
  double scraps = static_cast<double>(dmi.Scraps().size());
  double triples = static_cast<double>(out->pad->app().store().size());
  m.pad_bytes_per_scrap.push_back(
      static_cast<double>(files.pad_bytes + files.marks_bytes) / scraps);
  m.triples.push_back(triples);
  ctx.probe.bytes_per_triple.push_back(
      static_cast<double>(files.pad_bytes) / triples);
  m.renamed_mrns += out->base->renamed_mrns();
  m.census_seeds.push_back(census_seed);
  ctx.samples = &m.main;
  return Status::OK();
}

std::vector<std::string> DistinctLabels(const PadLayout& layout,
                                        slim::Rng& rng, size_t count) {
  std::vector<std::string> labels;
  for (const PadLayout::Lyte& l : layout.lytes) labels.push_back(l.label);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  for (size_t i = labels.size(); i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.Below(i)]);
  }
  if (labels.size() > count) labels.resize(count);
  return labels;
}

// A question with the answer size navigation gave at setup.
struct CheckedQuestion {
  Question q;
  size_t rows = 0;
};

// Answers every question once through the query engine and checks it
// against navigation over the DMI's object graph.
std::vector<CheckedQuestion> CheckQuestions(Deployment& d,
                                            const std::string& root,
                                            const std::vector<std::string>&
                                                labels,
                                            RunContext& ctx) {
  std::vector<CheckedQuestion> out;
  for (const std::string& label : labels) {
    for (int kind = 1; kind <= 3; ++kind) {
      Question q = MakeQuestion(kind, root, label);
      std::vector<std::string> nav;
      Result<std::vector<slim::store::Binding>> rows = [&] {
        PauseTracing pause;
        nav = Navigate(d.app().dmi(), root, q);
        return slim::store::ExecuteText(d.app().store(), q.text);
      }();
      ctx.outcome.Check(rows.ok() && AnswerColumn(*rows, kind) == nav &&
                            !nav.empty(),
                        "Q" + std::to_string(kind) + " \"" + label +
                            "\" disagrees with navigation");
      if (ctx.traced && TracingOn()) ProbeQuestion(d, root, q, ctx.probe);
      out.push_back({q, nav.size()});
    }
  }
  return out;
}

// A pad's content and size, to check that rotations left it as it was.
struct PadCheck {
  explicit PadCheck(Deployment& d)
      : signature(PadSignature(d)),
        triples(d.app().store().size()),
        marks(d.marks().size()) {}
  void ExpectSame(Deployment& d, RunContext& ctx) const {
    ctx.outcome.Check(PadSignature(d) == signature,
                      "pad content differs from the starting pad");
    ctx.outcome.Check(d.app().store().size() == triples &&
                          d.marks().size() == marks,
                      "pad size differs from the starting pad");
  }
  std::vector<std::string> signature;
  size_t triples;
  size_t marks;
};

// The clinician work census_query and ward do every kInterludeSeconds
// beside their own traffic: with `rotation`, rotate kInterludeRotations
// electrolyte scraps (census_query; the ward writer rotates all the time),
// open every marked scrap under both viewing styles, then hand the pad
// off. It spreads those workloads' add, open, save and load samples over
// the whole measured phase. Returns the wall time of the gestures, their
// output checks left out.
double Interlude(Deployment& d, Rotation* rotation,
                 const std::vector<Question>& questions, RunContext& ctx) {
  int64_t t0 = NowNs();
  int64_t checks_before = ctx.check_ns;
  for (int i = 0; rotation != nullptr && i < kInterludeRotations; ++i) {
    if (!rotation->Step(d, ctx).ok()) return 0;
  }
  OpenPass(d, ctx);
  int64_t gesture_ns = NowNs() - t0 - (ctx.check_ns - checks_before);
  Handoff(d, questions, ctx);
  return static_cast<double>(gesture_ns) / 1e9;
}

std::vector<Question> HandoffQuestions(
    const std::vector<CheckedQuestion>& questions) {
  std::vector<Question> out;
  for (size_t i = 0; i < 3 && i < questions.size(); ++i) {
    out.push_back(questions[i].q);
  }
  return out;
}

void RunRounds(const Options& opt, RunContext& ctx, Measured& m) {
  // Sessions take turns over the censuses' base layers.
  std::vector<Fixture> fixtures(kCensuses);
  for (int c = 0; c < kCensuses; ++c) {
    Fixture& f = fixtures[static_cast<size_t>(c)];
    if (!SetUp(PatientsFor(opt.workload), CensusSeed(opt.seed, c), ctx, m, &f)
             .ok()) {
      return;
    }
    f.pad.reset();  // Each session builds its own pad.
  }
  slim::Rng rng(opt.seed ^ 0x726f756e6473ULL);
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  // Traced runs alternate untraced and traced sessions.
  for (int session = 0; NowNs() < deadline || (ctx.traced && session < 2);
       ++session) {
    bool traced_session = ctx.traced && session % 2 == 1;
    if (ctx.traced) SetTraced(traced_session);
    Deployment d(fixtures[static_cast<size_t>(session % kCensuses)].base.get(),
                 ctx.traced);
    PadLayout layout;
    // Trace overhead compares only the work both kinds of session do the
    // same way: the build, the opens and the questions.
    int64_t t0 = NowNs();
    int64_t checks_before = ctx.check_ns;
    if (!BuildPad(d, ctx, &layout).ok()) break;
    OpenPass(d, ctx);
    int64_t same_work_ns = NowNs() - t0;
    m.gesture_wall_s +=
        static_cast<double>(same_work_ns - (ctx.check_ns - checks_before)) /
        1e9;
    // A label drawn uniformly from the distinct ones, as in census_query.
    const std::string label = DistinctLabels(layout, rng, 1).front();
    std::vector<Question> questions;
    for (int kind = 1; kind <= 3; ++kind) {
      Question q = MakeQuestion(kind, layout.root, label);
      CounterWindows* window =
          traced_session ? &ctx.probe.query_counters : nullptr;
      t0 = NowNs();
      Result<std::vector<slim::store::Binding>> rows =
          Ask(d.app().store(), q, ctx.samples, window);
      same_work_ns += NowNs() - t0;
      if (traced_session) ++ctx.probe.queries;
      std::vector<std::string> nav;
      {
        PauseTracing pause;
        nav = Navigate(d.app().dmi(), layout.root, q);
      }
      ctx.outcome.Check(rows.ok() && AnswerColumn(*rows, kind) == nav &&
                            !nav.empty(),
                        "session Q" + std::to_string(kind) + " \"" + label +
                            "\" disagrees with navigation");
      if (traced_session) ProbeQuestion(d, layout.root, q, ctx.probe);
      questions.push_back(std::move(q));
    }
    Handoff(d, questions, ctx);
    double wall = static_cast<double>(same_work_ns) / 1e9;
    (traced_session ? m.traced_wall_s : m.untraced_wall_s) += wall;
    (traced_session ? m.traced_work : m.untraced_work) += 1;
    if (ctx.outcome.failed > 0) break;
  }
  m.main_wall_s = SecondsBetween(start, NowNs());
  // A session asks each question once, so questions come at the rate the
  // whole session loop runs.
  m.query_wall_s = m.main_wall_s;
  if (ctx.traced) SetTraced(true);
}

void RunCensusQuery(const Options& opt, RunContext& ctx, Measured& m) {
  slim::Rng rng(opt.seed ^ 0x63656e737573ULL);
  const int64_t segment_ns =
      static_cast<int64_t>(opt.seconds * 1e9 / kCensuses);
  for (int c = 0; c < kCensuses && ctx.outcome.failed == 0; ++c) {
    Fixture f;
    if (!SetUp(PatientsFor(opt.workload), CensusSeed(opt.seed, c), ctx, m, &f)
             .ok()) {
      return;
    }
    std::vector<CheckedQuestion> questions = CheckQuestions(
        *f.pad, f.layout.root, DistinctLabels(f.layout, rng, kCensusLabels),
        ctx);
    std::vector<Question> handoff_questions = HandoffQuestions(questions);
    if (ctx.outcome.failed > 0) return;
    PadCheck start_pad(*f.pad);
    Rotation rotation{f.layout.lytes};
    const slim::trim::TripleStore& store = f.pad->app().store();
    int64_t start = NowNs();
    int64_t deadline = start + segment_ns;
    int64_t next_interlude = start;
    for (int block = 0; NowNs() < deadline || (ctx.traced && block < 2);
         ++block) {
      if (NowNs() >= next_interlude) {
        if (ctx.traced) SetTraced(true);
        m.gesture_wall_s +=
            Interlude(*f.pad, &rotation, handoff_questions, ctx);
        next_interlude =
            NowNs() + static_cast<int64_t>(kInterludeSeconds * 1e9);
      }
      bool traced_block = ctx.traced && block % 2 == 1;
      if (ctx.traced) SetTraced(traced_block);
      int64_t t0 = NowNs();
      for (int i = 0; i < kQueryBlock; ++i) {
        const CheckedQuestion& cq = questions[rng.Below(questions.size())];
        CounterWindows* window =
            traced_block ? &ctx.probe.query_counters : nullptr;
        Result<std::vector<slim::store::Binding>> rows =
            Ask(store, cq.q, ctx.samples, window);
        if (traced_block) ++ctx.probe.queries;
        ctx.outcome.Check(rows.ok() && rows->size() == cq.rows,
                          "Q" + std::to_string(cq.q.kind) + " \"" +
                              cq.q.label + "\" returned a wrong row count");
      }
      double wall = SecondsBetween(t0, NowNs());
      m.query_wall_s += wall;
      (traced_block ? m.traced_wall_s : m.untraced_wall_s) += wall;
      (traced_block ? m.traced_work : m.untraced_work) += kQueryBlock;
      if (ctx.outcome.failed > 0) break;
    }
    m.main_wall_s += SecondsBetween(start, NowNs());
    if (ctx.traced) SetTraced(true);
    start_pad.ExpectSame(*f.pad, ctx);
  }
}

// The ward writer: rotates electrolyte scraps (see Rotation) and every
// kInterludeSeconds runs an interlude. It runs on the thread that set the
// census up, so the pad and everything the writer adds to it share one
// malloc arena: a writer thread started anew for each census gets some
// arena or other from glibc, and peak_rss_mb would move with which.
struct WardWriter {
  Deployment& d;
  const std::vector<Question>& handoff_questions;
  Rotation rotation;
  int64_t next_interlude = NowNs();

  // Writes until `deadline`; adds each gesture to `work` and its wall time
  // to `gesture_s`. False when a gesture failed.
  bool RunUntil(int64_t deadline, RunContext& ctx, std::atomic<uint64_t>& work,
                double& gesture_s) {
    while (NowNs() < deadline) {
      if (NowNs() >= next_interlude) {
        gesture_s += Interlude(d, nullptr, handoff_questions, ctx);
        next_interlude =
            NowNs() + static_cast<int64_t>(kInterludeSeconds * 1e9);
      }
      int64_t t0 = NowNs();
      if (!rotation.Step(d, ctx).ok()) return false;
      gesture_s += SecondsBetween(t0, NowNs());
      work.fetch_add(1, std::memory_order_relaxed);
      if (TracingOn()) {
        ctx.probe.epoch_lag_max = std::max(
            ctx.probe.epoch_lag_max, d.app().store().GetEpochStats().lag);
      }
    }
    return true;
  }
};

void WardReader(const slim::trim::TripleStore& store,
                const std::vector<CheckedQuestion>& questions, uint64_t seed,
                Samples* samples, Outcome* outcome,
                const std::atomic<bool>& stop, std::atomic<uint64_t>& work,
                std::atomic<uint64_t>& traced_queries) {
  slim::Rng rng(seed);
  while (!stop.load(std::memory_order_relaxed)) {
    const CheckedQuestion& cq = questions[rng.Below(questions.size())];
    Result<std::vector<slim::store::Binding>> rows =
        Ask(store, cq.q, samples, nullptr);
    // The writer re-adds a scrap before deleting its twin, so a snapshot
    // sees each rotated label once or twice.
    bool ok = rows.ok() && rows->size() >= cq.rows &&
              rows->size() <= cq.rows + 1;
    if (!outcome->Check(ok, "ward Q" + std::to_string(cq.q.kind) + " \"" +
                                cq.q.label + "\" left the writer's bounds")) {
      break;
    }
    work.fetch_add(1, std::memory_order_relaxed);
    if (TracingOn()) traced_queries.fetch_add(1, std::memory_order_relaxed);
  }
}

// One census of a ward run: the writer (this thread) and kWardReaders
// reader threads for `segment_ns`; traced runs leave the first half
// untraced.
void WardSegment(const Options& opt, int census, int64_t segment_ns,
                 slim::Rng& rng, RunContext& ctx, Measured& m) {
  Fixture f;
  if (!SetUp(PatientsFor(opt.workload), CensusSeed(opt.seed, census), ctx, m,
             &f)
           .ok()) {
    return;
  }
  std::vector<CheckedQuestion> questions = CheckQuestions(
      *f.pad, f.layout.root, DistinctLabels(f.layout, rng, kWardLabels), ctx);
  std::vector<Question> handoff_questions = HandoffQuestions(questions);
  if (ctx.outcome.failed > 0) return;
  PadCheck start_pad(*f.pad);

  if (ctx.traced) SetTraced(false);
  // The readers touch neither ctx nor m until they are joined.
  std::vector<Samples> reader_samples(kWardReaders);
  std::vector<Outcome> reader_outcomes(kWardReaders);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> work{0};
  std::atomic<uint64_t> traced_queries{0};
  int64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kWardReaders; ++r) {
      threads.emplace_back(
          WardReader, std::cref(f.pad->app().store()), std::cref(questions),
          rng.Next64(), &reader_samples[static_cast<size_t>(r)],
          &reader_outcomes[static_cast<size_t>(r)], std::cref(stop),
          std::ref(work), std::ref(traced_queries));
    }
    int64_t end = start + segment_ns;
    int64_t flip = ctx.traced ? start + segment_ns / 2 : end;
    WardWriter writer{*f.pad, handoff_questions, Rotation{f.layout.lytes}};
    bool ok = writer.RunUntil(flip, ctx, work, m.gesture_wall_s);
    uint64_t work_at_flip = work.load();
    int64_t flipped_at = NowNs();
    if (ctx.traced) {
      m.ward_query_counters.Begin();
      SetTraced(true);
      if (ok) (void)writer.RunUntil(end, ctx, work, m.gesture_wall_s);
    }
    stop.store(true);
    for (std::thread& t : threads) t.join();
    int64_t stopped_at = NowNs();
    if (ctx.traced) {
      m.ward_query_counters.End();
      m.untraced_wall_s += SecondsBetween(start, flipped_at);
      m.untraced_work += static_cast<double>(work_at_flip);
      m.traced_wall_s += SecondsBetween(flipped_at, stopped_at);
      m.traced_work += static_cast<double>(work.load() - work_at_flip);
    }
    m.main_wall_s += SecondsBetween(start, stopped_at);
    // The readers ask questions for the whole segment.
    m.query_wall_s += SecondsBetween(start, stopped_at);
  }
  m.ward_traced_queries += traced_queries.load();
  for (int r = 0; r < kWardReaders; ++r) {
    m.main.Merge(reader_samples[static_cast<size_t>(r)]);
    ctx.outcome.Merge(reader_outcomes[static_cast<size_t>(r)]);
  }
  start_pad.ExpectSame(*f.pad, ctx);
}

void RunWard(const Options& opt, RunContext& ctx, Measured& m) {
  slim::Rng rng(opt.seed ^ 0x77617264ULL);
  const int64_t segment_ns =
      static_cast<int64_t>(opt.seconds * 1e9 / kCensuses);
  for (int c = 0; c < kCensuses && ctx.outcome.failed == 0; ++c) {
    WardSegment(opt, c, segment_ns, rng, ctx, m);
  }
}

// Helpers for the per-layer metrics, which come from collected spans.
struct SpanIndex {
  std::map<std::string, std::vector<double>> duration_us;
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> open_module_us;  // Module spans under an open.

  explicit SpanIndex(const std::vector<SpanRecord>& spans) {
    std::vector<int64_t> self = SelfTimesNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      duration_us[s.name].push_back(dur);
      self_us[s.name].push_back(static_cast<double>(self[i]) / 1e3);
      if (s.parent >= 0 &&
          std::strcmp(spans[static_cast<size_t>(s.parent)].name,
                      "slimpad.open_scrap") == 0) {
        open_module_us.push_back(dur);
      }
    }
  }
  double MedianUs(const std::string& name) const {
    auto it = duration_us.find(name);
    return it == duration_us.end() ? 0 : Median(it->second);
  }
  double MedianSelfUs(const std::string& name) const {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0 : Median(it->second);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

Histogram AllQueries(const Samples& s) {
  Histogram all;
  for (const Histogram& q : s.q_us) all.Merge(q);
  return all;
}

void AddEndToEnd(const Measured& m, Report& r) {
  const Samples& s = m.main;
  auto add = [&](const char* name, const char* unit, double value) {
    r.metrics.push_back({name, unit, value});
  };
  const Histogram& adds = s.add_us;
  add("setup_s", "s", Median(m.setup_s));
  // Scrap adds and opens, Q3, saves and loads are reported at p90, not
  // p50: the host switches between a fast and a slow speed every few
  // seconds, and their medians fall between the two and move with the
  // share of time spent in each, while p90 stays in the slow one. Q1 and
  // Q2, whose upper tails come from caches a Q3 left cold, repeat better
  // at p50 (design.json "percentiles" has the runs).
  add("add_scrap_p90_us", "us", adds.Percentile(90));
  add("add_scrap_p95_us", "us", adds.Percentile(95));
  add("open_scrap_p90_us", "us", s.open_us.Percentile(90));
  add("q1_p50_us", "us", s.q_us[0].Percentile(50));
  add("q2_p50_us", "us", s.q_us[1].Percentile(50));
  add("q3_p90_us", "us", s.q_us[2].Percentile(90));
  add("query_p95_us", "us", AllQueries(s).Percentile(95));
  add("save_p90_ms", "ms", Percentile(s.save_ms, 90));
  add("load_p90_ms", "ms", Percentile(s.load_ms, 90));
  add("gestures_per_s", "1/s",
      Ratio(static_cast<double>(s.gestures), m.gesture_wall_s));
  add("queries_per_s", "1/s",
      Ratio(static_cast<double>(s.queries), m.query_wall_s));
  add("peak_rss_mb", "MiB", PeakRssMiB());
  add("pad_bytes_per_scrap", "B", Mean(m.pad_bytes_per_scrap));
}

void AddPerLayer(const Options& opt, const Measured& m, const RunContext& ctx,
                 uint64_t mark_errors, Report& r) {
  std::vector<SpanRecord> spans = CollectSpans();
  // A 30-second traced rounds run records millions of spans; the file
  // keeps the first kSpansWritten for inspection, the metrics use them all.
  if (!opt.trace_out.empty() &&
      !WriteSpansJsonl(spans, kSpansWritten, opt.trace_out)) {
    r.errors.push_back("cannot write spans to " + opt.trace_out);
  }
  SpanIndex idx(spans);
  const LayerProbe& pr = ctx.probe;
  auto add = [&](const char* name, const char* unit, double value) {
    r.metrics.push_back({name, unit, value});
  };
  double scraps = static_cast<double>(pr.scraps_added);
  double queries = static_cast<double>(pr.queries);
  uint64_t select_calls = pr.query_counters.Delta("trim.select.calls");
  uint64_t select_scans = pr.query_counters.Delta("trim.select.index.scan");
  if (opt.workload == "ward") {
    // Ward readers share the store with the writer, so its counters cover
    // the whole traced half, the writer's selects included.
    select_calls = m.ward_query_counters.Delta("trim.select.calls");
    select_scans = m.ward_query_counters.Delta("trim.select.index.scan");
    queries = static_cast<double>(m.ward_traced_queries);
  }
  double write_hold_us = 0, contended_ratio = 0;
  for (const auto& site : slim::obs::LockProfiler::Default().Sites()) {
    if (site.site != nullptr &&
        std::strcmp(site.site, "trim.store.write") == 0) {
      write_hold_us = Ratio(static_cast<double>(site.hold_ns_total) / 1e3,
                            static_cast<double>(site.acquisitions));
      contended_ratio = Ratio(static_cast<double>(site.contended),
                              static_cast<double>(site.acquisitions));
    }
  }
  add("workload.generate_ms", "ms", Median(pr.generate_ms));
  add("baseapp.register_ms", "ms", Median(pr.register_ms));
  add("baseapp.select_us", "us", idx.MedianUs("baseapp.select"));
  add("doc.xml_parse_ms", "ms", idx.MedianUs("doc.xml_parse") / 1e3);
  add("mark.module_create_us", "us", idx.MedianUs("mark.module.create"));
  add("mark.module_resolve_us", "us", Median(idx.open_module_us));
  add("mark.save_ms", "ms", idx.MedianUs("mark.save") / 1e3);
  add("mark.load_ms", "ms", idx.MedianUs("mark.load") / 1e3);
  add("mark.errors", "count", static_cast<double>(mark_errors));
  add("slimpad.add_scrap_self_us", "us",
      idx.MedianSelfUs("slimpad.add_scrap"));
  add("slimpad.open_scrap_self_us", "us",
      idx.MedianSelfUs("slimpad.open_scrap"));
  add("dmi.creates_per_scrap", "count",
      Ratio(static_cast<double>(pr.add_counters.Delta("dmi.create.ok")),
            scraps));
  add("dmi.attr_writes_per_scrap", "count",
      Ratio(static_cast<double>(pr.add_counters.Delta("dmi.attr_write.ok")),
            scraps));
  add("dmi.attr_reads_per_open", "count",
      Ratio(static_cast<double>(pr.open_counters.Delta("dmi.attr_read.ok")),
            static_cast<double>(pr.opens)));
  add("dmi.objects_per_scrap", "count",
      Ratio(static_cast<double>(pr.native_objects_added), scraps));
  add("dmi.rebuild_ms", "ms", idx.MedianUs("dmi.rebuild") / 1e3);
  add("dmi.nav_q3_us", "us", Median(pr.nav_q3_us));
  add("slim.parse_us", "us", idx.MedianUs("slim.parse"));
  add("slim.plan_us", "us", Median(pr.plan_us));
  add("slim.q2_examined_per_row", "ratio",
      Ratio(static_cast<double>(pr.q2_examined),
            static_cast<double>(pr.q2_rows)));
  add("slim.q3_examined_per_row", "ratio",
      Ratio(static_cast<double>(pr.q3_examined),
            static_cast<double>(pr.q3_rows)));
  add("slim.q3_probes", "count",
      Ratio(static_cast<double>(pr.q3_probes),
            static_cast<double>(pr.q3_analyzed)));
  add("trim.triples", "count", Mean(m.triples));
  add("trim.adds_per_scrap", "count",
      Ratio(static_cast<double>(pr.add_counters.Delta("trim.add.ok")),
            scraps));
  add("trim.selects_per_query", "count",
      Ratio(static_cast<double>(select_calls), queries));
  add("trim.scan_ratio", "ratio",
      Ratio(static_cast<double>(select_scans),
            static_cast<double>(select_calls)));
  add("trim.select_us", "us", Median(pr.select_us));
  add("trim.save_ms", "ms", idx.MedianUs("trim.save") / 1e3);
  add("trim.load_ms", "ms", idx.MedianUs("trim.load") / 1e3);
  add("trim.bytes_per_triple", "B", Mean(pr.bytes_per_triple));
  add("trim.write_hold_us", "us", write_hold_us);
  add("trim.write_contended_ratio", "ratio", contended_ratio);
  add("trim.epoch_lag_max", "count", static_cast<double>(pr.epoch_lag_max));
  add("obs.trace_overhead", "ratio",
      Ratio(Ratio(m.traced_wall_s, m.traced_work),
            Ratio(m.untraced_wall_s, m.untraced_work)));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetaJson(const Options& opt, const Measured& m) {
  std::ostringstream o;
  const Samples& s = m.main;
  const Histogram& adds = s.add_us;
  o << "{\"workload\":" << JsonString(opt.workload) << ",\"seed\":" << opt.seed
    << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"patients\":" << PatientsFor(opt.workload)
    << ",\"census_seeds\":[";
  for (size_t i = 0; i < m.census_seeds.size(); ++i) {
    o << (i ? "," : "") << m.census_seeds[i];
  }
  o << "],\"renamed_duplicate_mrns\":" << m.renamed_mrns
    << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
    << ",\"slim_enable_obs\":" << JsonString(PERFBENCH_OBS)
    << ",\"flush_policy\":\"SavePad writes through std::ofstream and does "
       "not fsync; save_p90_ms includes no flush\""
    << ",\"samples\":{\"setup\":" << m.setup_s.size()
    << ",\"add_scrap\":" << adds.count()
    << ",\"open_scrap\":" << s.open_us.count()
    << ",\"q1\":" << s.q_us[0].count() << ",\"q2\":" << s.q_us[1].count()
    << ",\"q3\":" << s.q_us[2].count()
    << ",\"query_mix\":" << AllQueries(s).count()
    << ",\"save\":" << s.save_ms.size() << ",\"load\":" << s.load_ms.size();
  // Percentiles beside the ones reported as metrics, for judging which
  // percentiles repeat.
  auto pcts = [&](const char* name, auto percentile) {
    std::string out = std::string("\"") + name + "\":{";
    for (int p : {50, 90, 95, 99}) {
      out += (p == 50 ? "\"p" : ",\"p") + std::to_string(p) +
             "\":" + std::to_string(percentile(p));
    }
    return out + "}";
  };
  auto of = [](const Histogram& h) {
    return [&h](int p) { return h.Percentile(p); };
  };
  auto of_ms = [](const std::vector<double>& v) {
    return [&v](int p) { return Percentile(v, p) * 1e3; };
  };
  const Histogram mix = AllQueries(s);
  o << "},\"percentiles_us\":{" << pcts("add_scrap", of(adds)) << ","
    << pcts("open_scrap", of(s.open_us)) << "," << pcts("q1", of(s.q_us[0]))
    << "," << pcts("q2", of(s.q_us[1])) << "," << pcts("q3", of(s.q_us[2]))
    << "," << pcts("query_mix", of(mix)) << ","
    << pcts("save", of_ms(s.save_ms)) << "," << pcts("load", of_ms(s.load_ms));
  o << "},\"measured_phase_s\":" << m.main_wall_s << "}";
  return o.str();
}

}  // namespace

int PatientsFor(const std::string& workload) {
  if (workload == "rounds" || workload == "ward") return 64;
  if (workload == "census_query") return 256;
  return 0;
}

Report RunWorkload(const Options& opt) {
  Report report;
  RunContext ctx;
  ctx.traced = opt.trace;
  ctx.dir = opt.dir;
  Measured m;
  slim::obs::MetricsRegistry& registry = slim::obs::DefaultRegistry();
  uint64_t mark_errors_before = registry.CounterValue("mark.create.error") +
                                registry.CounterValue("mark.resolve.error");
  if (opt.trace) {
    slim::obs::LockProfiler::Default().Clear();
    SetTraced(true);
  }
  if (opt.workload == "rounds") {
    RunRounds(opt, ctx, m);
  } else if (opt.workload == "census_query") {
    RunCensusQuery(opt, ctx, m);
  } else if (opt.workload == "ward") {
    RunWard(opt, ctx, m);
  }
  if (opt.trace) SetTraced(false);
  uint64_t mark_errors = registry.CounterValue("mark.create.error") +
                         registry.CounterValue("mark.resolve.error") -
                         mark_errors_before;

  if (opt.trace) {
    AddPerLayer(opt, m, ctx, mark_errors, report);
  } else {
    AddEndToEnd(m, report);
  }
  // A run that could not produce a sample of a metric has not measured it.
  for (const Metric& metric : report.metrics) {
    if (!opt.trace && !(metric.value > 0)) {
      ctx.outcome.Check(false, "end-to-end metric " + metric.name +
                                   " has no sample");
    }
  }
  report.attempted = std::max<uint64_t>(ctx.outcome.attempted, 1);
  report.failed = ctx.outcome.failed;
  report.correct = ctx.outcome.failed == 0 && ctx.outcome.attempted > 0;
  report.errors.insert(report.errors.end(), ctx.outcome.errors.begin(),
                       ctx.outcome.errors.end());
  report.meta_json = MetaJson(opt, m);
  return report;
}

}  // namespace perfbench
