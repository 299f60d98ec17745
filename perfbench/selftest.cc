// Tests of the benchmark itself (not of SLIM):
//   1. TimedMarkModule is a pure pass-through.
//   2. Each traced request has one root span, and its spans' self times sum
//      to the root's duration.
//   3. The deterministic counts repeat exactly for a seed.
//
//   perfbench_selftest [--tmp-root DIR]

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "deployment.h"
#include "rounds.h"
#include "trace.h"
#include "trim/persistence.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond, what)                                         \
  do {                                                             \
    if (!(cond)) {                                                 \
      ++g_failures;                                                \
      std::cerr << "  FAILED: " << (what) << " (" #cond ")\n";     \
    }                                                              \
  } while (0)

constexpr int kPatients = 8;
constexpr uint64_t kSeed = 5;

std::unique_ptr<BaseLayer> MakeBase() {
  auto base = std::make_unique<BaseLayer>();
  slim::workload::IcuOptions options;
  options.patients = kPatients;
  options.seed = kSeed;
  slim::Status st =
      base->Register(slim::workload::GenerateIcuWorkload(options));
  EXPECT(st.ok(), "register census: " + st.ToString());
  return base;
}

// Everything a pad shows through public APIs after a build and an open of
// every scrap under both viewing styles.
struct Observed {
  std::string triples_xml;
  std::string marks_xml;
  std::vector<std::string> opens;
  std::map<std::string, std::vector<std::string>> answers;
};

Observed Observe(bool timed, const std::string& dir) {
  std::unique_ptr<BaseLayer> base = MakeBase();
  Deployment d(base.get(), timed);
  RunContext ctx;
  ctx.traced = timed;
  ctx.dir = dir;
  Samples samples;
  ctx.samples = &samples;
  PadLayout layout;
  SetTracing(timed);
  slim::Status st = BuildPad(d, ctx, &layout);
  EXPECT(st.ok(), "build: " + st.ToString());
  Observed out;
  for (slim::pad::ViewingStyle style :
       {slim::pad::ViewingStyle::kSimultaneous,
        slim::pad::ViewingStyle::kIndependent}) {
    d.app().set_viewing_style(style);
    for (const slim::pad::Scrap* s : d.app().dmi().Scraps()) {
      slim::Result<slim::pad::OpenResult> r = d.app().OpenScrap(s->id());
      out.opens.push_back(s->id() + " " +
                          (r.ok() ? r->mark_id + " " + r->in_place_content +
                                        (r->base_app_navigated ? " nav" : "")
                                  : r.status().ToString()));
    }
  }
  for (const PadLayout::Lyte& l : layout.lytes) {
    for (int kind = 1; kind <= 3; ++kind) {
      Question q = MakeQuestion(kind, layout.root, l.label);
      slim::Result<std::vector<slim::store::Binding>> rows =
          Ask(d.app().store(), q, nullptr, nullptr);
      out.answers[q.text] = rows.ok() ? AnswerColumn(*rows, kind)
                                      : std::vector<std::string>{"error"};
    }
  }
  SetTracing(false);
  (void)CollectSpans();
  out.triples_xml = slim::trim::StoreToXml(d.app().store());
  out.marks_xml = d.marks().ToXml();
  EXPECT(ctx.outcome.failed == 0, "output checks failed while observing");
  return out;
}

void TestDecoratorIsPassThrough(const std::string& dir) {
  Observed plain = Observe(false, dir);
  Observed timed = Observe(true, dir);
  EXPECT(!plain.marks_xml.empty() && plain.marks_xml == timed.marks_xml,
         "same marks with and without the decorator");
  EXPECT(plain.triples_xml == timed.triples_xml,
         "same pad triples with and without the decorator");
  EXPECT(!plain.opens.empty() && plain.opens == timed.opens,
         "same open outcomes with and without the decorator");
  EXPECT(!plain.answers.empty() && plain.answers == timed.answers,
         "same query answers with and without the decorator");
}

void TestSelfTimesSumToRoot(const std::string& dir) {
  (void)CollectSpans();
  std::unique_ptr<BaseLayer> base = MakeBase();
  Deployment d(base.get(), true);
  RunContext ctx;
  ctx.traced = true;
  ctx.dir = dir;
  Samples samples;
  ctx.samples = &samples;
  PadLayout layout;
  SetTracing(true);
  EXPECT(BuildPad(d, ctx, &layout).ok(), "traced build");
  OpenPass(d, ctx);
  std::vector<Question> questions;
  for (int kind = 1; kind <= 3; ++kind) {
    questions.push_back(MakeQuestion(kind, layout.root, layout.lytes[0].label));
    EXPECT(Ask(d.app().store(), questions.back(), &samples, nullptr).ok(),
           "traced question");
  }
  Handoff(d, questions, ctx);
  SetTracing(false);
  EXPECT(ctx.outcome.failed == 0, "output checks of the traced session");

  std::vector<SpanRecord> spans = CollectSpans();
  std::vector<int64_t> self = SelfTimesNs(spans);
  struct Request {
    int roots = 0;
    int64_t root_ns = 0;
    int64_t self_sum_ns = 0;
    size_t spans = 0;
  };
  std::map<uint64_t, Request> requests;
  std::map<std::string, int> names;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    Request& r = requests[s.request];
    ++names[s.name];
    ++r.spans;
    r.self_sum_ns += self[i];
    if (s.parent < 0) {
      ++r.roots;
      r.root_ns = s.end_ns - s.start_ns;
    } else {
      const SpanRecord& p = spans[static_cast<size_t>(s.parent)];
      EXPECT(p.request == s.request && p.start_ns <= s.start_ns &&
                 s.end_ns <= p.end_ns,
             std::string("span ") + s.name + " lies inside its parent");
    }
    EXPECT(self[i] >= 0, std::string("non-negative self time of ") + s.name);
  }
  // Children run one after another inside their parent on one thread, so
  // self times add up to the root exactly; 1 us allows for clock rounding.
  constexpr int64_t kToleranceNs = 1000;
  int bad = 0;
  for (const auto& [id, r] : requests) {
    if (r.roots != 1 || std::llabs(r.self_sum_ns - r.root_ns) > kToleranceNs) {
      ++bad;
    }
  }
  EXPECT(!requests.empty() && bad == 0,
         std::to_string(bad) + " of " + std::to_string(requests.size()) +
             " requests with one root and self times summing to it");
  for (const char* name :
       {"baseapp.select", "slimpad.add_scrap", "mark.module.create",
        "slimpad.open_scrap", "mark.module.resolve", "mark.module.extract",
        "query.q1", "query.q2", "query.q3", "slim.parse", "slim.execute",
        "handoff", "trim.save", "mark.save", "doc.xml_parse", "trim.load",
        "dmi.rebuild", "mark.load"}) {
    EXPECT(names[name] > 0, std::string("a traced session records ") + name);
  }
}

std::map<std::string, double> Metrics(const std::string& dir, bool trace) {
  Options opt;
  opt.workload = "rounds";
  opt.seed = kSeed;
  opt.seconds = 0.2;
  opt.trace = trace;
  opt.dir = dir;
  Report report = RunWorkload(opt);
  EXPECT(report.correct, "rounds run passes its output checks");
  std::map<std::string, double> out;
  for (const Metric& m : report.metrics) out[m.name] = m.value;
  return out;
}

void TestCountsRepeat(const std::string& dir) {
  std::map<std::string, double> a = Metrics(dir, true);
  std::map<std::string, double> b = Metrics(dir, true);
  for (const char* name :
       {"trim.triples", "trim.adds_per_scrap", "trim.bytes_per_triple",
        "dmi.creates_per_scrap", "dmi.attr_writes_per_scrap",
        "dmi.attr_reads_per_open", "dmi.objects_per_scrap"}) {
    EXPECT(a.count(name) && a[name] == b[name],
           std::string(name) + " repeats for a seed");
  }
  EXPECT(a["trim.triples"] > 0 && a["trim.adds_per_scrap"] > 0,
         "traced counts are measured");
  std::map<std::string, double> c = Metrics(dir, false);
  std::map<std::string, double> d = Metrics(dir, false);
  EXPECT(c["pad_bytes_per_scrap"] > 0 &&
             c["pad_bytes_per_scrap"] == d["pad_bytes_per_scrap"],
         "pad_bytes_per_scrap repeats for a seed");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string root = ".";
  if (argc == 3 && std::string(argv[1]) == "--tmp-root") root = argv[2];
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  std::string dir = root + "/perfbench-selftest-XXXXXX";
  if (mkdtemp(dir.data()) == nullptr) {
    std::cerr << "perfbench_selftest: cannot create a directory in " << root
              << "\n";
    return 1;
  }
  struct {
    const char* name;
    void (*fn)(const std::string&);
  } tests[] = {
      {"decorator_is_pass_through", perfbench::TestDecoratorIsPassThrough},
      {"self_times_sum_to_root", perfbench::TestSelfTimesSumToRoot},
      {"deterministic_counts_repeat", perfbench::TestCountsRepeat},
  };
  for (const auto& t : tests) {
    int before = perfbench::g_failures;
    t.fn(dir);
    std::cout << (perfbench::g_failures == before ? "PASS " : "FAIL ")
              << t.name << std::endl;
  }
  std::filesystem::remove_all(dir, ec);
  return perfbench::g_failures == 0 ? 0 : 1;
}
