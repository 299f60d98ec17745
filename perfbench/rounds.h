#ifndef PERFBENCH_ROUNDS_H_
#define PERFBENCH_ROUNDS_H_

// The operations of the paper's Fig. 4 Rounds scenario, driven through
// public APIs with the benchmark's timers, spans and output checks around
// them: build the full Fig. 2 pad gesture by gesture, open every marked
// scrap under two viewing styles, ask Q1-Q3, hand the pad off.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "deployment.h"
#include "slim/query.h"
#include "stats.h"
#include "trim/triple_store.h"

namespace perfbench {

// End-to-end samples of one phase of a run.
struct Samples {
  Histogram add_us;
  Histogram open_us;
  std::array<Histogram, 3> q_us;  // Q1, Q2, Q3.
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  uint64_t gestures = 0;  // Completed scrap adds and opens.
  uint64_t queries = 0;   // Completed questions.

  void Merge(const Samples& other);
};

// Per-layer measurements a traced run takes besides its spans.
struct LayerProbe {
  std::vector<double> generate_ms;
  std::vector<double> register_ms;
  std::vector<double> nav_q3_us;
  std::vector<double> plan_us;
  std::vector<double> select_us;
  std::vector<double> bytes_per_triple;  // One per census.
  uint64_t q2_examined = 0, q2_rows = 0;
  uint64_t q3_examined = 0, q3_rows = 0, q3_probes = 0, q3_analyzed = 0;
  uint64_t scraps_added = 0;  // In the setup builds.
  uint64_t native_objects_added = 0;
  uint64_t opens = 0;
  uint64_t queries = 0;
  uint64_t epoch_lag_max = 0;
  // obs registry counter deltas over the setup builds, opens and
  // questions.
  CounterWindows add_counters{{"dmi.create.ok", "dmi.attr_write.ok",
                               "trim.add.ok"}};
  CounterWindows open_counters{{"dmi.attr_read.ok"}};
  CounterWindows query_counters{{"trim.select.calls",
                                 "trim.select.index.scan"}};
};

// State shared by the operations of one run (one thread).
struct RunContext {
  bool traced = false;    // Traced invocation: per-layer probes on.
  std::string dir;        // Private directory for handoff files.
  Samples* samples = nullptr;  // Sink of the current phase.
  LayerProbe probe;
  Outcome outcome;
  uint64_t handoffs = 0;  // Names handoff files uniquely.
  // Wall time OpenPass spent checking what each open showed; gesture
  // rates leave it out.
  int64_t check_ns = 0;
};

// Where BuildPad put the electrolyte scraps (the question targets and
// the ward writer's rotation).
struct PadLayout {
  std::string root;
  struct Lyte {
    size_t patient = 0;
    std::string bundle;
    std::string scrap;
    std::string label;
    slim::pad::Coordinate pos;
    slim::doc::xml::Element* result = nullptr;  // Owned by the XmlApp.
  };
  std::vector<Lyte> lytes;
};

// Cycles through the pad's electrolyte scraps: each step re-selects the
// next one's lab result, adds it to its bundle again (timed like any add),
// then deletes the older scrap and its mark, so the pad keeps its size and
// content.
struct Rotation {
  std::vector<PadLayout::Lyte> lytes;
  size_t next = 0;

  slim::Status Step(Deployment& d, RunContext& ctx);
};

// Scraps (graphic ones included) and marks the full pad holds for a
// census, computed from the census alone.
size_t ExpectedScraps(const slim::workload::IcuWorkload& census);
size_t ExpectedMarks(const slim::workload::IcuWorkload& census);

// Builds the full Fig. 2 pad: for each gesture a base-application
// selection, then SlimPadApp::AddScrapFromSelection (timed). Checks scrap
// and mark counts against the census.
slim::Status BuildPad(Deployment& d, RunContext& ctx, PadLayout* layout);

// Opens every marked scrap under simultaneous and then independent
// viewing (timed), checking where each open left the base application and
// what it showed.
void OpenPass(Deployment& d, RunContext& ctx);

// One of the three §6 questions about a scrap label.
struct Question {
  int kind = 1;  // 1, 2 or 3.
  std::string label;
  std::string text;
};
// Q1: scraps with the label. Q2: bundles holding such scraps (one join).
// Q3: root -> patient bundle -> Electrolyte bundle -> scrap -> handle ->
// mark id.
Question MakeQuestion(int kind, const std::string& root,
                      const std::string& label);

// The answer column of a question (Q1 scrap ids, Q2 bundle ids, Q3 mark
// ids), sorted.
std::vector<std::string> AnswerColumn(
    const std::vector<slim::store::Binding>& rows, int kind);
// The same answer by navigating the DMI's object graph.
std::vector<std::string> Navigate(slim::pad::SlimPadDmi& dmi,
                                  const std::string& root,
                                  const Question& q);

// Parses and executes a question (timed into `samples` when non-null;
// spans query.qN -> slim.parse, slim.execute). `window` brackets the call
// with obs counter reads when non-null.
slim::Result<std::vector<slim::store::Binding>> Ask(
    const slim::trim::TripleStore& store, const Question& q,
    Samples* samples, CounterWindows* window);

// Traced runs: navigational Q3 time, Explain time, ExplainAnalyze row and
// probe counts, and direct TripleStore::Select time on the question's
// constant patterns.
void ProbeQuestion(Deployment& d, const std::string& root, const Question& q,
                   LayerProbe& probe);

// Sizes of the two files a saved pad consists of.
struct PadFiles {
  uint64_t pad_bytes = 0;
  uint64_t marks_bytes = 0;
};

// Saves the pad and loads it into a fresh deployment over the same base
// layer (timed), then checks the reloaded pad: triple count, the answers
// to `questions`, and a mark audit. Traced runs split the handoff into
// sibling calls of trim, mark, doc and the DMI instead of
// SavePad/LoadPad. Reports the saved files' sizes when `files` is set.
void Handoff(Deployment& from, const std::vector<Question>& questions,
             RunContext& ctx, PadFiles* files = nullptr);

// A description of every scrap (bundle name, label, position and mark
// address), sorted: equal for pads with the same content whatever their
// object ids.
std::vector<std::string> PadSignature(Deployment& d);

}  // namespace perfbench

#endif  // PERFBENCH_ROUNDS_H_
