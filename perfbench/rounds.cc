#include "rounds.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "doc/xml/parser.h"
#include "trace.h"
#include "trim/persistence.h"

namespace perfbench {

using slim::Result;
using slim::Status;
using slim::pad::Coordinate;

namespace {

double UsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e3; }
double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

// One add-scrap gesture after its selection has been made.
Result<std::string> AddScrap(Deployment& d, RunContext& ctx,
                             const std::string& bundle,
                             const std::string& type, const std::string& label,
                             Coordinate pos) {
  int64_t t0 = NowNs();
  Result<std::string> out = [&] {
    Span span("slimpad.add_scrap");
    return d.app().AddScrapFromSelection(bundle, type, label, pos);
  }();
  double us = UsSince(t0);
  if (ctx.outcome.Check(out.ok(), "add " + type + " scrap: " +
                                      out.status().ToString())) {
    ctx.samples->add_us.Record(us);
    ++ctx.samples->gestures;
  }
  return out;
}

// Makes a gesture's base-application selection inside its own span.
template <typename Fn>
Status Select(RunContext& ctx, Fn&& select) {
  Status st = [&] {
    Span span("baseapp.select");
    return select();
  }();
  ctx.outcome.Check(st.ok(), "select: " + st.ToString());
  return st;
}

Status BuildPadBody(Deployment& d, RunContext& ctx, PadLayout* layout) {
  BaseLayer& base = d.base();
  const slim::workload::IcuWorkload& census = base.census();
  slim::pad::SlimPadApp& app = d.app();
  layout->lytes.clear();
  SLIM_RETURN_NOT_OK(app.NewPad("Rounds"));
  SLIM_ASSIGN_OR_RETURN(layout->root, app.RootBundle());
  std::vector<std::string> patient_bundles;

  // Same layout as workload::Session::BuildFullRoundsPad.
  for (size_t p = 0; p < census.patients.size(); ++p) {
    const slim::workload::Patient& patient = census.patients[p];
    SLIM_ASSIGN_OR_RETURN(
        std::string bundle,
        app.CreateBundle(layout->root, patient.name,
                         Coordinate{20, 20 + 180 * double(p)}, 640, 160));
    patient_bundles.push_back(bundle);
    for (int m = 0; m < patient.med_count; ++m) {
      int row = patient.med_row_begin + m;
      SLIM_RETURN_NOT_OK(Select(ctx, [&] {
        return base.excel.Select(census.medication_file(), "Medications",
                                 slim::doc::RangeRef{{row, 1}, {row, 4}});
      }));
      SLIM_RETURN_NOT_OK(
          AddScrap(d, ctx, bundle, "excel", "",
                   Coordinate{10, 10 + 22 * double(m)})
              .status());
    }
    SLIM_ASSIGN_OR_RETURN(
        std::string lyte_bundle,
        app.CreateBundle(bundle, "Electrolyte", Coordinate{320, 10}, 280,
                         140));
    SLIM_RETURN_NOT_OK(
        app.AddGraphicScrap(lyte_bundle, "gridlet", Coordinate{10, 10})
            .status());
    SLIM_ASSIGN_OR_RETURN(slim::doc::xml::Document * lab,
                          base.xml.GetDocument(census.lab_file(p)));
    slim::doc::xml::Element* panel = nullptr;
    for (slim::doc::xml::Element* e : lab->root()->ChildElements("panel")) {
      const std::string* name = e->FindAttribute("name");
      if (name != nullptr && *name == "electrolytes") panel = e;
    }
    if (panel == nullptr) {
      return Status::NotFound("no electrolytes panel for " + patient.name);
    }
    double x = 20;
    for (slim::doc::xml::Element* result : panel->ChildElements("result")) {
      SLIM_RETURN_NOT_OK(Select(ctx, [&] {
        return base.xml.SelectElement(census.lab_file(p), result);
      }));
      const std::string* analyte = result->FindAttribute("name");
      const std::string* value = result->FindAttribute("value");
      std::string label = (analyte != nullptr ? *analyte : "?") + " " +
                          (value != nullptr ? *value : "?");
      Coordinate pos{x, 40};
      SLIM_ASSIGN_OR_RETURN(std::string scrap,
                            AddScrap(d, ctx, lyte_bundle, "xml", label, pos));
      layout->lytes.push_back({p, lyte_bundle, scrap, label, pos, result});
      x += 36;
    }
  }

  for (size_t p = 0; p < patient_bundles.size(); ++p) {
    SLIM_ASSIGN_OR_RETURN(slim::doc::text::TextDocument * note,
                          base.text.GetDocument(census.note_file(p)));
    if (note->paragraph_count() < 2) continue;
    SLIM_ASSIGN_OR_RETURN(const slim::doc::text::Paragraph* para,
                          note->GetParagraph(1));
    slim::doc::text::TextSpan span{
        1, 0, static_cast<int32_t>(std::min<size_t>(para->text.size(), 60))};
    SLIM_RETURN_NOT_OK(Select(
        ctx, [&] { return base.text.Select(census.note_file(p), span); }));
    SLIM_RETURN_NOT_OK(AddScrap(d, ctx, patient_bundles[p], "text",
                                "Problems", Coordinate{170, 10})
                           .status());
  }

  SLIM_ASSIGN_OR_RETURN(
      std::string refs, app.CreateBundle(layout->root, "References",
                                         Coordinate{700, 20}, 200, 120));
  SLIM_ASSIGN_OR_RETURN(slim::doc::pdf::PdfDocument * guide,
                        base.pdf.GetDocument(census.guideline_file()));
  if (!guide->pages().empty() && !guide->pages()[0].objects.empty()) {
    SLIM_RETURN_NOT_OK(Select(ctx, [&] {
      return base.pdf.SelectRegion(census.guideline_file(), 0,
                                   guide->pages()[0].objects[0].box);
    }));
    SLIM_RETURN_NOT_OK(AddScrap(d, ctx, refs, "pdf", "Sepsis guideline",
                                Coordinate{10, 10})
                           .status());
  }
  SLIM_RETURN_NOT_OK(Select(ctx, [&] {
    return base.html.NavigateTo(census.protocol_url(), "id:top");
  }));
  return AddScrap(d, ctx, refs, "html", "ICU protocols", Coordinate{10, 40})
      .status();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

void Samples::Merge(const Samples& other) {
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  add_us.Merge(other.add_us);
  open_us.Merge(other.open_us);
  for (size_t k = 0; k < q_us.size(); ++k) q_us[k].Merge(other.q_us[k]);
  append(save_ms, other.save_ms);
  append(load_ms, other.load_ms);
  gestures += other.gestures;
  queries += other.queries;
}

size_t ExpectedScraps(const slim::workload::IcuWorkload& census) {
  size_t meds = 0;
  for (const slim::workload::Patient& p : census.patients) {
    meds += static_cast<size_t>(p.med_count);
  }
  // Per patient: the gridlet, one scrap per electrolyte, the progress
  // note. Shared: the guideline and protocol scraps.
  return meds +
         census.patients.size() *
             (2 + slim::workload::ElectrolyteAnalytes().size()) +
         2;
}

size_t ExpectedMarks(const slim::workload::IcuWorkload& census) {
  return ExpectedScraps(census) - census.patients.size();  // No gridlets.
}

Status BuildPad(Deployment& d, RunContext& ctx, PadLayout* layout) {
  Status st = BuildPadBody(d, ctx, layout);
  if (!ctx.outcome.Check(st.ok(), "build pad: " + st.ToString())) return st;
  const slim::workload::IcuWorkload& census = d.base().census();
  size_t scraps = d.app().dmi().Scraps().size();
  ctx.outcome.Check(scraps == ExpectedScraps(census),
                    "pad holds " + std::to_string(scraps) + " scraps, census " +
                        "implies " + std::to_string(ExpectedScraps(census)));
  ctx.outcome.Check(d.marks().size() == ExpectedMarks(census),
                    "pad holds " + std::to_string(d.marks().size()) +
                        " marks, census implies " +
                        std::to_string(ExpectedMarks(census)));
  return st;
}

Status Rotation::Step(Deployment& d, RunContext& ctx) {
  PadLayout::Lyte& lyte = lytes[next];
  next = (next + 1) % lytes.size();
  SLIM_RETURN_NOT_OK(Select(ctx, [&] {
    return d.base().xml.SelectElement(
        d.base().census().lab_file(lyte.patient), lyte.result);
  }));
  SLIM_ASSIGN_OR_RETURN(std::string added,
                        AddScrap(d, ctx, lyte.bundle, "xml", lyte.label,
                                 lyte.pos));
  std::string mark_id;
  Result<const slim::pad::Scrap*> old = d.app().dmi().GetScrap(lyte.scrap);
  if (old.ok() && !(*old)->mark_handles().empty()) {
    Result<const slim::pad::MarkHandle*> h =
        d.app().dmi().GetMarkHandle((*old)->mark_handles().front());
    if (h.ok()) mark_id = (*h)->mark_id();
  }
  Status st = d.app().dmi().Delete_Scrap(lyte.scrap);
  if (st.ok()) st = d.marks().RemoveMark(mark_id);
  if (!ctx.outcome.Check(st.ok(), "rotation delete: " + st.ToString())) {
    return st;
  }
  lyte.scrap = std::move(added);
  return Status::OK();
}

void OpenPass(Deployment& d, RunContext& ctx) {
  using slim::pad::ViewingStyle;
  slim::pad::SlimPadApp& app = d.app();
  std::vector<std::pair<std::string, std::string>> targets;  // scrap, mark
  for (const slim::pad::Scrap* scrap : app.dmi().Scraps()) {
    if (scrap->mark_handles().empty()) continue;  // Gridlets.
    Result<const slim::pad::MarkHandle*> h =
        app.dmi().GetMarkHandle(scrap->mark_handles().front());
    if (!ctx.outcome.Check(h.ok(), "handle of " + scrap->id())) continue;
    targets.emplace_back(scrap->id(), (*h)->mark_id());
  }
  bool probe = ctx.traced && TracingOn();
  for (ViewingStyle style :
       {ViewingStyle::kSimultaneous, ViewingStyle::kIndependent}) {
    app.set_viewing_style(style);
    for (const auto& [scrap, mark_id] : targets) {
      if (probe) ctx.probe.open_counters.Begin();
      int64_t t0 = NowNs();
      Result<slim::pad::OpenResult> r = [&] {
        Span span("slimpad.open_scrap");
        return app.OpenScrap(scrap);
      }();
      double us = UsSince(t0);
      if (probe) {
        ctx.probe.open_counters.End();
        ++ctx.probe.opens;
      }
      if (!ctx.outcome.Check(r.ok(), "open " + scrap + ": " +
                                         r.status().ToString())) {
        continue;
      }
      PauseTracing pause;
      int64_t check_t0 = NowNs();
      Result<const slim::mark::Mark*> m = d.marks().GetMark(mark_id);
      bool ok = m.ok() && r->mark_id == mark_id;
      if (ok && style == ViewingStyle::kSimultaneous) {
        slim::baseapp::BaseApplication* base =
            d.base().AppFor((*m)->type());
        Result<slim::baseapp::Selection> sel =
            base != nullptr ? base->CurrentSelection()
                            : Result<slim::baseapp::Selection>(
                                  Status::NotFound("no base app"));
        ok = r->base_app_navigated && sel.ok() &&
             sel->file_name == (*m)->file_name() &&
             sel->address == (*m)->address();
      } else if (ok) {
        Result<std::string> content = d.marks().ExtractContent(mark_id);
        ok = !r->base_app_navigated && content.ok() &&
             *content == r->in_place_content;
      }
      if (ctx.outcome.Check(ok, "open " + scrap + " (" +
                                    std::string(ViewingStyleName(style)) +
                                    ") did not show mark " + mark_id)) {
        ctx.samples->open_us.Record(us);
        ++ctx.samples->gestures;
      }
      ctx.check_ns += NowNs() - check_t0;
    }
  }
  app.set_viewing_style(ViewingStyle::kSimultaneous);
}

Question MakeQuestion(int kind, const std::string& root,
                      const std::string& label) {
  Question q;
  q.kind = kind;
  q.label = label;
  std::string name = "?s scrapName \"" + label + "\"";
  switch (kind) {
    case 1: q.text = name; break;
    case 2: q.text = "?b bundleContent ?s . " + name; break;
    default:
      q.kind = 3;
      q.text = "<" + root + "> nestedBundle ?p . ?p nestedBundle ?e . " +
               "?e bundleContent ?s . " + name +
               " . ?s scrapMark ?h . ?h markId ?m";
      break;
  }
  return q;
}

std::vector<std::string> AnswerColumn(
    const std::vector<slim::store::Binding>& rows, int kind) {
  const char* column = kind == 1 ? "s" : kind == 2 ? "b" : "m";
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const slim::store::Binding& row : rows) {
    auto it = row.find(column);
    out.push_back(it == row.end() ? "" : it->second.text);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Navigate(slim::pad::SlimPadDmi& dmi,
                                  const std::string& root,
                                  const Question& q) {
  std::vector<std::string> out;
  if (q.kind == 1) {
    for (const slim::pad::Scrap* s : dmi.Scraps()) {
      if (s->name() == q.label) out.push_back(s->id());
    }
  } else if (q.kind == 2) {
    for (const slim::pad::Bundle* b : dmi.Bundles()) {
      for (const std::string& sid : b->scraps()) {
        Result<const slim::pad::Scrap*> s = dmi.GetScrap(sid);
        if (s.ok() && (*s)->name() == q.label) out.push_back(b->id());
      }
    }
  } else {
    Result<const slim::pad::Bundle*> r = dmi.GetBundle(root);
    if (!r.ok()) return out;
    for (const std::string& pid : (*r)->nested_bundles()) {
      Result<const slim::pad::Bundle*> patient = dmi.GetBundle(pid);
      if (!patient.ok()) continue;
      for (const std::string& eid : (*patient)->nested_bundles()) {
        Result<const slim::pad::Bundle*> e = dmi.GetBundle(eid);
        if (!e.ok()) continue;
        for (const std::string& sid : (*e)->scraps()) {
          Result<const slim::pad::Scrap*> s = dmi.GetScrap(sid);
          if (!s.ok() || (*s)->name() != q.label) continue;
          for (const std::string& hid : (*s)->mark_handles()) {
            Result<const slim::pad::MarkHandle*> h = dmi.GetMarkHandle(hid);
            if (h.ok()) out.push_back((*h)->mark_id());
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<slim::store::Binding>> Ask(
    const slim::trim::TripleStore& store, const Question& q, Samples* samples,
    CounterWindows* window) {
  static const char* const kRootNames[] = {"query.q1", "query.q2",
                                           "query.q3"};
  if (window != nullptr) window->Begin();
  int64_t t0 = NowNs();
  Result<std::vector<slim::store::Binding>> rows = [&]()
      -> Result<std::vector<slim::store::Binding>> {
    Span root(kRootNames[q.kind - 1]);
    Result<slim::store::Query> parsed = [&] {
      Span span("slim.parse");
      return slim::store::Query::Parse(q.text);
    }();
    if (!parsed.ok()) return parsed.status();
    Span span("slim.execute");
    return slim::store::Execute(store, *parsed);
  }();
  double us = UsSince(t0);
  if (window != nullptr) window->End();
  if (samples != nullptr && rows.ok()) {
    samples->q_us[static_cast<size_t>(q.kind - 1)].Record(us);
    ++samples->queries;
  }
  return rows;
}

void ProbeQuestion(Deployment& d, const std::string& root, const Question& q,
                   LayerProbe& probe) {
  PauseTracing pause;
  const slim::trim::TripleStore& store = d.app().store();
  if (q.kind == 3) {
    int64_t t0 = NowNs();
    std::vector<std::string> nav = Navigate(d.app().dmi(), root, q);
    probe.nav_q3_us.push_back(UsSince(t0));
  }
  Result<slim::store::Query> parsed = slim::store::Query::Parse(q.text);
  if (!parsed.ok()) return;
  if (q.kind == 3) {
    int64_t t0 = NowNs();
    Result<slim::store::QueryPlan> plan = slim::store::Explain(store, *parsed);
    if (plan.ok()) probe.plan_us.push_back(UsSince(t0));
  }
  Result<slim::store::AnalyzedQuery> analyzed =
      slim::store::ExplainAnalyze(store, *parsed);
  if (analyzed.ok()) {
    uint64_t examined = 0, probes = 0;
    for (const slim::store::PlanStep& step : analyzed->plan.steps) {
      examined += step.rows_examined;
      probes += step.probes;
    }
    if (q.kind == 2) {
      probe.q2_examined += examined;
      probe.q2_rows += analyzed->plan.solutions;
    } else if (q.kind == 3) {
      probe.q3_examined += examined;
      probe.q3_rows += analyzed->plan.solutions;
      probe.q3_probes += probes;
      ++probe.q3_analyzed;
    }
  }
  for (const slim::store::QueryClause& c : parsed->clauses()) {
    if (c.subject.is_variable() && c.object.is_variable()) continue;
    slim::trim::TriplePattern pattern;
    if (!c.subject.is_variable()) pattern.subject = c.subject.text;
    pattern.property = c.property.text;
    if (!c.object.is_variable()) {
      pattern.object =
          c.object.kind == slim::store::QueryTerm::Kind::kLiteral
              ? slim::trim::Object::Literal(c.object.text)
              : slim::trim::Object::Resource(c.object.text);
    }
    int64_t t0 = NowNs();
    std::vector<slim::trim::Triple> rows = store.Select(pattern);
    probe.select_us.push_back(UsSince(t0));
  }
}

void Handoff(Deployment& from, const std::vector<Question>& questions,
             RunContext& ctx, PadFiles* files) {
  std::string path =
      ctx.dir + "/pad-" + std::to_string(ctx.handoffs++) + ".xml";
  std::string marks_path = path + ".marks";
  Deployment to(&from.base(), ctx.traced);
  bool split = ctx.traced && TracingOn();
  Status st = Status::OK();
  if (!split) {
    int64_t t0 = NowNs();
    st = from.app().SavePad(path);
    double save_ms = MsSince(t0);
    if (st.ok()) {
      t0 = NowNs();
      st = to.app().LoadPad(path);
      double load_ms = MsSince(t0);
      if (st.ok()) {
        ctx.samples->save_ms.push_back(save_ms);
        ctx.samples->load_ms.push_back(load_ms);
      }
    }
  } else {
    Span root("handoff");
    st = [&]() -> Status {
      {
        Span span("trim.save");
        SLIM_RETURN_NOT_OK(slim::trim::SaveStore(from.app().store(), path));
      }
      {
        Span span("mark.save");
        SLIM_RETURN_NOT_OK(from.marks().SaveToFile(marks_path));
      }
      std::string pad_text = ReadFile(path);
      std::string marks_text = ReadFile(marks_path);
      {
        Span span("doc.xml_parse");
        slim::doc::xml::ParseOptions opts;
        opts.strip_whitespace_text = false;
        SLIM_RETURN_NOT_OK(slim::doc::xml::ParseXml(pad_text, opts).status());
        SLIM_RETURN_NOT_OK(
            slim::doc::xml::ParseXml(marks_text, opts).status());
      }
      {
        Span span("trim.load");
        SLIM_RETURN_NOT_OK(slim::trim::LoadStore(path, &to.app().store()));
      }
      {
        Span span("dmi.rebuild");
        SLIM_RETURN_NOT_OK(to.app().dmi().RebuildFromTriples());
      }
      Span span("mark.load");
      return to.marks().LoadFromFile(marks_path);
    }();
  }
  if (!ctx.outcome.Check(st.ok(), "handoff: " + st.ToString())) return;

  PauseTracing pause;
  std::error_code ec;
  if (files != nullptr) {
    files->pad_bytes = std::filesystem::file_size(path, ec);
    files->marks_bytes = std::filesystem::file_size(marks_path, ec);
    ctx.outcome.Check(!ec, "size of the saved pad: " + ec.message());
  }
  size_t triples = from.app().store().size();
  ctx.outcome.Check(to.app().store().size() == triples,
                    "reloaded pad has " +
                        std::to_string(to.app().store().size()) +
                        " triples, saved " + std::to_string(triples));
  for (const Question& q : questions) {
    Result<std::vector<slim::store::Binding>> before =
        slim::store::ExecuteText(from.app().store(), q.text);
    Result<std::vector<slim::store::Binding>> after =
        slim::store::ExecuteText(to.app().store(), q.text);
    ctx.outcome.Check(before.ok() && after.ok() &&
                          AnswerColumn(*before, q.kind) ==
                              AnswerColumn(*after, q.kind),
                      "reloaded pad answers Q" + std::to_string(q.kind) +
                          " differently");
  }
  slim::mark::ValidationReport audit = to.app().AuditMarks();
  ctx.outcome.Check(audit.all_valid() && audit.valid == from.marks().size(),
                    "mark audit after reload: " +
                        std::to_string(audit.valid) + " valid of " +
                        std::to_string(from.marks().size()));
  std::filesystem::remove(path, ec);
  std::filesystem::remove(marks_path, ec);
}

std::vector<std::string> PadSignature(Deployment& d) {
  slim::pad::SlimPadDmi& dmi = d.app().dmi();
  std::vector<std::string> out;
  for (const slim::pad::Bundle* b : dmi.Bundles()) {
    for (const std::string& sid : b->scraps()) {
      Result<const slim::pad::Scrap*> s = dmi.GetScrap(sid);
      if (!s.ok()) {
        out.push_back(b->name() + "|missing scrap " + sid);
        continue;
      }
      std::string line =
          b->name() + "|" + (*s)->name() + "|" + (*s)->pos().ToString();
      for (const std::string& hid : (*s)->mark_handles()) {
        Result<const slim::pad::MarkHandle*> h = dmi.GetMarkHandle(hid);
        Result<const slim::mark::Mark*> m =
            h.ok() ? d.marks().GetMark((*h)->mark_id())
                   : Result<const slim::mark::Mark*>(h.status());
        line += m.ok() ? "|" + std::string((*m)->type()) + ":" +
                             (*m)->file_name() + "#" + (*m)->address()
                       : "|dangling";
      }
      out.push_back(std::move(line));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
