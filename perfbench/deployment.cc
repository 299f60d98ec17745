#include "deployment.h"

#include <map>

#include "trace.h"

namespace perfbench {

using slim::Result;
using slim::Status;

BaseLayer::BaseLayer() {
  // Same as workload::Session: electrolyte marks use attribute-predicate
  // addresses.
  xml.set_robust_addressing(true);
}

Status BaseLayer::Register(slim::workload::IcuWorkload census) {
  census_ = std::move(census);
  std::map<std::string, int> seen;
  for (slim::workload::Patient& p : census_.patients) {
    int n = ++seen[p.mrn];
    if (n > 1) {
      p.mrn += "-" + std::to_string(n);
      ++renamed_mrns_;
    }
  }
  SLIM_RETURN_NOT_OK(
      excel.RegisterWorkbook(std::move(census_.medication_workbook)));
  for (size_t p = 0; p < census_.patients.size(); ++p) {
    SLIM_RETURN_NOT_OK(xml.RegisterDocument(
        census_.lab_file(p), std::move(census_.lab_reports[p])));
    SLIM_RETURN_NOT_OK(text.RegisterDocument(
        census_.note_file(p), std::move(census_.progress_notes[p])));
  }
  census_.lab_reports.clear();
  census_.progress_notes.clear();
  SLIM_RETURN_NOT_OK(pdf.RegisterDocument(std::move(census_.guideline_pdf)));
  return html.RegisterPage(census_.protocol_url(), census_.protocol_html);
}

slim::baseapp::BaseApplication* BaseLayer::AppFor(std::string_view type) {
  if (type == "excel") return &excel;
  if (type == "xml") return &xml;
  if (type == "text") return &text;
  if (type == "slides") return &slides;
  if (type == "pdf") return &pdf;
  if (type == "html") return &html;
  return nullptr;
}

Result<std::unique_ptr<slim::mark::Mark>> TimedMarkModule::CreateFromSelection(
    const std::string& mark_id) {
  Span span("mark.module.create");
  return delegate_->CreateFromSelection(mark_id);
}

Status TimedMarkModule::Resolve(const slim::mark::Mark& m) {
  Span span("mark.module.resolve");
  return delegate_->Resolve(m);
}

Result<std::string> TimedMarkModule::ExtractContent(
    const slim::mark::Mark& m) {
  Span span("mark.module.extract");
  return delegate_->ExtractContent(m);
}

Deployment::Deployment(BaseLayer* base, bool timed)
    : base_(base),
      excel_module_(&base->excel),
      xml_module_(&base->xml),
      text_module_(&base->text),
      slide_module_(&base->slides),
      pdf_module_(&base->pdf),
      html_module_(&base->html) {
  std::vector<slim::mark::MarkModule*> modules;
  for (slim::mark::MarkModule* m :
       {static_cast<slim::mark::MarkModule*>(&excel_module_),
        static_cast<slim::mark::MarkModule*>(&xml_module_),
        static_cast<slim::mark::MarkModule*>(&text_module_),
        static_cast<slim::mark::MarkModule*>(&slide_module_),
        static_cast<slim::mark::MarkModule*>(&pdf_module_),
        static_cast<slim::mark::MarkModule*>(&html_module_)}) {
    modules.push_back(m);
    owned_modules_.push_back(std::make_unique<slim::mark::InPlaceModule>(m));
    modules.push_back(owned_modules_.back().get());
  }
  for (slim::mark::MarkModule* m : modules) {
    if (timed) {
      owned_modules_.push_back(std::make_unique<TimedMarkModule>(m));
      m = owned_modules_.back().get();
    }
    // Keys are distinct by construction, so registration cannot fail.
    (void)marks_.RegisterModule(m);
  }
  app_ = std::make_unique<slim::pad::SlimPadApp>(&marks_);
}

}  // namespace perfbench
