#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

// The benchmark's own wiring of the architecture, built from the public
// constructors the way workload::Session's constructor does. It exists so
// the traced run can register a timing decorator in place of each mark
// module: MarkManager::RegisterModule refuses a second module for a
// (type, resolver) key, so a Session cannot be decorated after the fact.

#include <memory>
#include <string>
#include <vector>

#include "baseapp/html_app.h"
#include "baseapp/pdf_app.h"
#include "baseapp/slide_app.h"
#include "baseapp/spreadsheet_app.h"
#include "baseapp/text_app.h"
#include "baseapp/xml_app.h"
#include "mark/mark_manager.h"
#include "mark/modules.h"
#include "slimpad/slimpad_app.h"
#include "workload/icu.h"

namespace perfbench {

// The base layer: the six base applications holding one generated census.
// Shared by every pad deployment of a run, as a hospital's documents are
// shared by the clinicians who mark them.
class BaseLayer {
 public:
  BaseLayer();
  BaseLayer(const BaseLayer&) = delete;
  BaseLayer& operator=(const BaseLayer&) = delete;

  // Registers the census documents with the base applications (mirrors
  // workload::Session::LoadIcuWorkload). Keeps patients and file names.
  //
  // GenerateIcuWorkload draws MRNs with replacement, so two patients of a
  // large census can share an MRN and with it their lab and note file
  // names, which the base applications refuse to register twice (about 4%
  // of seeds at 256 patients). Register first gives each later duplicate a
  // "-<n>" suffix and counts it in renamed_mrns().
  slim::Status Register(slim::workload::IcuWorkload census);

  const slim::workload::IcuWorkload& census() const { return census_; }
  size_t renamed_mrns() const { return renamed_mrns_; }
  // The base application serving a mark type, or nullptr.
  slim::baseapp::BaseApplication* AppFor(std::string_view mark_type);

  slim::baseapp::SpreadsheetApp excel;
  slim::baseapp::XmlApp xml;
  slim::baseapp::TextApp text;
  slim::baseapp::SlideApp slides;
  slim::baseapp::PdfApp pdf;
  slim::baseapp::HtmlApp html;

 private:
  slim::workload::IcuWorkload census_;
  size_t renamed_mrns_ = 0;
};

// Pass-through MarkModule that opens a span around the delegate's
// CreateFromSelection (`mark.module.create`), Resolve
// (`mark.module.resolve`) and ExtractContent (`mark.module.extract`).
class TimedMarkModule : public slim::mark::MarkModule {
 public:
  explicit TimedMarkModule(slim::mark::MarkModule* delegate)
      : delegate_(delegate) {}

  std::string_view mark_type() const override {
    return delegate_->mark_type();
  }
  std::string_view resolver_name() const override {
    return delegate_->resolver_name();
  }
  slim::Result<std::unique_ptr<slim::mark::Mark>> CreateFromSelection(
      const std::string& mark_id) override;
  slim::Status Resolve(const slim::mark::Mark& m) override;
  slim::Result<std::string> ExtractContent(
      const slim::mark::Mark& m) override;
  slim::Result<std::unique_ptr<slim::mark::Mark>> FromFields(
      const std::string& mark_id,
      const slim::mark::MarkFields& fields) override {
    return delegate_->FromFields(mark_id, fields);
  }

 private:
  slim::mark::MarkModule* delegate_;
};

// The superimposed layer of one clinician: mark modules (context and
// in-place for each type), a Mark Manager and a SLIMPad application with
// its own triple store, over a shared BaseLayer.
class Deployment {
 public:
  // `timed` registers a TimedMarkModule around every module; the untraced
  // run registers the plain modules.
  Deployment(BaseLayer* base, bool timed);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  BaseLayer& base() { return *base_; }
  slim::mark::MarkManager& marks() { return marks_; }
  slim::pad::SlimPadApp& app() { return *app_; }

 private:
  BaseLayer* base_;
  slim::mark::ExcelMarkModule excel_module_;
  slim::mark::XmlMarkModule xml_module_;
  slim::mark::TextMarkModule text_module_;
  slim::mark::SlideMarkModule slide_module_;
  slim::mark::PdfMarkModule pdf_module_;
  slim::mark::HtmlMarkModule html_module_;
  std::vector<std::unique_ptr<slim::mark::MarkModule>> owned_modules_;
  slim::mark::MarkManager marks_;
  std::unique_ptr<slim::pad::SlimPadApp> app_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
