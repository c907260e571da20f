//===- analysis/Lint.cpp - Lint-pass framework ----------------------------===//

#include "analysis/Lint.h"

#include "support/Trace.h"

using namespace sus;
using namespace sus::analysis;

namespace sus {
namespace analysis {
// One accessor per pass file; each returns a function-local singleton so
// registration order is explicit here rather than at static-init time.
const LintPass &unreachableStatePass();
const LintPass &overlappingGuardsPass();
const LintPass &unsatisfiablePolicyPass();
const LintPass &nonmonitorablePass();
const LintPass &vacuousFramingPass();
const LintPass &doomedFramingPass();
const LintPass &deadBranchPass();
const LintPass &nonterminatingRecursionPass();
const LintPass &duplicateBranchGuardPass();
const LintPass &noCandidateServicePass();
const LintPass &deadendReadySetsPass();
} // namespace analysis
} // namespace sus

Diagnostic *LintContext::emit(std::string_view Id, std::string_view Category,
                              SourceLoc Loc, std::string Message,
                              DiagSeverity DefaultSeverity) {
  if (Options.DisabledIds.count(Id))
    return nullptr;
  DiagSeverity Severity = DefaultSeverity;
  if (Severity == DiagSeverity::Warning &&
      (Options.WarningsAsErrors || Options.ErrorIds.count(Id)))
    Severity = DiagSeverity::Error;
  Loc.File = FileName;
  Diagnostic &D = Diags.report(Severity, Loc, std::move(Message));
  D.ID = std::string(Id);
  D.Category = std::string(Category);
  ++NumFindings;
  return &D;
}

const plan::ServiceIndex &LintContext::index() {
  if (!Index) {
    OwnIndex = std::make_unique<plan::ServiceIndex>(Ctx, File.Repo);
    Index = OwnIndex.get();
  }
  return *Index;
}

SourceLoc LintContext::declLoc(const std::map<Symbol, SourceLoc> &Locs,
                               Symbol Name) const {
  SourceLoc Loc = File.locOf(Locs, Name);
  Loc.File = FileName;
  return Loc;
}

const std::vector<const LintPass *> &sus::analysis::allLintPasses() {
  static const std::vector<const LintPass *> Passes = {
      &unreachableStatePass(),       &overlappingGuardsPass(),
      &unsatisfiablePolicyPass(),    &nonmonitorablePass(),
      &vacuousFramingPass(),         &doomedFramingPass(),
      &deadBranchPass(),             &nonterminatingRecursionPass(),
      &duplicateBranchGuardPass(),   &noCandidateServicePass(),
      &deadendReadySetsPass(),
  };
  return Passes;
}

unsigned sus::analysis::runLintPasses(LintContext &LC) {
  unsigned Before = LC.findings();
  for (const LintPass *Pass : allLintPasses()) {
    if (LC.options().DisabledIds.count(Pass->id()))
      continue;
    trace::Span Span("lint.pass", "analysis");
    // Pass ids are string literals, so the view is NUL-terminated and
    // outlives the trace.
    Span.tag("pass", Pass->id().data());
    Pass->run(LC);
  }
  return LC.findings() - Before;
}
