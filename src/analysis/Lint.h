//===- analysis/Lint.h - Semantic lint-pass framework -----------*- C++ -*-===//
///
/// \file
/// The `susc lint` subsystem: a battery of semantic static-analysis passes
/// that run over a parsed .sus file and diagnose degenerate shapes the
/// front end accepts but the paper's machinery treats as defects —
/// unreachable policy states, framings that can never fire, requests no
/// published service can satisfy, loops that never terminate. Passes reuse
/// the verification kernels strictly read-only: linting a file never
/// changes what `susc` verification later reports.
///
/// Each pass owns one stable diagnostic ID (`sus-lint-*`). Severity is
/// configurable per ID (`-Werror`, `-Werror=ID`, `--disable=ID`), and all
/// findings flow through the shared DiagnosticEngine, so text and JSON
/// rendering come for free.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_ANALYSIS_LINT_H
#define SUS_ANALYSIS_LINT_H

#include "hist/HistContext.h"
#include "plan/ServiceIndex.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace sus {
namespace analysis {

/// Severity configuration for a lint run.
struct LintOptions {
  /// Promote every lint warning to an error (-Werror).
  bool WarningsAsErrors = false;

  /// Promote specific IDs to errors (-Werror=sus-lint-...).
  std::set<std::string, std::less<>> ErrorIds;

  /// Suppress specific IDs entirely (--disable=sus-lint-...).
  std::set<std::string, std::less<>> DisabledIds;
};

/// Everything a pass sees: the parsed file, its context, the candidate
/// index over its repository, and the emitter. Passes must treat the file
/// and context as read-only program state — interning new expressions for
/// scratch work (projections, derivatives) is fine, mutating the SusFile
/// is not.
class LintContext {
public:
  /// \p Index, when given, must describe `File.Repo` (core::Session
  /// passes its Verifier's); null builds one on first use.
  LintContext(hist::HistContext &Ctx, const syntax::SusFile &File,
              std::string_view FileName, const LintOptions &Options,
              DiagnosticEngine &Diags,
              const plan::ServiceIndex *Index = nullptr)
      : Ctx(Ctx), File(File), FileName(FileName), Options(Options),
        Diags(Diags), Index(Index) {}

  hist::HistContext &context() const { return Ctx; }
  const syntax::SusFile &file() const { return File; }
  std::string_view fileName() const { return FileName; }
  const LintOptions &options() const { return Options; }

  /// The candidate index over `file().Repo`.
  const plan::ServiceIndex &index();

  /// Emits one finding for pass \p Id at \p Loc. Applies the severity
  /// configuration: returns null when the ID is disabled (the caller skips
  /// any notes), otherwise the reported diagnostic, promoted to an error
  /// when configured. \p DefaultSeverity must be Warning or Error.
  Diagnostic *emit(std::string_view Id, std::string_view Category,
                   SourceLoc Loc, std::string Message,
                   DiagSeverity DefaultSeverity = DiagSeverity::Warning);

  /// Findings emitted so far (disabled IDs excluded, notes excluded).
  unsigned findings() const { return NumFindings; }

  /// Fallback location: the declaration site of \p Name in \p Locs, with
  /// the lint file name attached even when the declaration is unknown.
  SourceLoc declLoc(const std::map<Symbol, SourceLoc> &Locs,
                    Symbol Name) const;

private:
  hist::HistContext &Ctx;
  const syntax::SusFile &File;
  std::string_view FileName;
  const LintOptions &Options;
  DiagnosticEngine &Diags;
  const plan::ServiceIndex *Index;
  /// The index built by index() when none was given.
  std::unique_ptr<plan::ServiceIndex> OwnIndex;
  unsigned NumFindings = 0;
};

/// One semantic analysis pass. Implementations are stateless singletons.
class LintPass {
public:
  virtual ~LintPass() = default;

  /// The stable diagnostic ID this pass emits ("sus-lint-...").
  virtual std::string_view id() const = 0;

  /// Category for grouping ("lint.policy", "lint.framing", ...).
  virtual std::string_view category() const = 0;

  /// One-line human description (for --list-passes and DESIGN.md).
  virtual std::string_view description() const = 0;

  virtual void run(LintContext &LC) const = 0;
};

/// Every registered pass, in the fixed registration order the passes run
/// in (policy hygiene, then framing, then history, then plan checks).
const std::vector<const LintPass *> &allLintPasses();

/// Runs every enabled pass over \p LC; returns the number of findings.
/// A pass whose ID is disabled is skipped entirely.
unsigned runLintPasses(LintContext &LC);

} // namespace analysis
} // namespace sus

#endif // SUS_ANALYSIS_LINT_H
