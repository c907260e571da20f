//===- tests/AnalysisTest.cpp - lint pass unit tests ----------------------===//
///
/// Fixture-driven tests for the `susc lint` passes. Every .sus file under
/// tests/lint/ carries its own expectations as comment annotations:
///
///   # expect-warning: sus-lint-some-id
///   # expect-error: sus-lint-other-id
///
/// The harness parses the fixture, runs all passes, and compares the SET of
/// (severity, id) pairs observed against the annotated set — so a fixture
/// that legitimately fires the same pass twice carries one annotation, and
/// a clean fixture carries none. The index-backed no-candidate pass is also
/// checked against a whole-repository compliance scan over generated
/// programs and the shipped examples.
///
//===----------------------------------------------------------------------===//

#include "analysis/ExprWalk.h"
#include "analysis/Lint.h"
#include "contract/Compliance.h"
#include "fuzz/Generator.h"
#include "hist/HistContext.h"
#include "plan/RequestExtract.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

using namespace sus;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string readFixture(const std::string &Name) {
  return readFile(std::string(SUS_LINT_FIXTURE_DIR) + "/" + Name);
}

/// (severity, id) pairs, e.g. {"warning", "sus-lint-dead-branch"}.
using FindingSet = std::set<std::pair<std::string, std::string>>;

/// Extracts `# expect-warning:` / `# expect-error:` annotations.
FindingSet expectedFindings(const std::string &Source) {
  FindingSet Expected;
  std::istringstream Lines(Source);
  std::string Line;
  auto Extract = [&](std::string_view Marker, std::string_view Severity) {
    size_t At = Line.find(Marker);
    if (At == std::string::npos)
      return;
    std::string Id = Line.substr(At + Marker.size());
    while (!Id.empty() && (Id.front() == ' ' || Id.front() == '\t'))
      Id.erase(Id.begin());
    while (!Id.empty() && (Id.back() == ' ' || Id.back() == '\r'))
      Id.pop_back();
    Expected.emplace(std::string(Severity), Id);
  };
  while (std::getline(Lines, Line)) {
    Extract("# expect-warning:", "warning");
    Extract("# expect-error:", "error");
  }
  return Expected;
}

/// Parses \p Source and runs every lint pass; returns observed findings.
FindingSet lintFindings(const std::string &Source,
                        const analysis::LintOptions &Opts,
                        DiagnosticEngine &Diags,
                        std::string_view FileName = "fixture.sus") {
  hist::HistContext Ctx;
  std::optional<syntax::SusFile> File =
      syntax::parseSusFile(Ctx, Source, Diags, FileName);
  EXPECT_TRUE(File.has_value()) << "fixture must parse";
  FindingSet Observed;
  if (!File)
    return Observed;
  analysis::LintContext LC(Ctx, *File, FileName, Opts, Diags);
  analysis::runLintPasses(LC);
  for (const Diagnostic &D : Diags.diagnostics())
    Observed.emplace(severityName(D.Severity), D.ID);
  return Observed;
}

class LintFixtureTest : public ::testing::TestWithParam<const char *> {};

TEST_P(LintFixtureTest, FindingsMatchAnnotations) {
  std::string Source = readFixture(GetParam());
  DiagnosticEngine Diags;
  FindingSet Observed =
      lintFindings(Source, analysis::LintOptions(), Diags, GetParam());
  std::ostringstream Rendered;
  Diags.print(Rendered);
  EXPECT_EQ(Observed, expectedFindings(Source)) << Rendered.str();
}

INSTANTIATE_TEST_SUITE_P(
    AllFixtures, LintFixtureTest,
    ::testing::Values("unreachable-state.sus", "overlapping-guards.sus",
                      "unsatisfiable-policy.sus", "nonmonitorable.sus",
                      "vacuous-framing.sus",
                      "doomed-framing.sus", "dead-branch.sus",
                      "nonterminating-recursion.sus",
                      "duplicate-branch-guard.sus", "no-candidate-service.sus",
                      "deadend-ready-sets.sus", "deadend-unknown-binding.sus",
                      "clean.sus"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      std::string Name = Info.param;
      Name = Name.substr(0, Name.find('.'));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(LintRegistryTest, ElevenPassesWithUniqueWellFormedIds) {
  const auto &Passes = analysis::allLintPasses();
  EXPECT_EQ(Passes.size(), 11u);
  std::set<std::string_view> Ids;
  for (const analysis::LintPass *P : Passes) {
    EXPECT_TRUE(P->id().rfind("sus-lint-", 0) == 0) << P->id();
    EXPECT_TRUE(P->category().rfind("lint.", 0) == 0) << P->id();
    EXPECT_FALSE(P->description().empty()) << P->id();
    EXPECT_TRUE(Ids.insert(P->id()).second)
        << "duplicate pass id " << P->id();
  }
  // Policy hygiene runs first; plan checks run last.
  EXPECT_EQ(Passes.front()->id(), "sus-lint-unreachable-state");
  EXPECT_EQ(Passes.back()->id(), "sus-lint-deadend-ready-sets");
}

TEST(LintSeverityTest, WarningsAsErrorsPromotesEverything) {
  std::string Source = readFixture("duplicate-branch-guard.sus");
  analysis::LintOptions Opts;
  Opts.WarningsAsErrors = true;
  DiagnosticEngine Diags;
  FindingSet Observed = lintFindings(Source, Opts, Diags);
  ASSERT_EQ(Observed.size(), 1u);
  EXPECT_EQ(Observed.begin()->first, "error");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LintSeverityTest, ErrorIdsPromoteOnlyThatId) {
  std::string Source = readFixture("dead-branch.sus");
  analysis::LintOptions Opts;
  Opts.ErrorIds.insert("sus-lint-dead-branch");
  DiagnosticEngine Diags;
  FindingSet Observed = lintFindings(Source, Opts, Diags);
  EXPECT_TRUE(Observed.count({"error", "sus-lint-dead-branch"}));
  // The fixture's other finding keeps its default severity.
  EXPECT_TRUE(
      Observed.count({"warning", "sus-lint-nonterminating-recursion"}));
}

TEST(LintSeverityTest, DisabledIdsSuppressFindings) {
  std::string Source = readFixture("dead-branch.sus");
  analysis::LintOptions Opts;
  Opts.DisabledIds.insert("sus-lint-dead-branch");
  Opts.DisabledIds.insert("sus-lint-nonterminating-recursion");
  DiagnosticEngine Diags;
  FindingSet Observed = lintFindings(Source, Opts, Diags);
  EXPECT_TRUE(Observed.empty());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(LintJsonGoldenTest, DuplicateGuardRendersStableJson) {
  // Inline source (not a fixture) so the golden stays byte-stable: the
  // display name is pinned and the finding has no notes.
  std::string Source = "service s { A? . B! + A? . C! }\n";
  analysis::LintOptions Opts;
  DiagnosticEngine Diags;
  lintFindings(Source, Opts, Diags, "fixture.sus");
  std::ostringstream OS;
  Diags.print(OS, DiagFormat::Json);
  EXPECT_EQ(OS.str(),
            "[\n"
            "  {\"file\": \"fixture.sus\", \"line\": 1, \"col\": 9, "
            "\"severity\": \"warning\", "
            "\"id\": \"sus-lint-duplicate-branch-guard\", "
            "\"category\": \"lint.hist\", "
            "\"message\": \"in 's', a choice has multiple branches guarded "
            "by 'A?': the branch taken is ambiguous\", \"notes\": []}\n"
            "]\n");
}

TEST(LintJsonGoldenTest, DeadBranchNoteSurvivesJson) {
  std::string Source = "service s { (mu h . A? . h); B! }\n";
  analysis::LintOptions Opts;
  // Keep one finding so the golden covers the notes array shape.
  Opts.DisabledIds.insert("sus-lint-nonterminating-recursion");
  DiagnosticEngine Diags;
  lintFindings(Source, Opts, Diags, "fixture.sus");
  std::ostringstream OS;
  Diags.print(OS, DiagFormat::Json);
  EXPECT_EQ(OS.str(),
            "[\n"
            "  {\"file\": \"fixture.sus\", \"line\": 1, \"col\": 9, "
            "\"severity\": \"warning\", \"id\": \"sus-lint-dead-branch\", "
            "\"category\": \"lint.hist\", "
            "\"message\": \"in 's', the behaviour after ';' is dead: "
            "'mu h . A? . h' never terminates\", \"notes\": [\n"
            "    {\"file\": \"fixture.sus\", \"line\": 0, \"col\": 0, "
            "\"severity\": \"note\", \"id\": \"\", \"category\": \"\", "
            "\"message\": \"unreachable: 'B!'\"}\n"
            "  ]}\n"
            "]\n");
}

//===----------------------------------------------------------------------===//
// sus-lint-no-candidate-service: index-backed ≡ repository scan
//===----------------------------------------------------------------------===//

/// (behaviour, request id) pairs.
using RequestSet = std::set<std::pair<std::string, hist::RequestId>>;

/// What the pass reports, read back from its messages.
RequestSet noCandidateFindings(hist::HistContext &Ctx,
                               const syntax::SusFile &File) {
  const analysis::LintPass *Pass = nullptr;
  for (const analysis::LintPass *P : analysis::allLintPasses())
    if (P->id() == "sus-lint-no-candidate-service")
      Pass = P;
  EXPECT_NE(Pass, nullptr);
  DiagnosticEngine Diags;
  analysis::LintOptions Opts;
  analysis::LintContext LC(Ctx, File, "f.sus", Opts, Diags);
  Pass->run(LC);
  RequestSet Out;
  for (const Diagnostic &D : Diags.diagnostics()) {
    unsigned Id = 0;
    char Name[256] = {};
    EXPECT_EQ(std::sscanf(D.Message.c_str(), "request %u in '%255[^']'", &Id,
                          Name),
              2)
        << D.Message;
    Out.emplace(Name, Id);
  }
  return Out;
}

/// The oracle: a request nothing in the whole repository complies with.
RequestSet scannedNoCandidate(hist::HistContext &Ctx,
                              const syntax::SusFile &File) {
  RequestSet Out;
  for (const analysis::BehaviorRef &B : analysis::allBehaviors(File))
    for (const plan::RequestSite &Site : plan::extractRequests(B.Body)) {
      bool Any = false;
      for (const auto &[L, Service] : File.Repo.services())
        if (contract::checkServiceCompliance(Ctx, Site.body(), Service)
                .Compliant) {
          Any = true;
          break;
        }
      if (!Any)
        Out.emplace(std::string(Ctx.interner().text(B.Name)), Site.id());
    }
  return Out;
}

TEST(LintNoCandidateTest, IndexedPassMatchesRepositoryScan) {
  std::vector<std::pair<std::string, std::string>> Files;
  for (uint64_t Seed = 0; Seed < 100; ++Seed)
    Files.emplace_back("seed " + std::to_string(Seed),
                       fuzz::generateProgram(Seed).source());
  for (const char *Example : {"hotel.sus", "marketplace.sus"})
    Files.emplace_back(Example, readFile(std::string(SUS_EXAMPLES_DIR) +
                                         "/" + Example));

  size_t Reported = 0, Served = 0;
  for (const auto &[Label, Source] : Files) {
    hist::HistContext Ctx;
    DiagnosticEngine ParseDiags;
    std::optional<syntax::SusFile> File =
        syntax::parseSusFile(Ctx, Source, ParseDiags, "f.sus");
    ASSERT_TRUE(File.has_value()) << Label;
    RequestSet Scanned = scannedNoCandidate(Ctx, *File);
    EXPECT_EQ(noCandidateFindings(Ctx, *File), Scanned) << Label;
    Reported += Scanned.size();
    for (const analysis::BehaviorRef &B : analysis::allBehaviors(*File))
      Served += plan::extractRequests(B.Body).size();
  }
  Served -= Reported;
  // Both verdicts occur, so neither side of the comparison is vacuous.
  EXPECT_GT(Reported, 0u);
  EXPECT_GT(Served, 0u);
}

} // namespace
