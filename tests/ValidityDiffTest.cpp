//===- tests/ValidityDiffTest.cpp - fused vs per-policy plan validity -----===//
///
/// \file
/// Differential tests for the static plan checker: validity::
/// checkPlanValidity, which monitors policies through the fused policy
/// DFA, must report exactly what the per-policy reference
/// (tests/oracle/PerPolicyValidity.h) reports — verdict, failure kind,
/// policy, request, shortest trace and the stuck flag — while exploring
/// no more configurations. Cases: every client × candidate plan of the
/// generated programs of seeds 0–199, both shipped examples and the
/// paper's Fig. 2 hotel example. Seeds are fixed.
///
//===----------------------------------------------------------------------===//

#include "core/HotelExample.h"
#include "fuzz/Generator.h"
#include "oracle/PerPolicyValidity.h"
#include "plan/PlanEnumerator.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"
#include "validity/StaticValidity.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace sus;
using validity::PlanFailureKind;
using validity::StaticValidityResult;

namespace {

/// What the sweeps saw, so a sweep that stopped exercising a failure kind
/// is noticed.
struct Tally {
  size_t Cases = 0;
  size_t Valid = 0;
  size_t Violations = 0;
  size_t Gaps = 0;
  size_t Merged = 0; ///< Cases where fusion explored strictly fewer.
};

std::string describe(const StaticValidityResult &R,
                     const StringInterner &In) {
  std::ostringstream OS;
  OS << "valid=" << R.Valid << " failure=" << static_cast<int>(R.Failure)
     << " policy=" << (R.Policy ? R.Policy->str(In) : "-")
     << " request=" << (R.Request ? std::to_string(*R.Request) : "-")
     << " stuck=" << R.HasStuckConfiguration << " states=" << R.ExploredStates
     << " trace=";
  for (const std::string &L : R.Trace)
    OS << L << ' ';
  return OS.str();
}

/// Checks one (client, plan) pair both ways, with and without framing
/// regularization; returns the fused checker's regularized result.
StaticValidityResult compare(hist::HistContext &Ctx, const hist::Expr *Client,
             plan::Loc ClientLoc, const plan::Plan &P,
             const plan::Repository &Repo,
             const policy::PolicyRegistry &Registry, const std::string &Where,
             Tally &T) {
  StaticValidityResult Regularized;
  for (bool Regularize : {true, false}) {
    validity::StaticValidityOptions Opts;
    Opts.Regularize = Regularize;
    StaticValidityResult Fused = validity::checkPlanValidity(
        Ctx, Client, ClientLoc, P, Repo, Registry, Opts);
    StaticValidityResult Reference = oracle::checkPlanValidityPerPolicy(
        Ctx, Client, ClientLoc, P, Repo, Registry, Opts);
    std::string Case = Where + " plan " + P.str(Ctx.interner()) +
                       (Regularize ? "" : " (unregularized)");
    ++T.Cases;
    bool Same = Fused.Valid == Reference.Valid &&
                Fused.Failure == Reference.Failure &&
                Fused.Policy == Reference.Policy &&
                Fused.Request == Reference.Request &&
                Fused.Trace == Reference.Trace &&
                Fused.HasStuckConfiguration ==
                    Reference.HasStuckConfiguration &&
                Fused.ExploredStates <= Reference.ExploredStates;
    if (!Same) {
      ADD_FAILURE() << Case << "\n  fused:     "
                    << describe(Fused, Ctx.interner())
                    << "\n  reference: "
                    << describe(Reference, Ctx.interner());
      return Fused;
    }
    T.Valid += Fused.Valid;
    T.Violations += Fused.Failure == PlanFailureKind::PolicyViolation;
    T.Gaps += Fused.Failure == PlanFailureKind::UnboundRequest ||
              Fused.Failure == PlanFailureKind::UnknownService;
    T.Merged += Fused.ExploredStates < Reference.ExploredStates;
    if (Regularize)
      Regularized = Fused;
  }
  return Regularized;
}

/// Every client of \p File × its candidate plans (every binding, compliant
/// or not, up to a cap), plus the empty plan and a plan naming a location
/// outside the repository, which open the plan-gap paths.
void sweepFile(hist::HistContext &Ctx, const syntax::SusFile &File,
               const std::string &Where, Tally &T) {
  plan::EnumeratorOptions EOpts;
  EOpts.MaxPlans = 48;
  for (const auto &[Name, Client] : File.Clients) {
    std::string Case =
        Where + " client " + std::string(Ctx.interner().text(Name));
    plan::EnumerationResult Plans =
        plan::enumeratePlans(Client, File.Repo, EOpts);
    for (const plan::Plan &P : Plans.Plans)
      compare(Ctx, Client, Name, P, File.Repo, File.Registry, Case, T);
    compare(Ctx, Client, Name, plan::Plan(), File.Repo, File.Registry, Case,
            T);
    for (const plan::RequestSite &Site : plan::extractRequests(Client)) {
      plan::Plan Missing;
      Missing.bind(Site.id(), Ctx.symbol("no_such_location"));
      compare(Ctx, Client, Name, Missing, File.Repo, File.Registry, Case, T);
      break;
    }
  }
}

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

TEST(ValidityDiffTest, GeneratedProgramsSeeds0To199) {
  Tally T;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    hist::HistContext Ctx;
    DiagnosticEngine Diags;
    std::optional<syntax::SusFile> File = syntax::parseSusFile(
        Ctx, fuzz::generateProgram(Seed).source(), Diags, "gen.sus");
    ASSERT_TRUE(File.has_value()) << "seed " << Seed;
    sweepFile(Ctx, *File, "seed " + std::to_string(Seed), T);
    if (::testing::Test::HasFailure())
      return;
  }
  // The sweep must keep reaching every verdict the checker can give.
  EXPECT_GT(T.Valid, 0u);
  EXPECT_GT(T.Violations, 0u);
  EXPECT_GT(T.Gaps, 0u);
  EXPECT_GT(T.Merged, 0u);
}

TEST(ValidityDiffTest, ShippedExamples) {
  Tally T;
  for (const char *Name : {"hotel.sus", "marketplace.sus"}) {
    hist::HistContext Ctx;
    DiagnosticEngine Diags;
    std::string Path = std::string(SUS_EXAMPLES_DIR) + "/" + Name;
    std::optional<syntax::SusFile> File =
        syntax::parseSusFile(Ctx, readWholeFile(Path), Diags, Path);
    ASSERT_TRUE(File.has_value()) << Path;
    sweepFile(Ctx, *File, Name, T);
  }
  EXPECT_GT(T.Valid, 0u);
  EXPECT_GT(T.Violations, 0u);
}

TEST(ValidityDiffTest, PaperHotelExample) {
  hist::HistContext Ctx;
  core::HotelExample H = core::makeHotelExample(Ctx);
  Tally T;
  for (const plan::Plan &P : {H.pi1(), H.pi2(), H.pi3(), H.pi2Valid()}) {
    compare(Ctx, H.C1, H.LC1, P, H.Repo, H.Registry, "C1", T);
    compare(Ctx, H.C2, H.LC2, P, H.Repo, H.Registry, "C2", T);
  }
  for (auto [Client, Loc] : {std::pair(H.C1, H.LC1), std::pair(H.C2, H.LC2)})
    for (const plan::Plan &P : plan::enumeratePlans(Client, H.Repo).Plans)
      compare(Ctx, Client, Loc, P, H.Repo, H.Registry, "enumerated", T);
  EXPECT_GT(T.Valid, 0u);
  EXPECT_GT(T.Violations, 0u);
}

/// When one event violates several active policies at once, the report
/// names the one the client and its services mention first, not the
/// lowest-sorted; likewise for the first policy that cannot be
/// instantiated.
TEST(ValidityDiffTest, NamesTheFirstMentionedPolicy) {
  hist::HistContext Ctx;
  DiagnosticEngine Diags;
  // zz is interned before aa, so it sorts first; the client mentions aa
  // first.
  const char *Source = R"(
policy zz(t: int) { start q1; offending q6; q1 -> q6 on e(x) when x > t; }
policy aa(t: int) { start q1; offending q6; q1 -> q6 on e(x) when x > t; }
service s { %e(9); A? }
client c { aa(5)[ zz(5)[ open 1 { A! } ] ] }
)";
  std::optional<syntax::SusFile> File =
      syntax::parseSusFile(Ctx, Source, Diags, "names.sus");
  ASSERT_TRUE(File.has_value());
  Tally T;
  for (const auto &[Name, Client] : File->Clients) {
    plan::Plan P;
    P.bind(1, Ctx.symbol("s"));
    StaticValidityResult R =
        compare(Ctx, Client, Name, P, File->Repo, File->Registry, "c", T);
    ASSERT_EQ(R.Failure, PlanFailureKind::PolicyViolation);
    EXPECT_EQ(R.Policy->str(Ctx.interner()), "aa(5)");

    // Two undeclared policies, the later-sorted one mentioned first.
    hist::PolicyRef Ghost1, Ghost2;
    Ghost1.Name = Ctx.symbol("ghost_b");
    Ghost2.Name = Ctx.symbol("ghost_a");
    const hist::Expr *Ghosts = Ctx.framing(Ghost2, Ctx.framing(Ghost1, Client));
    R = compare(Ctx, Ghosts, Name, P, File->Repo, File->Registry, "ghosts", T);
    ASSERT_EQ(R.Failure, PlanFailureKind::UnknownPolicy);
    EXPECT_EQ(R.Policy, Ghost2);
  }
  EXPECT_EQ(T.Cases, 4u);
}

} // namespace
