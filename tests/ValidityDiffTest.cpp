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
/// The OnePass tests check the other invariant: validity::checkClientPlans
/// over all of a client's plans gives each plan exactly what a pass over
/// that plan alone gives, field for field.
///
//===----------------------------------------------------------------------===//

#include "core/HotelExample.h"
#include "fuzz/Generator.h"
#include "oracle/PerPolicyValidity.h"
#include "plan/PlanEnumerator.h"
#include "support/Diagnostics.h"
#include "support/ResourceGovernor.h"
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

//===----------------------------------------------------------------------===//
// One pass ≡ plan by plan
//===----------------------------------------------------------------------===//

/// Field-for-field equality, Trace, HasStuckConfiguration and
/// ExploredStates included.
bool sameResult(const StaticValidityResult &A, const StaticValidityResult &B) {
  auto Kind = [](const StaticValidityResult &R) {
    return R.Exhausted ? std::optional(R.Exhausted->Which) : std::nullopt;
  };
  return A.Valid == B.Valid && A.Failure == B.Failure &&
         A.Policy == B.Policy && A.Request == B.Request &&
         A.Trace == B.Trace && A.ExploredStates == B.ExploredStates &&
         A.HasStuckConfiguration == B.HasStuckConfiguration &&
         Kind(A) == Kind(B);
}

/// Checks \p Plans in one pass and each in a pass of its own, and
/// requires the same result for every plan; returns the pass's results.
std::vector<StaticValidityResult>
comparePass(hist::HistContext &Ctx, const hist::Expr *Client,
            plan::Loc ClientLoc, const std::vector<plan::Plan> &Plans,
            const plan::Repository &Repo,
            const policy::PolicyRegistry &Registry, const std::string &Where,
            Tally &T, const validity::StaticValidityOptions &Opts = {}) {
  std::vector<const plan::Plan *> All;
  for (const plan::Plan &P : Plans)
    All.push_back(&P);
  std::vector<StaticValidityResult> Pass = validity::checkClientPlans(
      Ctx, Client, ClientLoc, All, Repo, Registry, Opts);
  EXPECT_EQ(Pass.size(), Plans.size()) << Where;
  for (size_t I = 0; I < Plans.size() && I < Pass.size(); ++I) {
    StaticValidityResult Alone = validity::checkPlanValidity(
        Ctx, Client, ClientLoc, Plans[I], Repo, Registry, Opts);
    ++T.Cases;
    if (!sameResult(Pass[I], Alone)) {
      ADD_FAILURE() << Where << " plan " << Plans[I].str(Ctx.interner())
                    << " (" << I << " of " << Plans.size() << ")"
                    << "\n  pass:  " << describe(Pass[I], Ctx.interner())
                    << "\n  alone: " << describe(Alone, Ctx.interner());
      continue;
    }
    T.Valid += Alone.Valid;
    T.Violations += Alone.Failure == PlanFailureKind::PolicyViolation;
    T.Gaps += Alone.Failure == PlanFailureKind::UnboundRequest ||
              Alone.Failure == PlanFailureKind::UnknownService;
  }
  return Pass;
}

/// Every client of \p File with the plans sweepFile checks (the candidate
/// plans, the empty plan and a plan naming a missing location) in one
/// pass, regularized and not.
void sweepFileInOnePass(hist::HistContext &Ctx, const syntax::SusFile &File,
                        const std::string &Where, Tally &T) {
  plan::EnumeratorOptions EOpts;
  EOpts.MaxPlans = 48;
  for (const auto &[Name, Client] : File.Clients) {
    std::string Case =
        Where + " client " + std::string(Ctx.interner().text(Name));
    // The gap plans go first, so the plans an Open splits off precede
    // the ones it binds.
    std::vector<plan::Plan> Plans = {plan::Plan()};
    for (const plan::RequestSite &Site : plan::extractRequests(Client)) {
      plan::Plan Missing;
      Missing.bind(Site.id(), Ctx.symbol("no_such_location"));
      Plans.push_back(std::move(Missing));
      break;
    }
    for (plan::Plan &P : plan::enumeratePlans(Client, File.Repo, EOpts).Plans)
      Plans.push_back(std::move(P));
    for (bool Regularize : {true, false}) {
      validity::StaticValidityOptions Opts;
      Opts.Regularize = Regularize;
      comparePass(Ctx, Client, Name, Plans, File.Repo, File.Registry,
                  Case + (Regularize ? "" : " (unregularized)"), T, Opts);
    }
  }
}

TEST(ValidityDiffTest, OnePassEqualsPlanByPlanOnGeneratedPrograms) {
  Tally T;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    hist::HistContext Ctx;
    DiagnosticEngine Diags;
    std::optional<syntax::SusFile> File = syntax::parseSusFile(
        Ctx, fuzz::generateProgram(Seed).source(), Diags, "gen.sus");
    ASSERT_TRUE(File.has_value()) << "seed " << Seed;
    sweepFileInOnePass(Ctx, *File, "seed " + std::to_string(Seed), T);
    if (::testing::Test::HasFailure())
      return;
  }
  EXPECT_GT(T.Valid, 0u);
  EXPECT_GT(T.Violations, 0u);
  EXPECT_GT(T.Gaps, 0u);
}

TEST(ValidityDiffTest, OnePassEqualsPlanByPlanOnExamples) {
  Tally T;
  for (const char *Name : {"hotel.sus", "marketplace.sus"}) {
    hist::HistContext Ctx;
    DiagnosticEngine Diags;
    std::string Path = std::string(SUS_EXAMPLES_DIR) + "/" + Name;
    std::optional<syntax::SusFile> File =
        syntax::parseSusFile(Ctx, readWholeFile(Path), Diags, Path);
    ASSERT_TRUE(File.has_value()) << Path;
    sweepFileInOnePass(Ctx, *File, Name, T);
  }

  hist::HistContext Ctx;
  core::HotelExample H = core::makeHotelExample(Ctx);
  std::vector<plan::Plan> Paper = {H.pi1(), H.pi2(), H.pi3(), H.pi2Valid()};
  for (auto [Client, Loc] : {std::pair(H.C1, H.LC1), std::pair(H.C2, H.LC2)}) {
    comparePass(Ctx, Client, Loc, Paper, H.Repo, H.Registry, "Fig. 2", T);
    comparePass(Ctx, Client, Loc, plan::enumeratePlans(Client, H.Repo).Plans,
                H.Repo, H.Registry, "Fig. 2 enumerated", T);
  }
  EXPECT_GT(T.Valid, 0u);
  EXPECT_GT(T.Violations, 0u);
}

/// Each plan keeps its own MaxStates and ProductStates budget: the caps
/// run from refusing the second configuration to just fitting each plan.
TEST(ValidityDiffTest, OnePassKeepsEachPlansBudget) {
  hist::HistContext Ctx;
  core::HotelExample H = core::makeHotelExample(Ctx);
  // π1 and π1 with the hotel request sent to s2: both secure unbounded.
  plan::Plan ToS2 = H.pi1();
  ToS2.rebind(3, H.LS2);
  std::vector<plan::Plan> Plans = {H.pi1(), ToS2};
  std::vector<size_t> Caps = {1, 2};
  for (const plan::Plan &P : Plans) {
    StaticValidityResult Full = validity::checkPlanValidity(
        Ctx, H.C1, H.LC1, P, H.Repo, H.Registry);
    ASSERT_TRUE(Full.Valid);
    Caps.push_back(Full.ExploredStates - 1);
    Caps.push_back(Full.ExploredStates);
  }
  Tally T;
  for (size_t Cap : Caps) {
    validity::StaticValidityOptions Tiny;
    Tiny.MaxStates = Cap;
    std::vector<StaticValidityResult> R =
        comparePass(Ctx, H.C1, H.LC1, Plans, H.Repo, H.Registry,
                    "MaxStates " + std::to_string(Cap), T, Tiny);
    if (Cap == 2) {
      // The ValidityTest.StateSpaceCapIsReported shape, two plans at once.
      for (const StaticValidityResult &Each : R) {
        EXPECT_EQ(Each.Failure, PlanFailureKind::StateSpaceExceeded);
        EXPECT_EQ(Each.ExploredStates, 2u);
      }
    }

    ResourceGovernor Gov;
    Gov.setLimit(ResourceKind::ProductStates, Cap);
    validity::StaticValidityOptions Governed;
    Governed.Governor = &Gov;
    R = comparePass(Ctx, H.C1, H.LC1, Plans, H.Repo, H.Registry,
                    "ProductStates " + std::to_string(Cap), T, Governed);
    if (Cap == 1)
      for (const StaticValidityResult &Each : R) {
        ASSERT_EQ(Each.Failure, PlanFailureKind::ResourceExhausted);
        EXPECT_EQ(Each.Exhausted->Which, ResourceKind::ProductStates);
      }
  }
  EXPECT_EQ(T.Cases, 4 * Caps.size());
  // Each plan fits exactly its own cap and budget, and the larger one.
  EXPECT_GE(T.Valid, 4u);
}

/// A service framed by a policy the registry cannot instantiate fails
/// UnknownPolicy in its own plan only, and a µ-loop that reopens one
/// request binds it the same way each time.
TEST(ValidityDiffTest, OnePassSeparatesUnknownPoliciesAndRebinds) {
  hist::HistContext Ctx;
  DiagnosticEngine Diags;
  const char *Source = R"(
policy p(t: int) { start q1; offending q6; q1 -> q6 on e(x) when x > t; }
service s1 { %e(1); A? }
service s2 { %e(9); A? }
service s3 { A? }
client c { mu h . %tick; open 1 @ p(5) { A! }; h }
)";
  std::optional<syntax::SusFile> File =
      syntax::parseSusFile(Ctx, Source, Diags, "loop.sus");
  ASSERT_TRUE(File.has_value());
  hist::PolicyRef Ghost;
  Ghost.Name = Ctx.symbol("ghost");
  File->Repo.add(Ctx.symbol("u"),
                 Ctx.framing(Ghost, File->Repo.find(Ctx.symbol("s3"))));

  std::vector<plan::Plan> Plans;
  for (const char *L : {"s1", "nowhere", "u", "s2", "s3"}) {
    plan::Plan P;
    P.bind(1, Ctx.symbol(L));
    Plans.push_back(std::move(P));
  }
  Plans.insert(Plans.begin() + 2, plan::Plan());
  Tally T;
  const auto &[Name, Client] = *File->Clients.begin();
  std::vector<StaticValidityResult> R = comparePass(
      Ctx, Client, Name, Plans, File->Repo, File->Registry, "loop", T);
  ASSERT_EQ(R.size(), 6u);
  EXPECT_TRUE(R[0].Valid);
  EXPECT_EQ(R[1].Failure, PlanFailureKind::UnknownService);
  EXPECT_EQ(R[2].Failure, PlanFailureKind::UnboundRequest);
  EXPECT_EQ(R[3].Failure, PlanFailureKind::UnknownPolicy);
  EXPECT_EQ(R[3].Policy, Ghost);
  EXPECT_EQ(R[4].Failure, PlanFailureKind::PolicyViolation);
  EXPECT_TRUE(R[5].Valid);
}

/// The client reaches one session tree through q2 (after %a) and through
/// q3 (after %b). Only e(9) tells q2 from q3, and only s2 emits it: fused
/// over its own events, the plan binding s1 explores that tree once, and
/// it must do so beside the plan binding s2 as well. e(1) moves no policy
/// state, so s3's plan may share s1's fusion.
TEST(ValidityDiffTest, OnePassFusesEachPlanOverEventsThatActAlike) {
  hist::HistContext Ctx;
  DiagnosticEngine Diags;
  const char *Source = R"(
policy p(t: int) {
  start q1; offending q6;
  q1 -> q2 on a; q1 -> q3 on b; q2 -> q6 on e(x) when x > t;
}
service s1 { (A? + B?); C? . D? }
service s2 { %e(9); (A? + B?); C? . D? }
service s3 { %e(1); (A? + B?); C? . D? }
client c { open 1 @ p(5) { (A! . %a <+> B! . %b); C! . D! } }
)";
  std::optional<syntax::SusFile> File =
      syntax::parseSusFile(Ctx, Source, Diags, "alike.sus");
  ASSERT_TRUE(File.has_value());
  std::vector<plan::Plan> Plans;
  for (const char *L : {"s1", "s2", "s3"}) {
    plan::Plan P;
    P.bind(1, Ctx.symbol(L));
    Plans.push_back(std::move(P));
  }
  const auto &[Name, Client] = *File->Clients.begin();
  Tally T;
  std::vector<StaticValidityResult> R = comparePass(
      Ctx, Client, Name, Plans, File->Repo, File->Registry, "alike", T);
  ASSERT_EQ(R.size(), 3u);
  for (const StaticValidityResult &Each : R)
    EXPECT_TRUE(Each.Valid);
  // s2 keeps q2 and q3 apart, so its plan explores the shared tail twice.
  EXPECT_LT(R[0].ExploredStates + 1, R[1].ExploredStates);
  EXPECT_LT(R[2].ExploredStates, R[1].ExploredStates);
  // Beside s2's plan alone, and with the plans the other way round.
  for (std::vector<plan::Plan> Pair :
       {std::vector{Plans[0], Plans[1]}, std::vector{Plans[1], Plans[0]}})
    comparePass(Ctx, Client, Name, Pair, File->Repo, File->Registry,
                "alike pair", T);
  EXPECT_EQ(T.Cases, 7u);
}

} // namespace
