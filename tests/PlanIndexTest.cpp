//===- tests/PlanIndexTest.cpp - indexed candidate selection --------------===//
///
/// The ServiceIndex contract: candidates() returns a sorted superset of
/// the compliant locations, the pre-screens never reject a pair the full
/// Def. 4 check accepts, an indexed enumeration (under a compliance
/// filter) emits bit-for-bit the plan set a repository scan emits — and a
/// Verifier over the shipped examples reports the same verdicts either
/// way — and an incrementally patched index answers like a freshly
/// rebuilt one.
///
//===----------------------------------------------------------------------===//

#include "contract/Compliance.h"
#include "contract/Prescreen.h"
#include "core/HotelExample.h"
#include "core/Verifier.h"
#include "plan/PlanEnumerator.h"
#include "plan/RepositoryDelta.h"
#include "plan/RequestExtract.h"
#include "plan/ServiceIndex.h"
#include "syntax/FileParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace sus;
using namespace sus::hist;
using namespace sus::plan;
using core::HotelExample;
using core::makeHotelExample;

namespace {

//===----------------------------------------------------------------------===//
// Deterministic random workloads
//===----------------------------------------------------------------------===//

/// Splitmix-style LCG: deterministic across platforms, unlike std::rand.
struct Lcg {
  uint64_t S;
  uint64_t next() {
    S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    return S >> 33;
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

const char *channelName(uint64_t I) {
  static const char *Pool[] = {"a", "b", "c", "d", "e", "f"};
  return Pool[I % 6];
}

/// A random published service: echo, two-round, external choice, or a
/// broker that opens its own (transitively chased) request.
const Expr *randomService(HistContext &Ctx, Lcg &Rng, unsigned BrokerId) {
  std::string C1 = channelName(Rng.below(6));
  std::string C2 = channelName(Rng.below(6));
  switch (Rng.below(4)) {
  case 0: // Echo.
    return Ctx.receive(C1, Ctx.send(C2, Ctx.empty()));
  case 1: // Two rounds.
    return Ctx.receive(
        C1, Ctx.send(C2, Ctx.receive(channelName(Rng.below(6)),
                                     Ctx.send(channelName(Rng.below(6)),
                                              Ctx.empty()))));
  case 2: { // External choice over two distinct inputs.
    std::string D1 = channelName(Rng.below(3));
    std::string D2 = channelName(3 + Rng.below(3));
    return Ctx.extChoice(
        {{CommAction::input(Ctx.symbol(D1)), Ctx.send(C2, Ctx.empty())},
         {CommAction::input(Ctx.symbol(D2)), Ctx.send(C1, Ctx.empty())}});
  }
  default: // Broker: answers C1 after delegating through its own request.
    return Ctx.receive(
        C1, Ctx.seq(Ctx.request(BrokerId, PolicyRef(),
                                Ctx.send(C2, Ctx.receive(
                                                 channelName(Rng.below(6)),
                                                 Ctx.empty()))),
                    Ctx.send(C2, Ctx.empty())));
  }
}

Repository randomRepository(HistContext &Ctx, Lcg &Rng,
                            unsigned NumServices) {
  Repository Repo;
  for (unsigned I = 0; I < NumServices; ++I)
    Repo.add(Ctx.symbol("svc" + std::to_string(I)),
             randomService(Ctx, Rng, /*BrokerId=*/500 + I));
  return Repo;
}

/// A random request body (the client side of one of the service shapes).
const Expr *randomBody(HistContext &Ctx, Lcg &Rng) {
  std::string C1 = channelName(Rng.below(6));
  std::string C2 = channelName(Rng.below(6));
  if (Rng.below(3) == 0)
    return Ctx.send(C1, Ctx.empty());
  return Ctx.send(C1, Ctx.receive(C2, Ctx.empty()));
}

const Expr *randomClient(HistContext &Ctx, Lcg &Rng, unsigned NumRequests) {
  std::vector<const Expr *> Parts;
  for (unsigned I = 0; I < NumRequests; ++I)
    Parts.push_back(
        Ctx.request(100 + I, PolicyRef(), randomBody(Ctx, Rng)));
  return Ctx.seq(Parts);
}

/// The §4 compliance pruning filter the verifier installs, memoized per
/// (body, service) like VerifierCache does.
struct ComplianceFilter {
  HistContext &Ctx;
  std::map<std::pair<const Expr *, const Expr *>, bool> Memo;

  bool operator()(const RequestSite &Site, Loc, const Expr *Service) {
    auto Key = std::make_pair(Site.body(), Service);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
    bool Ok =
        contract::checkServiceCompliance(Ctx, Site.body(), Service).Compliant;
    return Memo.emplace(Key, Ok).first->second;
  }
};

//===----------------------------------------------------------------------===//
// Candidate lists
//===----------------------------------------------------------------------===//

class ServiceIndexTest : public ::testing::Test {
protected:
  ServiceIndexTest() : Ex(makeHotelExample(Ctx)) {}
  HistContext Ctx;
  HotelExample Ex;
};

TEST_F(ServiceIndexTest, CandidatesAreASortedSupersetOfTheCompliant) {
  ServiceIndex Index(Ctx, Ex.Repo);
  for (const RequestSite &Site : extractRequests(Ex.C1)) {
    std::vector<Loc> Cands = Index.candidates(Site.body());
    EXPECT_TRUE(std::is_sorted(Cands.begin(), Cands.end()));
    for (const auto &[L, Service] : Ex.Repo.services()) {
      if (!contract::checkServiceCompliance(Ctx, Site.body(), Service)
               .Compliant)
        continue;
      EXPECT_NE(std::find(Cands.begin(), Cands.end(), L), Cands.end())
          << "compliant service dropped for request " << Site.id();
    }
  }
}

TEST_F(ServiceIndexTest, LookupsAreMemoizedAndRejectsAreCounted) {
  ServiceIndex Index(Ctx, Ex.Repo);
  const RequestSite Site = extractRequests(Ex.C1)[0];
  std::vector<Loc> First = Index.candidates(Site.body());
  std::vector<Loc> Second = Index.candidates(Site.body());
  EXPECT_EQ(First, Second);

  IndexStats Stats = Index.stats();
  EXPECT_EQ(Stats.Lookups, 2u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.misses(), 1u);
  // Request 1 wants Req! — the four hotels (IdC? ...) never even reach
  // the screens: their buckets don't match, so the candidate list shrinks
  // below the repository without a single product build.
  EXPECT_LT(First.size(), Ex.Repo.size());
}

TEST_F(ServiceIndexTest, FirstStepScreenCutsBucketSurvivors) {
  // A service internally choosing between Ack! and Zzz! registers under
  // bucket[Ack?] (one initial ready set offers Ack!), but Def. 4
  // clause (1) fails on the {Zzz!} set against a client that only awaits
  // Ack — the first-step screen must cut it after the bucket stage, and
  // count the cut.
  Repository Repo;
  Loc LGood = Ctx.symbol("good");
  Loc LFlaky = Ctx.symbol("flaky");
  Repo.add(LGood, Ctx.send("Ack", Ctx.empty()));
  Repo.add(LFlaky,
           Ctx.intChoice(
               {{CommAction::output(Ctx.symbol("Ack")), Ctx.empty()},
                {CommAction::output(Ctx.symbol("Zzz")), Ctx.empty()}}));

  ServiceIndex Index(Ctx, Repo);
  const Expr *Body = Ctx.receive("Ack", Ctx.empty());
  std::vector<Loc> Cands = Index.candidates(Body);
  EXPECT_EQ(Cands, std::vector<Loc>{LGood});
  EXPECT_EQ(Index.stats().FirstStepRejects, 1u);

  // Soundness cross-check: the full product agrees with the screen.
  EXPECT_FALSE(contract::checkServiceCompliance(Ctx, Body,
                                                Repo.find(LFlaky))
                   .Compliant);
  EXPECT_TRUE(contract::checkServiceCompliance(Ctx, Body,
                                               Repo.find(LGood))
                  .Compliant);
}

TEST_F(ServiceIndexTest, PrescreenSoundnessOnRandomPairs) {
  // Necessary conditions only: a pre-screen Reject must imply the full
  // Def. 4 check rejects too, over a few hundred random pairs.
  Lcg Rng{0x5eedULL};
  for (unsigned Round = 0; Round < 40; ++Round) {
    const Expr *Body = randomBody(Ctx, Rng);
    const Expr *Service = randomService(Ctx, Rng, 900 + Round);
    contract::ContractSummary BodySummary =
        contract::summarizeContract(Ctx, Body);
    contract::ContractSummary ServiceSummary =
        contract::summarizeContract(Ctx, Service);
    bool Compliant =
        contract::checkServiceCompliance(Ctx, Body, Service).Compliant;
    contract::PrescreenVerdict Verdict =
        contract::prescreenCompliance(BodySummary, ServiceSummary);
    if (Verdict != contract::PrescreenVerdict::Pass) {
      EXPECT_FALSE(Compliant)
          << "prescreen rejected a compliant pair (round " << Round << ")";
    }
    if (Compliant) {
      EXPECT_EQ(Verdict, contract::PrescreenVerdict::Pass);
    }
  }
}

TEST_F(ServiceIndexTest, HotelPairsSurviveTheScreens) {
  // The paper's own bindings must pass: request 1 against the broker,
  // request 3 against each hotel.
  auto Sites = extractRequests(Ex.C1);
  ASSERT_EQ(Sites.size(), 1u);
  auto BrokerSites = extractRequests(Ex.Br);
  ASSERT_EQ(BrokerSites.size(), 1u);

  auto Screen = [&](const Expr *Body, const Expr *Service) {
    return contract::prescreenCompliance(
        contract::summarizeContract(Ctx, Body),
        contract::summarizeContract(Ctx, Service));
  };
  EXPECT_EQ(Screen(Sites[0].body(), Ex.Br),
            contract::PrescreenVerdict::Pass);
  for (const Expr *Hotel : {Ex.S1, Ex.S2, Ex.S3, Ex.S4})
    EXPECT_EQ(Screen(BrokerSites[0].body(), Hotel),
              contract::PrescreenVerdict::Pass);
}

//===----------------------------------------------------------------------===//
// Differential: indexed == scan
//===----------------------------------------------------------------------===//

TEST(PlanIndexDifferential, IndexedEnumerationMatchesScanOver100Seeds) {
  for (unsigned Seed = 0; Seed < 100; ++Seed) {
    HistContext Ctx;
    Lcg Rng{Seed * 0x9E3779B97F4A7C15ULL + 1};
    Repository Repo = randomRepository(Ctx, Rng, 8 + Seed % 5);
    const Expr *Client = randomClient(Ctx, Rng, 1 + Seed % 3);

    ComplianceFilter Filter{Ctx, {}};
    EnumeratorOptions Scan;
    Scan.Filter = std::ref(Filter);
    EnumerationResult ScanResult = enumeratePlans(Client, Repo, Scan);

    ServiceIndex Index(Ctx, Repo);
    EnumeratorOptions Indexed = Scan;
    Indexed.Index = &Index;
    EnumerationResult IndexResult = enumeratePlans(Client, Repo, Indexed);

    // Bit-for-bit identical plan sets, never more search effort.
    EXPECT_EQ(ScanResult.Plans, IndexResult.Plans) << "seed " << Seed;
    EXPECT_EQ(ScanResult.Truncated, IndexResult.Truncated) << "seed " << Seed;
    EXPECT_LE(IndexResult.BindingsTried, ScanResult.BindingsTried)
        << "seed " << Seed;
  }
}

TEST_F(ServiceIndexTest, IndexedHotelEnumerationMatchesScan) {
  ComplianceFilter Filter{Ctx, {}};
  EnumeratorOptions Scan;
  Scan.Filter = std::ref(Filter);
  ServiceIndex Index(Ctx, Ex.Repo);
  EnumeratorOptions Indexed = Scan;
  Indexed.Index = &Index;

  for (const Expr *Client : {Ex.C1, Ex.C2}) {
    EnumerationResult S = enumeratePlans(Client, Ex.Repo, Scan);
    EnumerationResult I = enumeratePlans(Client, Ex.Repo, Indexed);
    EXPECT_EQ(S.Plans, I.Plans);
    EXPECT_LE(I.BindingsTried, S.BindingsTried);
  }
}

/// Everything a VerificationReport says except BindingsTried, the one
/// count the index exists to lower.
void expectSameReportButBindings(const core::VerificationReport &Scan,
                                 const core::VerificationReport &Indexed,
                                 const HistContext &Ctx) {
  EXPECT_EQ(Scan.CandidateCount, Indexed.CandidateCount);
  EXPECT_EQ(Scan.Truncated, Indexed.Truncated);
  EXPECT_EQ(Scan.EnumerationExhausted.has_value(),
            Indexed.EnumerationExhausted.has_value());
  EXPECT_LE(Indexed.BindingsTried, Scan.BindingsTried);
  ASSERT_EQ(Scan.Verdicts.size(), Indexed.Verdicts.size());
  for (size_t I = 0; I < Scan.Verdicts.size(); ++I) {
    const core::PlanVerdict &A = Scan.Verdicts[I];
    const core::PlanVerdict &B = Indexed.Verdicts[I];
    EXPECT_EQ(A.Pi, B.Pi) << "plan " << I;
    ASSERT_EQ(A.RequestChecks.size(), B.RequestChecks.size()) << "plan " << I;
    for (size_t J = 0; J < A.RequestChecks.size(); ++J) {
      const core::RequestCheck &RA = A.RequestChecks[J];
      const core::RequestCheck &RB = B.RequestChecks[J];
      EXPECT_EQ(RA.Request, RB.Request);
      EXPECT_EQ(RA.Service, RB.Service);
      EXPECT_EQ(RA.Compliant, RB.Compliant);
      EXPECT_EQ(RA.Exhausted.has_value(), RB.Exhausted.has_value());
      ASSERT_EQ(RA.Witness.has_value(), RB.Witness.has_value());
      if (RA.Witness) {
        EXPECT_EQ(RA.Witness->str(Ctx), RB.Witness->str(Ctx));
      }
    }
    EXPECT_EQ(A.Security.Valid, B.Security.Valid) << "plan " << I;
    EXPECT_EQ(A.Security.Failure, B.Security.Failure);
    EXPECT_EQ(A.Security.Policy, B.Security.Policy);
    EXPECT_EQ(A.Security.Request, B.Security.Request);
    EXPECT_EQ(A.Security.Trace, B.Security.Trace);
    EXPECT_EQ(A.Security.ExploredStates, B.Security.ExploredStates);
    EXPECT_EQ(A.Security.HasStuckConfiguration,
              B.Security.HasStuckConfiguration);
  }
  // And the rendering agrees once the one legitimate difference is hidden.
  core::VerificationReport A = Scan, B = Indexed;
  A.BindingsTried = B.BindingsTried = 0;
  std::ostringstream SA, SB;
  core::printReport(A, Ctx, SA);
  core::printReport(B, Ctx, SB);
  EXPECT_EQ(SA.str(), SB.str());
}

TEST(PlanIndexDifferential, ShippedExamplesVerifyAlikeIndexedAndScanned) {
  for (const char *Name : {"hotel.sus", "marketplace.sus"}) {
    SCOPED_TRACE(Name);
    std::ifstream In(std::string(SUS_EXAMPLES_DIR "/") + Name);
    ASSERT_TRUE(In.good());
    std::stringstream Source;
    Source << In.rdbuf();
    HistContext Ctx;
    DiagnosticEngine Diags;
    std::optional<syntax::SusFile> File =
        syntax::parseSusFile(Ctx, Source.str(), Diags, Name);
    ASSERT_TRUE(File.has_value());

    core::VerifierOptions ScanOpts;
    ScanOpts.UseIndex = false;
    core::Verifier Scan(Ctx, File->Repo, File->Registry, ScanOpts);
    core::Verifier Indexed(Ctx, File->Repo, File->Registry);
    ASSERT_NE(Indexed.index(), nullptr);
    ASSERT_FALSE(File->Clients.empty());
    for (const auto &[Loc, Client] : File->Clients)
      expectSameReportButBindings(Scan.verifyClient(Client, Loc),
                                  Indexed.verifyClient(Client, Loc), Ctx);
  }
}

//===----------------------------------------------------------------------===//
// Incremental maintenance
//===----------------------------------------------------------------------===//

TEST(PlanIndexChurn, PatchedIndexAnswersLikeARebuiltOne) {
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    HistContext Ctx;
    Lcg Rng{Seed * 0xD1B54A32D192ED03ULL + 7};
    Repository Repo = randomRepository(Ctx, Rng, 10);
    ServiceIndex Index(Ctx, Repo);

    // Churn: remove one location, re-version another, add a fresh one.
    RepositoryDelta Delta;
    Loc Removed = Ctx.symbol("svc" + std::to_string(Rng.below(10)));
    Delta.Changes.push_back(applyRemove(Repo, Removed));
    Loc Replaced = Ctx.symbol("svc" + std::to_string(Rng.below(10)));
    if (Repo.find(Replaced))
      Delta.Changes.push_back(applyPublish(
          Repo, Replaced, randomService(Ctx, Rng, /*BrokerId=*/800)));
    Delta.Changes.push_back(applyPublish(
        Repo, Ctx.symbol("fresh"), randomService(Ctx, Rng, /*BrokerId=*/801)));
    Index.apply(Delta);

    ServiceIndex Rebuilt(Ctx, Repo);
    EXPECT_EQ(Index.size(), Rebuilt.size()) << "seed " << Seed;
    for (unsigned Probe = 0; Probe < 12; ++Probe) {
      const Expr *Body = randomBody(Ctx, Rng);
      EXPECT_EQ(Index.candidates(Body), Rebuilt.candidates(Body))
          << "seed " << Seed << " probe " << Probe;
    }
  }
}

TEST_F(ServiceIndexTest, ApplyDropsTheCandidateMemo) {
  ServiceIndex Index(Ctx, Ex.Repo);
  auto BrokerSites = extractRequests(Ex.Br);
  ASSERT_EQ(BrokerSites.size(), 1u);
  const Expr *Body = BrokerSites[0].body();

  std::vector<Loc> Before = Index.candidates(Body);
  EXPECT_NE(std::find(Before.begin(), Before.end(), Ex.LS3), Before.end());

  // Unpublish s3: the memoized list must not survive the churn.
  RepositoryDelta Delta;
  Delta.Changes.push_back(applyRemove(Ex.Repo, Ex.LS3));
  Index.apply(Delta);

  std::vector<Loc> After = Index.candidates(Body);
  EXPECT_EQ(std::find(After.begin(), After.end(), Ex.LS3), After.end());
  EXPECT_EQ(Index.size(), Ex.Repo.size());
}

} // namespace
