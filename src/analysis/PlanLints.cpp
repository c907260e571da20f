//===- analysis/PlanLints.cpp - Plan and session checks -------------------===//
///
/// Two passes over the orchestration layer:
///
///  - sus-lint-no-candidate-service: a request site no published service
///    can serve — Hc! ⊢ Hs! fails for every candidate the ServiceIndex
///    returns (a superset of the compliant services), so no plan can ever
///    bind the request;
///  - sus-lint-deadend-ready-sets: declared `plan` blocks whose bindings
///    cannot work — unknown clients or locations, requests nothing opens,
///    and bindings where some nonempty client ready set cannot synchronize
///    with some service ready set (Def. 4's condition fails at the very
///    first step, so the pair can get stuck immediately; the check is
///    contract::firstStuckPair, the index's first-step screen).
///
//===----------------------------------------------------------------------===//

#include "analysis/ExprWalk.h"
#include "analysis/Lint.h"

#include "contract/Compliance.h"
#include "contract/Prescreen.h"
#include "plan/RequestExtract.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace sus;
using namespace sus::analysis;

namespace {

std::string renderReadySet(const contract::ReadySet &S,
                           const StringInterner &In) {
  std::string Out = "{";
  for (const hist::CommAction &A : S) {
    if (Out.size() > 1)
      Out += ", ";
    Out += A.str(In);
  }
  return Out + "}";
}

class NoCandidateServicePass : public LintPass {
public:
  std::string_view id() const override {
    return "sus-lint-no-candidate-service";
  }
  std::string_view category() const override { return "lint.plan"; }
  std::string_view description() const override {
    return "requests no published service is compliant with";
  }

  void run(LintContext &LC) const override {
    hist::HistContext &Ctx = LC.context();
    const StringInterner &In = Ctx.interner();
    const syntax::SusFile &File = LC.file();
    const plan::ServiceIndex &Index = LC.index();

    for (const BehaviorRef &B : allBehaviors(File)) {
      SourceLoc Loc = LC.declLoc(
          B.IsService ? File.ServiceLocs : File.ClientLocs, B.Name);
      for (const plan::RequestSite &Site :
           plan::extractRequests(B.Body)) {
        // The index's candidates are a superset of the compliant
        // services (DESIGN.md §10): only they can serve the request.
        std::vector<plan::Loc> Candidates = Index.candidates(Site.body());
        if (std::any_of(Candidates.begin(), Candidates.end(),
                        [&](plan::Loc L) {
                          return contract::checkServiceCompliance(
                                     Ctx, Site.body(), File.Repo.find(L))
                              .Compliant;
                        }))
          continue;
        LC.emit(id(), category(), Loc,
                "request " + std::to_string(Site.id()) + " in '" +
                    std::string(In.text(B.Name)) +
                    "' has no candidate service: none of the " +
                    std::to_string(File.Repo.size()) +
                    " published services is compliant with it");
      }
    }
  }
};

class DeadendReadySetsPass : public LintPass {
public:
  std::string_view id() const override {
    return "sus-lint-deadend-ready-sets";
  }
  std::string_view category() const override { return "lint.plan"; }
  std::string_view description() const override {
    return "declared plans with broken or immediately-stuck bindings";
  }

  void run(LintContext &LC) const override {
    hist::HistContext &Ctx = LC.context();
    const StringInterner &In = Ctx.interner();
    const syntax::SusFile &File = LC.file();

    // Every request site any behaviour opens, by identifier: a plan may
    // bind requests of the client *and* of the services it pulls in.
    std::map<hist::RequestId, std::vector<plan::RequestSite>> Sites;
    for (const BehaviorRef &B : allBehaviors(File))
      for (const plan::RequestSite &Site : plan::extractRequests(B.Body))
        Sites[Site.id()].push_back(Site);

    for (const syntax::PlanDecl &Decl : File.Plans) {
      SourceLoc Loc = Decl.Loc;
      std::string PlanName(In.text(Decl.Name));
      if (!File.findClient(Decl.Client)) {
        LC.emit(id(), category(), Loc,
                "plan '" + PlanName + "' is for unknown client '" +
                    std::string(In.text(Decl.Client)) + "'");
        continue;
      }
      for (const auto &[R, L] : Decl.Pi.bindings()) {
        const hist::Expr *Service = File.Repo.find(L);
        if (!Service) {
          LC.emit(id(), category(), Loc,
                  "plan '" + PlanName + "' binds request " +
                      std::to_string(R) + " to '" +
                      std::string(In.text(L)) +
                      "', which is not a published service");
          continue;
        }
        auto SiteIt = Sites.find(R);
        if (SiteIt == Sites.end()) {
          LC.emit(id(), category(), Loc,
                  "plan '" + PlanName + "' binds request " +
                      std::to_string(R) +
                      ", but no declared behaviour opens it");
          continue;
        }
        contract::ContractSummary Server =
            contract::summarizeContract(Ctx, Service);
        for (const plan::RequestSite &Site : SiteIt->second) {
          contract::ContractSummary Request =
              contract::summarizeContract(Ctx, Site.body());
          std::optional<contract::StuckPair> Stuck =
              contract::firstStuckPair(Request, Server);
          if (!Stuck)
            continue;
          Diagnostic *D = LC.emit(
              id(), category(), Loc,
              "plan '" + PlanName + "' binds request " + std::to_string(R) +
                  " to '" + std::string(In.text(L)) +
                  "', but they can get stuck at the first step");
          if (D)
            D->note(SourceLoc{0, 0, LC.fileName()},
                    "the request may offer " +
                        renderReadySet(*Stuck->Client, In) + " while '" +
                        std::string(In.text(L)) + "' offers " +
                        renderReadySet(*Stuck->Service, In) +
                        ": no synchronization is possible");
          break;
        }
      }
    }
  }
};

} // namespace

namespace sus {
namespace analysis {

const LintPass &noCandidateServicePass() {
  static const NoCandidateServicePass P;
  return P;
}

const LintPass &deadendReadySetsPass() {
  static const DeadendReadySetsPass P;
  return P;
}

} // namespace analysis
} // namespace sus
