//===- analysis/FramingLints.cpp - Security-framing analyses --------------===//
///
/// Two passes over the policy framings a file actually uses:
///
///  - sus-lint-vacuous-framing: the instantiated policy cannot be violated
///    by ANY sequence of the events occurring anywhere in this file — the
///    framing compiles to an empty violation language over the file's
///    event universe, so enforcing it monitors nothing;
///  - sus-lint-doomed-framing: every candidate plan of a client fails the
///    static validity check with a policy violation — the client can never
///    be orchestrated securely against the published repository.
///
/// Both reuse the verification kernels read-only: compilePolicy/isEmpty
/// for vacuity, enumeratePlans/checkPlanValidity for doom. Budgets keep
/// the lint cheap; exceeding one makes the pass stay silent rather than
/// guess.
///
//===----------------------------------------------------------------------===//

#include "analysis/ExprWalk.h"
#include "analysis/Lint.h"

#include "automata/Ops.h"
#include "plan/PlanEnumerator.h"
#include "policy/Compile.h"
#include "validity/StaticValidity.h"

#include <map>
#include <string>
#include <vector>

using namespace sus;
using namespace sus::analysis;

namespace {

/// Budget for the doomed-framing pass: candidate plans examined per client
/// and states explored per plan. Linting stays cheap; the full verifier
/// remains the authority on plan validity.
constexpr size_t MaxPlansPerClient = 64;
constexpr size_t MaxStatesPerPlan = 1 << 14;

/// The file-wide event universe: every concrete event any declared
/// behaviour can fire. Framed bodies are subterms of behaviours, so this
/// over-approximates what can reach any framing.
std::vector<hist::Event> fileEventUniverse(const syntax::SusFile &File) {
  std::vector<const hist::Expr *> Bodies;
  for (const BehaviorRef &B : allBehaviors(File))
    Bodies.push_back(B.Body);
  return policy::eventUniverse(Bodies);
}

class VacuousFramingPass : public LintPass {
public:
  std::string_view id() const override { return "sus-lint-vacuous-framing"; }
  std::string_view category() const override { return "lint.framing"; }
  std::string_view description() const override {
    return "framings of policies no event in the file can ever violate";
  }

  void run(LintContext &LC) const override {
    const StringInterner &In = LC.context().interner();
    const syntax::SusFile &File = LC.file();
    std::vector<hist::Event> Universe = fileEventUniverse(File);

    // Vacuity depends only on the instantiated policy and the (shared)
    // universe, so memoize per reference.
    std::map<hist::PolicyRef, bool> Vacuous;
    auto IsVacuous = [&](const hist::PolicyRef &Ref) -> bool {
      auto It = Vacuous.find(Ref);
      if (It != Vacuous.end())
        return It->second;
      bool Result = false;
      if (std::optional<policy::PolicyInstance> Instance =
              File.Registry.instantiate(Ref, In)) {
        policy::CompiledPolicy CP =
            policy::compilePolicy(*Instance, Universe);
        Result = automata::isEmpty(CP.Automaton);
      }
      Vacuous.emplace(Ref, Result);
      return Result;
    };

    for (const BehaviorRef &B : allBehaviors(File)) {
      SourceLoc Loc = LC.declLoc(
          B.IsService ? File.ServiceLocs : File.ClientLocs, B.Name);
      walkExpr(B.Body, [&](const hist::Expr *E) {
        const hist::PolicyRef *Ref = nullptr;
        if (const auto *F = dyn_cast<hist::FramingExpr>(E))
          Ref = &F->policy();
        else if (const auto *R = dyn_cast<hist::RequestExpr>(E))
          Ref = &R->policy();
        if (!Ref || Ref->isTrivial() || !IsVacuous(*Ref))
          return;
        LC.emit(id(), category(), Loc,
                "framing of policy '" + Ref->str(In) + "' in '" +
                    std::string(In.text(B.Name)) +
                    "' is vacuous: no sequence of events occurring in "
                    "this file can violate it");
      });
    }
  }
};

class DoomedFramingPass : public LintPass {
public:
  std::string_view id() const override { return "sus-lint-doomed-framing"; }
  std::string_view category() const override { return "lint.framing"; }
  std::string_view description() const override {
    return "clients whose every candidate plan violates a policy";
  }

  void run(LintContext &LC) const override {
    const StringInterner &In = LC.context().interner();
    const syntax::SusFile &File = LC.file();

    for (const auto &[Name, Client] : File.Clients) {
      plan::EnumeratorOptions EnumOpts;
      EnumOpts.MaxPlans = MaxPlansPerClient;
      plan::EnumerationResult Enum =
          plan::enumeratePlans(Client, File.Repo, EnumOpts);
      // Inconclusive when the candidate space was truncated, and out of
      // scope when there are no complete plans at all (that is the
      // no-candidate-service pass's report, not a framing problem).
      if (Enum.Truncated || Enum.Plans.empty())
        continue;

      bool AllViolate = true;
      std::optional<validity::StaticValidityResult> Witness;
      for (const plan::Plan &P : Enum.Plans) {
        validity::StaticValidityOptions VOpts;
        VOpts.MaxStates = MaxStatesPerPlan;
        validity::StaticValidityResult R = validity::checkPlanValidity(
            LC.context(), Client, Name, P, File.Repo, File.Registry, VOpts);
        if (R.Valid ||
            R.Failure != validity::PlanFailureKind::PolicyViolation) {
          // A valid plan, or a failure we cannot blame on the policies
          // (unknown service, exhausted budget, ...): not doomed.
          AllViolate = false;
          break;
        }
        if (!Witness)
          Witness = std::move(R);
      }
      if (!AllViolate || !Witness)
        continue;

      Diagnostic *D = LC.emit(
          id(), category(), LC.declLoc(File.ClientLocs, Name),
          "client '" + std::string(In.text(Name)) +
              "' is statically doomed: all " +
              std::to_string(Enum.Plans.size()) +
              " candidate plans violate a policy");
      if (!D)
        continue;
      std::string Trace;
      for (const std::string &Step : Witness->Trace) {
        if (!Trace.empty())
          Trace += " . ";
        Trace += Step;
      }
      std::string Policy =
          Witness->Policy ? Witness->Policy->str(In) : std::string("?");
      D->note(SourceLoc{0, 0, LC.fileName()},
              "for example, policy '" + Policy + "' is violated after: " +
                  (Trace.empty() ? "<empty trace>" : Trace));
    }
  }
};

} // namespace

namespace sus {
namespace analysis {

const LintPass &vacuousFramingPass() {
  static const VacuousFramingPass P;
  return P;
}

const LintPass &doomedFramingPass() {
  static const DoomedFramingPass P;
  return P;
}

} // namespace analysis
} // namespace sus
