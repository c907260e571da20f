//===- core/Verifier.cpp - The §5 verification procedure ------------------===//

#include "core/Verifier.h"

#include "hist/Clone.h"
#include "plan/RequestExtract.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <span>

using namespace sus;
using namespace sus::core;

//===----------------------------------------------------------------------===//
// Shards
//===----------------------------------------------------------------------===//

/// A worker-private copy of the verification inputs. The shard interner is
/// seeded from the session interner first, so every symbol keeps its id and
/// every canonical Symbol-based ordering (choice-branch sorting, derivative
/// enumeration) coincides with the session's — which is why a shard's
/// exploration reproduces the serial one bit-for-bit.
struct Verifier::Shard {
  hist::HistContext Ctx;
  const hist::Expr *Client = nullptr;
  plan::Repository Repo;

  Shard(const hist::HistContext &Main, const hist::Expr *MainClient,
        const plan::Repository &MainRepo) {
    const StringInterner &From = Main.interner();
    Ctx.interner().seedFrom(From);
    Client = hist::cloneExpr(Ctx, From, MainClient);
    for (const auto &[Loc, Service] : MainRepo.services())
      Repo.add(hist::cloneSymbol(Ctx, From, Loc),
               hist::cloneExpr(Ctx, From, Service), MainRepo.capacity(Loc));
  }
};

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Verifier::Verifier(hist::HistContext &Ctx, const plan::Repository &Repo,
                   const policy::PolicyRegistry &Registry,
                   VerifierOptions Options,
                   std::shared_ptr<VerifierCache> Cache)
    : Ctx(Ctx), Repo(Repo), Registry(Registry), Options(Options),
      Cache(Cache ? std::move(Cache) : std::make_shared<VerifierCache>()) {}

Verifier::~Verifier() = default;

unsigned Verifier::effectiveJobs() const {
  return Options.Jobs == 0 ? ThreadPool::defaultWorkers() : Options.Jobs;
}

//===----------------------------------------------------------------------===//
// Compliance
//===----------------------------------------------------------------------===//

bool Verifier::bindingCompliant(const hist::Expr *RequestBody,
                                const hist::Expr *Service) {
  contract::ComplianceResult R =
      Cache->compliance(Ctx, RequestBody, Service, gov());
  // An exhausted product refutes nothing: keep the binding, so the
  // per-plan checks surface it as inconclusive instead of this pruning
  // silently shrinking the candidate set.
  return R.Compliant || R.Exhausted.has_value();
}

std::map<hist::RequestId, plan::RequestSite>
Verifier::collectPlanSites(const hist::Expr *Client, const plan::Plan &Pi,
                           SiteMemo &Memo) const {
  auto SitesOf = [&](const hist::Expr *E) -> const auto & {
    auto [It, New] = Memo.try_emplace(E);
    if (New)
      It->second = plan::extractRequests(E);
    return It->second;
  };
  // Collect the request sites of the composed service: the client's own
  // requests plus, transitively, those of every planned service.
  std::vector<const plan::RequestSite *> Sites;
  for (const plan::RequestSite &S : SitesOf(Client))
    Sites.push_back(&S);
  std::map<hist::RequestId, plan::RequestSite> ById;
  for (size_t I = 0; I < Sites.size(); ++I) {
    const plan::RequestSite &S = *Sites[I];
    if (!ById.count(S.id()))
      ById.emplace(S.id(), S);
    if (std::optional<plan::Loc> L = Pi.lookup(S.id()))
      if (const hist::Expr *Service = Repo.find(*L))
        for (const plan::RequestSite &Nested : SitesOf(Service)) {
          if (ById.count(Nested.id()))
            continue;
          Sites.push_back(&Nested);
          ById.emplace(Nested.id(), Nested);
        }
  }
  return ById;
}

std::vector<RequestCheck> Verifier::buildRequestChecks(
    const std::map<hist::RequestId, plan::RequestSite> &ById,
    const plan::Plan &Pi) {
  std::vector<RequestCheck> Checks;
  Checks.reserve(ById.size());
  for (const auto &[Id, Site] : ById) {
    RequestCheck Check;
    Check.Request = Id;
    std::optional<plan::Loc> L = Pi.lookup(Id);
    if (!L || !Repo.find(*L)) {
      Check.Compliant = false;
      Checks.push_back(std::move(Check));
      continue;
    }
    Check.Service = *L;
    contract::ComplianceResult R =
        Cache->compliance(Ctx, Site.body(), Repo.find(*L), gov());
    Check.Compliant = R.Compliant;
    Check.Witness = std::move(R.Witness);
    Check.Exhausted = R.Exhausted;
    Checks.push_back(std::move(Check));
  }
  return Checks;
}

//===----------------------------------------------------------------------===//
// Plan checking
//===----------------------------------------------------------------------===//

namespace {

/// The security verdict of a plan whose exploration never ran (or never
/// finished) because of a governor trip.
validity::StaticValidityResult exhaustedValidity(const ResourceExhausted &E) {
  validity::StaticValidityResult R;
  R.Valid = false;
  R.Failure = validity::PlanFailureKind::ResourceExhausted;
  R.Exhausted = E;
  return R;
}

} // namespace

PlanVerdict Verifier::checkPlan(const hist::Expr *Client,
                                plan::Loc ClientLoc, const plan::Plan &Pi) {
  return std::move(checkPlans(Client, ClientLoc, {Pi}).front());
}

std::vector<PlanVerdict>
Verifier::checkPlans(const hist::Expr *Client, plan::Loc ClientLoc,
                     const std::vector<plan::Plan> &Plans) {
  if (Plans.empty())
    return {};
  trace::Span Span("plan.verify", "verifier");
  Span.count("plans", static_cast<int64_t>(Plans.size()));
  std::vector<PlanVerdict> Verdicts(Plans.size());

  // Compliance, serially on the session context: after this loop every
  // (body, service) pair of every plan sits in the cache, so no worker
  // shard ever needs the session HistContext.
  SiteMemo Memo;
  for (size_t I = 0; I < Plans.size(); ++I) {
    Verdicts[I].Pi = Plans[I];
    Verdicts[I].RequestChecks =
        buildRequestChecks(collectPlanSites(Client, Plans[I], Memo), Plans[I]);
  }

  // Security: cached verdicts first, then the misses in validity passes.
  std::vector<size_t> Misses;
  for (size_t I = 0; I < Plans.size(); ++I) {
    if (std::optional<validity::StaticValidityResult> Hit =
            Cache->findValidity(Client, ClientLoc, Plans[I],
                                Options.MaxStatesPerPlan))
      Verdicts[I].Security = std::move(*Hit);
    else
      Misses.push_back(I);
  }
  if (!Misses.empty())
    checkSecurity(Client, ClientLoc, Plans, Misses, Verdicts);

  // The span carries one tag: a governor trip outranks the cache verdict
  // (a tripped path is never cached, so "miss" would say nothing anyway).
  std::optional<ResourceExhausted> Trip;
  for (const PlanVerdict &V : Verdicts)
    if ((Trip = V.exhaustedReason()))
      break;
  if (Trip)
    Span.tag("governor",
             Trip->deadlineLike() ? "deadline_exceeded" : "budget_exceeded");
  else
    Span.tag("cache", Misses.empty() ? "hit" : "miss");
  return Verdicts;
}

void Verifier::checkSecurity(const hist::Expr *Client, plan::Loc ClientLoc,
                             const std::vector<plan::Plan> &Plans,
                             const std::vector<size_t> &Misses,
                             std::vector<PlanVerdict> &Verdicts) {
  validity::StaticValidityOptions VOpts;
  VOpts.MaxStates = Options.MaxStatesPerPlan;
  VOpts.Governor = gov();
  std::vector<const plan::Plan *> Pending;
  for (size_t I : Misses)
    Pending.push_back(&Plans[I]);

  std::vector<std::optional<validity::StaticValidityResult>> Security(
      Pending.size());
  size_t Chunks = std::min<size_t>(effectiveJobs(), Pending.size());
  if (Chunks <= 1) {
    std::vector<validity::StaticValidityResult> Results =
        validity::checkClientPlans(Ctx, Client, ClientLoc, Pending, Repo,
                                   Registry, VOpts);
    std::move(Results.begin(), Results.end(), Security.begin());
  } else {
    trace::Span FanoutSpan("plan.fanout", "verifier");
    FanoutSpan.count("misses", static_cast<int64_t>(Pending.size()));
    unsigned Jobs = effectiveJobs();
    if (!Pool || Pool->numWorkers() != Jobs)
      Pool = std::make_unique<ThreadPool>(Jobs);

    // One pass per contiguous chunk; each plan's verdict does not depend
    // on the pass it shares, so this equals the serial pass. Shards are
    // created lazily by the first task each worker runs; a worker executes
    // one task at a time, so its slot needs no lock, and waitIdle() orders
    // every write below before the main thread reads.
    std::vector<std::unique_ptr<Shard>> Shards(Pool->numWorkers());
    size_t Per = (Pending.size() + Chunks - 1) / Chunks;
    for (size_t Begin = 0; Begin < Pending.size(); Begin += Per)
      Pool->submit([&, Begin](unsigned Worker) {
        size_t End = std::min(Pending.size(), Begin + Per);
        // Poll-first: a task starting after a sticky deadline/cancel trip
        // does no exploration and just reports the trip.
        if (const ResourceGovernor *Gov = gov())
          if (std::optional<ResourceExhausted> E = Gov->trip()) {
            for (size_t I = Begin; I != End; ++I)
              Security[I] = exhaustedValidity(*E);
            return;
          }
        if (!Shards[Worker])
          Shards[Worker] = std::make_unique<Shard>(Ctx, Client, Repo);
        Shard &S = *Shards[Worker];
        std::vector<validity::StaticValidityResult> Results =
            validity::checkClientPlans(
                S.Ctx, S.Client, ClientLoc,
                std::span(Pending).subspan(Begin, End - Begin), S.Repo,
                Registry, VOpts);
        bool Sticky = false;
        for (size_t I = Begin; I != End; ++I) {
          validity::StaticValidityResult &R = Results[I - Begin];
          Sticky |= R.Exhausted && R.Exhausted->deadlineLike();
          Security[I] = std::move(R);
        }
        // Sticky trips doom every queued chunk too: drain the backlog in
        // one motion rather than letting each task rediscover the trip.
        if (Sticky)
          Pool->cancelPending();
      });
    Pool->waitIdle();
  }

  for (size_t K = 0; K < Pending.size(); ++K) {
    if (!Security[K]) {
      // This chunk was discarded by cancelPending(): synthesize its
      // verdict from the sticky trip that triggered the drain.
      std::optional<ResourceExhausted> E = gov() ? gov()->trip() : std::nullopt;
      Security[K] = exhaustedValidity(
          E ? *E : ResourceExhausted{ResourceKind::Cancelled, 0, 0});
    }
    // A tripped exploration is not a verdict: record nothing, so the next
    // (possibly unbounded) lookup for this signature recomputes for real.
    if (Security[K]->Failure != validity::PlanFailureKind::ResourceExhausted)
      Cache->recordValidity(Client, ClientLoc, *Pending[K],
                            VOpts.MaxStates, *Security[K]);
    Verdicts[Misses[K]].Security = std::move(*Security[K]);
  }
}

const plan::ServiceIndex *Verifier::index() {
  if (!indexEffective())
    return nullptr;
  if (!Index)
    Index = std::make_unique<plan::ServiceIndex>(Ctx, Repo);
  return Index.get();
}

void Verifier::adoptIndex(std::unique_ptr<plan::ServiceIndex> Warm) {
  if (indexEffective())
    Index = std::move(Warm);
}

VerifierCache::EvictionStats
Verifier::applyDelta(const plan::RepositoryDelta &Delta) {
  VerifierCache::EvictionStats Evicted = Cache->invalidate(Delta, Repo);
  if (Index)
    Index->apply(Delta);
  return Evicted;
}

VerificationReport Verifier::verifyClient(const hist::Expr *Client,
                                          plan::Loc ClientLoc) {
  trace::Span ClientSpan("client.verify", "verifier");
  VerificationReport Report;

  plan::EnumeratorOptions EOpts;
  EOpts.MaxPlans = Options.MaxPlans;
  EOpts.Governor = gov();
  EOpts.Index = index();
  if (Options.PruneWithCompliance)
    EOpts.Filter = [this](const plan::RequestSite &Site, plan::Loc,
                          const hist::Expr *Service) {
      return bindingCompliant(Site.body(), Service);
    };

  plan::EnumerationResult Enumeration =
      plan::enumeratePlans(Client, Repo, EOpts);
  Report.CandidateCount = Enumeration.Plans.size();
  Report.BindingsTried = Enumeration.BindingsTried;
  Report.Truncated = Enumeration.Truncated;
  Report.EnumerationExhausted = Enumeration.Exhausted;
  ClientSpan.count("candidates", static_cast<int64_t>(Report.CandidateCount));
  {
    static metrics::Counter &PlansChecked =
        metrics::counter("verifier.plans_checked");
    PlansChecked.add(Enumeration.Plans.size());
  }

  Report.Verdicts = checkPlans(Client, ClientLoc, Enumeration.Plans);
  return Report;
}

NetworkReport Verifier::verifyNetwork(
    const std::vector<std::pair<const hist::Expr *, plan::Loc>> &Clients) {
  NetworkReport Report;
  for (const auto &[Client, Loc] : Clients)
    Report.PerClient.push_back({Loc, verifyClient(Client, Loc)});
  return Report;
}

void sus::core::printReportSummary(const VerificationReport &Report,
                                   std::ostream &OS) {
  OS << "candidate plans: " << Report.CandidateCount
     << " (bindings tried: " << Report.BindingsTried << ")";
  if (Report.Truncated)
    OS << " [truncated]";
  if (Report.EnumerationExhausted)
    OS << " [enumeration inconclusive: "
       << resourceKindName(Report.EnumerationExhausted->Which) << "]";
  OS << "\n";
}

void sus::core::printReport(const VerificationReport &Report,
                            const hist::HistContext &Ctx, std::ostream &OS) {
  const StringInterner &In = Ctx.interner();
  printReportSummary(Report, OS);
  for (const PlanVerdict &V : Report.Verdicts) {
    OS << "  plan " << V.Pi.str(In) << ": ";
    if (V.isValid()) {
      OS << "VALID\n";
      continue;
    }
    if (V.inconclusive()) {
      std::optional<ResourceExhausted> E = V.exhaustedReason();
      OS << "Inconclusive(resource: "
         << (E ? resourceKindName(E->Which) : "unknown") << ")\n";
      continue;
    }
    OS << "invalid";
    for (const RequestCheck &C : V.RequestChecks)
      if (!C.Compliant && !C.Exhausted) {
        OS << " [request " << C.Request << " not compliant";
        if (C.Witness)
          OS << ": " << C.Witness->str(Ctx);
        OS << "]";
      }
    if (!V.Security.Valid) {
      OS << " [security: ";
      switch (V.Security.Failure) {
      case validity::PlanFailureKind::PolicyViolation:
        OS << "policy "
           << (V.Security.Policy ? V.Security.Policy->str(In) : "?")
           << " violated";
        break;
      case validity::PlanFailureKind::UnboundRequest:
        OS << "request "
           << (V.Security.Request ? std::to_string(*V.Security.Request)
                                  : "?")
           << " unbound";
        break;
      case validity::PlanFailureKind::UnknownService:
        OS << "unknown service";
        break;
      case validity::PlanFailureKind::UnknownPolicy:
        OS << "unknown policy";
        break;
      case validity::PlanFailureKind::StateSpaceExceeded:
        OS << "state space exceeded";
        break;
      case validity::PlanFailureKind::ResourceExhausted:
        // Only reachable when another check already refuted the plan:
        // the verdict is conclusively invalid, this leg just ran out.
        OS << "inconclusive (resource: "
           << (V.Security.Exhausted
                   ? resourceKindName(V.Security.Exhausted->Which)
                   : "unknown")
           << ")";
        break;
      case validity::PlanFailureKind::None:
        break;
      }
      OS << "]";
    }
    OS << "\n";
  }
  std::vector<plan::Plan> Valid = Report.validPlans();
  OS << "valid plans: " << Valid.size() << "\n";
  size_t Inconclusive = 0;
  for (const PlanVerdict &V : Report.Verdicts)
    if (V.inconclusive())
      ++Inconclusive;
  // Printed only when a governor actually tripped, so ungoverned output
  // is byte-identical to what it always was.
  if (Inconclusive > 0)
    OS << "inconclusive plans: " << Inconclusive << "\n";
}
