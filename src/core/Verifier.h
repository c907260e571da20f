//===- core/Verifier.h - The §5 verification procedure ----------*- C++ -*-===//
///
/// \file
/// "Given a repository R and a vector of clients, pick up one of them, say
/// H, at a time; generate a valid plan πH for H; for each request
/// open_{r,ϕ} H1 close_{r,ϕ} occurring in the composed service check if
/// H1 ⊢ H2, where πH(r) = ℓ2 and ℓ2 ∈ R. If all these steps succeed,
/// switch off any run-time monitor, and live happily: nothing bad will
/// happen." (§5)
///
/// The Verifier enumerates candidate plans (optionally pruning bindings
/// whose contracts are not compliant), checks per-request compliance via
/// the §4 product automaton and whole-plan security via the §3.1 composed
/// model checker, and reports every verdict.
///
/// Verification is a pipeline over a shared VerifierCache: every
/// (request body, service) compliance pair is model-checked exactly once
/// per session, and with Jobs > 1 the independent per-plan security
/// explorations fan out over a work-stealing thread pool. Parallel and
/// serial runs produce element-wise identical reports (see DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef SUS_CORE_VERIFIER_H
#define SUS_CORE_VERIFIER_H

#include "contract/Compliance.h"
#include "core/VerifierCache.h"
#include "plan/Plan.h"
#include "plan/PlanEnumerator.h"
#include "policy/UsageAutomaton.h"
#include "validity/StaticValidity.h"

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

namespace sus {

class ThreadPool;

namespace core {

/// Outcome of checking one request binding r[ℓ] for compliance.
struct RequestCheck {
  hist::RequestId Request = 0;
  plan::Loc Service;
  bool Compliant = false;
  std::optional<contract::ComplianceWitness> Witness;
  /// Set when a governor stopped the compliance product before a verdict:
  /// Compliant is false but means "inconclusive", not "refuted".
  std::optional<ResourceExhausted> Exhausted;
};

/// The full verdict for one candidate plan.
struct PlanVerdict {
  plan::Plan Pi;
  std::vector<RequestCheck> RequestChecks;
  validity::StaticValidityResult Security;

  bool compliancePassed() const {
    for (const RequestCheck &C : RequestChecks)
      if (!C.Compliant)
        return false;
    return true;
  }

  /// A valid plan guarantees progress *and* security: the monitor can be
  /// switched off.
  bool isValid() const { return compliancePassed() && Security.Valid; }

  /// Inconclusive(resource): a governor trip prevented a verdict, and no
  /// *conclusive* failure was found either — the plan is neither valid
  /// nor refuted. A plan with one refuted request stays plain invalid
  /// even if another check was cut short.
  bool inconclusive() const {
    bool AnyExhausted = false;
    for (const RequestCheck &C : RequestChecks) {
      if (C.Exhausted)
        AnyExhausted = true;
      else if (!C.Compliant)
        return false; // Conclusively non-compliant.
    }
    if (Security.Failure == validity::PlanFailureKind::ResourceExhausted)
      AnyExhausted = true;
    else if (!Security.Valid)
      return false; // Conclusively insecure.
    return AnyExhausted;
  }

  /// The first governor trip behind an inconclusive verdict, if any.
  std::optional<ResourceExhausted> exhaustedReason() const {
    for (const RequestCheck &C : RequestChecks)
      if (C.Exhausted)
        return C.Exhausted;
    if (Security.Failure == validity::PlanFailureKind::ResourceExhausted)
      return Security.Exhausted;
    return std::nullopt;
  }
};

/// Everything the verifier learned about one client.
struct VerificationReport {
  std::vector<PlanVerdict> Verdicts;
  size_t CandidateCount = 0;
  size_t BindingsTried = 0;
  bool Truncated = false;
  /// Set when the governor stopped plan *enumeration* itself: the verdict
  /// list may be missing candidates that were never generated.
  std::optional<ResourceExhausted> EnumerationExhausted;

  /// The valid plans, in enumeration order.
  std::vector<plan::Plan> validPlans() const {
    std::vector<plan::Plan> Out;
    for (const PlanVerdict &V : Verdicts)
      if (V.isValid())
        Out.push_back(V.Pi);
    return Out;
  }

  /// True when any part of this report is Inconclusive(resource): a
  /// missing valid plan then means "ran out of budget", not "refuted".
  bool anyInconclusive() const {
    if (EnumerationExhausted)
      return true;
    for (const PlanVerdict &V : Verdicts)
      if (V.inconclusive())
        return true;
    return false;
  }
};

/// Verifier configuration.
struct VerifierOptions {
  /// Prune plan enumeration with per-binding compliance pre-checks
  /// (sound: a non-compliant binding can never be part of a valid plan).
  bool PruneWithCompliance = true;
  size_t MaxPlans = 1 << 14;
  size_t MaxStatesPerPlan = 1 << 18;

  /// Worker threads for per-plan security checking. 1 = fully serial;
  /// 0 = one per hardware thread. Reports are identical at any width.
  unsigned Jobs = 1;

  /// Route checkPlan through the shared VerifierCache. Off reproduces the
  /// pre-cache behaviour (each plan re-checks its compliance pairs and
  /// re-explores its state space; only the pruning filter memoizes) — kept
  /// for the B7 baseline measurements. Off forces Jobs = 1.
  bool UseCache = true;

  /// Enumerate candidates through a plan::ServiceIndex (built lazily per
  /// verifier, kept current by applyDelta) instead of scanning the whole
  /// repository per request. Effective only with PruneWithCompliance on:
  /// the index's pre-screens reject exactly (a subset of) what the
  /// compliance filter rejects, so indexed runs emit the identical plan
  /// set; without the filter the scan would emit non-compliant plans the
  /// index skips, which would change reports. The index is the only
  /// production enumeration; tests and benchmarks clear this to get the
  /// scan as their differential oracle.
  bool UseIndex = true;

  /// Optional resource governor threaded through every kernel this
  /// verifier runs (enumeration, compliance products, security
  /// explorations). Null (the default) takes the ungoverned fast paths:
  /// output is bit-for-bit what it was before governance existed.
  /// Shared so several verifiers (and the tool driver) can arm one
  /// deadline or cancel token for a whole session.
  std::shared_ptr<ResourceGovernor> Governor;
};

/// Verification of a whole network: one report per client. Components of
/// a network do not interact (histories and sessions are per component,
/// Def. 2), so network verification is compositional — exactly the §5
/// "pick up one of them, say H, at a time".
struct NetworkReport {
  std::vector<std::pair<plan::Loc, VerificationReport>> PerClient;

  /// True when every client has at least one valid plan: the whole
  /// network can run monitor-free.
  bool allClientsHaveValidPlans() const {
    for (const auto &[Loc, Report] : PerClient)
      if (Report.validPlans().empty())
        return false;
    return true;
  }
};

/// The end-to-end static verifier.
class Verifier {
public:
  /// \p Cache may be shared with other verifiers over the same context,
  /// repository and registry; by default each verifier owns a fresh one.
  Verifier(hist::HistContext &Ctx, const plan::Repository &Repo,
           const policy::PolicyRegistry &Registry,
           VerifierOptions Options = VerifierOptions(),
           std::shared_ptr<VerifierCache> Cache = nullptr);
  ~Verifier();

  Verifier(const Verifier &) = delete;
  Verifier &operator=(const Verifier &) = delete;

  /// Enumerates candidate plans for \p Client and fully checks each.
  VerificationReport verifyClient(const hist::Expr *Client,
                                  plan::Loc ClientLoc);

  /// Verifies every client of a network, one at a time (§5).
  NetworkReport verifyNetwork(
      const std::vector<std::pair<const hist::Expr *, plan::Loc>> &Clients);

  /// Checks one specific plan (compliance per request + security).
  PlanVerdict checkPlan(const hist::Expr *Client, plan::Loc ClientLoc,
                        const plan::Plan &Pi);

  /// Checks a batch of plans, routing through the parallel pipeline when
  /// Jobs > 1. Verdicts come back in input order, element-wise identical
  /// to per-plan checkPlan calls — this is the re-verification engine of
  /// core::RepairSession.
  std::vector<PlanVerdict> checkPlans(const hist::Expr *Client,
                                      plan::Loc ClientLoc,
                                      const std::vector<plan::Plan> &Plans);

  /// Absorbs one batch of (already applied) repository churn: evicts the
  /// stale VerifierCache entries and patches the candidate index. Returns
  /// what was evicted. The Repository reference this verifier holds must
  /// be the one the delta was applied to.
  VerifierCache::EvictionStats applyDelta(const plan::RepositoryDelta &Delta);

  /// The candidate index, built on first use (verifyClient with UseIndex,
  /// or an explicit call — e.g. to warm it before timing). Null only when
  /// indexing is disabled by options.
  const plan::ServiceIndex *index();

  /// Installs a pre-built candidate index (the snapshot warm-start path:
  /// a ServiceIndex rebuilt from persisted summaries instead of fresh
  /// contract analysis). The index must describe this verifier's
  /// repository. Ignored (dropped) when indexing is disabled by options.
  void adoptIndex(std::unique_ptr<plan::ServiceIndex> Warm);

  /// Replaces the session governor for subsequent checks — the daemon
  /// re-arms per-request deadlines/budgets on a resident verifier this
  /// way. Null disarms. Not thread-safe against concurrent verification:
  /// callers serialize requests (susd holds its session lock).
  void setGovernor(std::shared_ptr<ResourceGovernor> Governor) {
    Options.Governor = std::move(Governor);
  }

  /// Memoized H1 ⊢ H2 between a request body and a service. Under an
  /// armed governor this also returns true when the check was cut short:
  /// only a *conclusive* refutation may prune a binding. Trips are never
  /// memoized.
  bool bindingCompliant(const hist::Expr *RequestBody,
                        const hist::Expr *Service);

  /// Session cache counters (shared with every co-owner of the cache).
  VerifierStats stats() const { return Cache->stats(); }

  const std::shared_ptr<VerifierCache> &cache() const { return Cache; }

  const VerifierOptions &options() const { return Options; }
  const plan::Repository &repository() const { return Repo; }

private:
  /// One per-worker verification shard: a private HistContext (seeded so
  /// symbol ids match the session context) plus the client and repository
  /// cloned into it. HistContext is single-threaded; sharding is what
  /// lets security checking run in parallel at all.
  struct Shard;

  /// The request sites a plan must serve: the client's own requests plus,
  /// transitively, those of every planned service.
  std::map<hist::RequestId, plan::RequestSite>
  collectPlanSites(const hist::Expr *Client, const plan::Plan &Pi) const;

  /// Builds the per-request compliance section of a verdict, answering
  /// every pair from the cache (or directly when UseCache is off).
  std::vector<RequestCheck>
  buildRequestChecks(const std::map<hist::RequestId, plan::RequestSite> &ById,
                     const plan::Plan &Pi);

  /// Cache-aware whole-plan security check on the session context. When
  /// \p CacheHit is non-null it reports whether the verdict came from the
  /// VerifierCache (always false with UseCache off).
  validity::StaticValidityResult securityOf(const hist::Expr *Client,
                                            plan::Loc ClientLoc,
                                            const plan::Plan &Pi,
                                            bool *CacheHit = nullptr);

  /// Checks every enumerated plan through the parallel pipeline:
  /// compliance pre-warmed serially through the cache, security fanned
  /// out over per-worker shards. Results land in enumeration order.
  ///
  /// Concurrency discipline (DESIGN.md §11): workers never lock. Each
  /// task writes only its own Report slot (disjoint indices) through a
  /// private per-worker Shard; the shared VerifierCache is read-only to
  /// workers after the serial pre-warm, and ThreadPool::waitIdle() is
  /// the join edge that publishes every slot back to the caller.
  void checkPlansParallel(const hist::Expr *Client, plan::Loc ClientLoc,
                          const std::vector<plan::Plan> &Plans,
                          unsigned Jobs, VerificationReport &Report);

  /// Effective worker count (resolves Jobs == 0, honours UseCache).
  unsigned effectiveJobs() const;

  /// The session governor, or null when ungoverned.
  const ResourceGovernor *gov() const { return Options.Governor.get(); }

  /// Memoized compliance with the full result (witness + exhaustion),
  /// honouring UseCache and the governor. Exhausted results are never
  /// memoized on either path.
  contract::ComplianceResult complianceOf(const hist::Expr *RequestBody,
                                          const hist::Expr *Service);

  /// True when candidate selection goes through the index: requires both
  /// UseIndex and the compliance filter (see VerifierOptions::UseIndex).
  bool indexEffective() const {
    return Options.UseIndex && Options.PruneWithCompliance;
  }

  hist::HistContext &Ctx;
  const plan::Repository &Repo;
  const policy::PolicyRegistry &Registry;
  VerifierOptions Options;
  std::shared_ptr<VerifierCache> Cache;

  /// Lazily built candidate index (only when indexEffective()).
  std::unique_ptr<plan::ServiceIndex> Index;

  /// Lazily created; rebuilt when the requested width changes.
  std::unique_ptr<ThreadPool> Pool;

  /// Legacy pruning memo, used only when UseCache is off.
  std::map<std::pair<const hist::Expr *, const hist::Expr *>, bool>
      ComplianceMemo;
};

/// Renders the first line of printReport: the candidate and binding
/// counts, and whether enumeration was cut short.
void printReportSummary(const VerificationReport &Report, std::ostream &OS);

/// Renders a report in a compact human-readable format.
void printReport(const VerificationReport &Report,
                 const hist::HistContext &Ctx, std::ostream &OS);

} // namespace core
} // namespace sus

#endif // SUS_CORE_VERIFIER_H
