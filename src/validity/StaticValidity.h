//===- validity/StaticValidity.h - Plan validity model checker --*- C++ -*-===//
///
/// \file
/// The §3.1/§5 static security check: given a client, a plan π and the
/// repository R, explore every execution of the composed service (the
/// client with each request bound to its planned service, sessions nesting
/// as in the network semantics) while running all instantiated policy
/// monitors over the generated history. The plan is *security-valid* iff no
/// reachable step violates an active policy — then the run-time monitor can
/// be switched off.
///
/// The policy monitor is the runtime one (monitor/SessionMonitor.h): the
/// policies and events of the client and its planned services are fused
/// into one lazily built product DFA, and a configuration is three
/// interned words — the session tree, the product state and the
/// per-policy frame counts — stepped by the shared §3.1 rules. Labels are
/// rendered only along a failure's witness path.
///
/// Because expressions are guarded/tail-recursive and hash-consed, and
/// policy monitors are finite automata, the composed state space is finite:
/// this is the "standard model checking through specially-tailored finite
/// state automata" of the paper, with the [4] regularization keeping the
/// framing depth bounded.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_VALIDITY_STATICVALIDITY_H
#define SUS_VALIDITY_STATICVALIDITY_H

#include "hist/HistContext.h"
#include "plan/Plan.h"
#include "policy/UsageAutomaton.h"
#include "support/Diagnostics.h"
#include "support/ResourceGovernor.h"

#include <optional>
#include <string>
#include <vector>

namespace sus {
namespace validity {

/// Why a plan fails the static check.
enum class PlanFailureKind {
  None,
  PolicyViolation,    ///< Some execution violates an active policy.
  UnboundRequest,     ///< π does not cover a reachable request.
  UnknownService,     ///< π maps a request to a location not in R.
  UnknownPolicy,      ///< A policy reference cannot be instantiated.
  StateSpaceExceeded, ///< Exploration truncated (MaxStates).
  ResourceExhausted,  ///< A governor stopped the check (Inconclusive).
};

/// Outcome of checking one (client, plan) pair.
struct StaticValidityResult {
  bool Valid = false;
  PlanFailureKind Failure = PlanFailureKind::None;

  /// For PolicyViolation / UnknownPolicy: the policy involved.
  std::optional<hist::PolicyRef> Policy;
  /// For UnboundRequest / UnknownService: the request involved.
  std::optional<hist::RequestId> Request;

  /// A shortest labelled path from the initial configuration to the
  /// failure (rendered labels; τ steps shown as "tau").
  std::vector<std::string> Trace;

  /// Exploration size (for the B2/B3 benchmarks): configurations
  /// interned, counting configurations whose policy states the minimized
  /// fused DFA identifies only once.
  size_t ExploredStates = 0;

  /// For Failure == ResourceExhausted: what ran out. Results carrying
  /// this are partial and must never be cached.
  std::optional<sus::ResourceExhausted> Exhausted;

  /// Informational: some non-terminated configuration has no successor.
  /// (Compliance violations of *external* choices show up here; internal
  /// choices need the §4 product check — the semantics is angelic.)
  bool HasStuckConfiguration = false;

  explicit operator bool() const { return Valid; }
};

/// Tuning knobs.
struct StaticValidityOptions {
  /// At most monitor::MaxTableStates, so that every product state the
  /// exploration reaches is tabled.
  size_t MaxStates = 1 << 18;
  /// Apply regularizeFramings() to every expression first.
  bool Regularize = true;
  /// Optional resource governor: polled per explored configuration and
  /// charged ProductStates per interned configuration. Not owned.
  const ResourceGovernor *Governor = nullptr;
};

/// Checks that the client at \p ClientLoc, orchestrated by \p P over
/// \p Repo, can never violate a policy of \p Registry.
StaticValidityResult
checkPlanValidity(hist::HistContext &Ctx, const hist::Expr *Client,
                  plan::Loc ClientLoc, const plan::Plan &P,
                  const plan::Repository &Repo,
                  const policy::PolicyRegistry &Registry,
                  const StaticValidityOptions &Options = {});

} // namespace validity
} // namespace sus

#endif // SUS_VALIDITY_STATICVALIDITY_H
