//===- validity/StaticValidity.cpp - Plan validity model checker ---------===//

#include "validity/StaticValidity.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include "monitor/SessionMonitor.h"
#include "net/Semantics.h"
#include "support/HashUtil.h"
#include "validity/FrameRegularize.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace sus;
using namespace sus::hist;
using namespace sus::validity;

using monitor::FrameCounts;
using monitor::FusedPolicyAutomaton;
using monitor::HistoryStep;

namespace {

//===----------------------------------------------------------------------===//
// Configurations
//===----------------------------------------------------------------------===//

/// A configuration of the composed service: its session tree, where the
/// fused policy DFA stands on the history so far, and how deep each policy
/// is framed. All three are interned, so a configuration is three words.
struct Config {
  const net::SessionTree *Tree;
  const monitor::ProductState *Monitor;
  const FrameCounts *Frames;
  bool operator==(const Config &) const = default;
};

struct ConfigHash {
  size_t operator()(const Config &C) const noexcept {
    return hashAll(C.Tree, C.Monitor, C.Frames);
  }
};

struct FrameCountsHash {
  size_t operator()(const FrameCounts &F) const noexcept {
    size_t Seed = F.Depth.size();
    for (uint32_t D : F.Depth)
      hashCombineValue(Seed, D);
    return Seed;
  }
};

/// How a configuration was first reached: the predecessor and the move.
struct Pred {
  uint32_t From = 0;
  net::Move M; ///< M.Shown is null for the initial configuration.
};

/// Binds requests through the plan, regularizing every spawned service.
class RegularizingBinder final : public net::Binder {
public:
  RegularizingBinder(HistContext &Ctx, const plan::Plan &P,
                     const plan::Repository &Repo, bool Regularize)
      : Binder(P, Repo), Ctx(Ctx), Regularize(Regularize) {}

  const Expr *spawn(const Expr *Service) override {
    if (!Regularize)
      return Service;
    auto It = Regularized.find(Service);
    if (It == Regularized.end())
      It = Regularized.emplace(Service, regularizeFramings(Ctx, Service))
               .first;
    return It->second;
  }

private:
  HistContext &Ctx;
  bool Regularize;
  std::unordered_map<const Expr *, const Expr *> Regularized;
};

//===----------------------------------------------------------------------===//
// The checker
//===----------------------------------------------------------------------===//

class Checker {
public:
  Checker(HistContext &Ctx, const plan::Plan &P, const plan::Repository &Repo,
          const policy::PolicyRegistry &Registry,
          const StaticValidityOptions &Options)
      : Ctx(Ctx), P(P), Repo(Repo), Registry(Registry), Options(Options),
        Rules(Ctx), Bind(Ctx, P, Repo, Options.Regularize) {}

  StaticValidityResult run(const Expr *Client, plan::Loc ClientLoc);

private:
  /// Fuses the policies and events of the client and its planned services
  /// and orders the fused policies by first mention; returns false on an
  /// uninstantiable reference.
  bool fuse(const Expr *Client, StaticValidityResult &Result);

  /// The monitor's reading of a logged history label.
  HistoryStep resolve(const net::LoggedLabel &L) const {
    return L.Fired ? monitor::resolveLabel(Fused, *L.Fired)
                   : monitor::frameStep(Fused, *L.Policy, L.Opens);
  }

  /// The policy a violating step \p S names: ϕ for ⌊ϕ; for an event, of
  /// the active policies offending after it, the one mentioned first.
  const PolicyRef &violatedPolicy(HistoryStep S,
                                  const FusedPolicyAutomaton::Cursor &C,
                                  const FrameCounts &Fr) const;

  HistContext &Ctx;
  const plan::Plan &P;
  const plan::Repository &Repo;
  const policy::PolicyRegistry &Registry;
  const StaticValidityOptions &Options;

  FusedPolicyAutomaton Fused;
  /// The fused policies' bits in order of first mention — the client's
  /// references depth first, then each planned service's in binding order.
  std::vector<unsigned> MentionOrder;

  net::Semantics Rules;
  RegularizingBinder Bind;
};

bool Checker::fuse(const Expr *Client, StaticValidityResult &Result) {
  std::vector<const Expr *> Behaviors = {Client};
  for (const auto &[R, L] : P.bindings()) {
    (void)R;
    if (const Expr *Service = Repo.find(L))
      Behaviors.push_back(Service);
  }
  Fused = monitor::fuseBehaviors(Registry, Ctx.interner(), Behaviors);

  std::vector<PolicyRef> Refs;
  for (const Expr *B : Behaviors)
    monitor::appendPolicyRefs(B, Refs);
  std::vector<bool> Ordered(Fused.Policies.size(), false);
  for (const PolicyRef &Ref : Refs) {
    // The fusion leaves out exactly the references it cannot instantiate.
    int Bit = Fused.policyBit(Ref);
    if (Bit < 0) {
      Result.Valid = false;
      Result.Failure = PlanFailureKind::UnknownPolicy;
      Result.Policy = Ref;
      return false;
    }
    if (!Ordered[Bit]) {
      Ordered[Bit] = true;
      MentionOrder.push_back(static_cast<unsigned>(Bit));
    }
  }
  return true;
}

const PolicyRef &
Checker::violatedPolicy(HistoryStep S, const FusedPolicyAutomaton::Cursor &C,
                        const FrameCounts &Fr) const {
  if (S.K == HistoryStep::Open)
    return Fused.Policies[S.Arg];
  assert(S.K == HistoryStep::Event && "only events and opens violate here");
  const monitor::PolicySet &Offending = *FusedPolicyAutomaton::offending(C);
  for (unsigned Bit : MentionOrder)
    if (monitor::testBit(Offending, Bit) && monitor::testBit(Fr.Active, Bit))
      return Fused.Policies[Bit];
  assert(false && "a violating event offends an active policy");
  return Fused.Policies.front();
}

StaticValidityResult Checker::run(const Expr *Client, plan::Loc ClientLoc) {
  StaticValidityResult Result;
  if (!fuse(Client, Result))
    return Result;
  // Configurations never outnumber MaxStates, so unless some successor
  // was already refused (StateSpaceExceeded), every product state the
  // exploration reaches fits in the fusion's table.
  assert(Options.MaxStates <= monitor::MaxTableStates &&
         "the product table must hold every explored configuration");

  std::vector<Config> States;
  std::vector<Pred> Preds;
  std::unordered_map<Config, uint32_t, ConfigHash> Index;
  std::unordered_set<FrameCounts, FrameCountsHash> FrameSets;

  std::optional<sus::ResourceExhausted> Trip;
  auto Intern = [&](const Config &C, Pred From) -> bool {
    if (Index.count(C))
      return true;
    if (States.size() >= Options.MaxStates)
      return false;
    if (Options.Governor) {
      if (std::optional<sus::ResourceExhausted> E = Options.Governor->charge(
              ResourceKind::ProductStates, States.size() + 1)) {
        Trip = E;
        return false;
      }
    }
    Index.emplace(C, static_cast<uint32_t>(States.size()));
    States.push_back(C);
    Preds.push_back(From);
    return true;
  };

  auto TraceTo = [&](uint32_t I, const net::Move &Last) {
    std::vector<std::string> Trace;
    Trace.push_back(Last.str(Ctx.interner()));
    for (uint32_t S = I; Preds[S].M.Shown; S = Preds[S].From)
      Trace.push_back(Preds[S].M.str(Ctx.interner()));
    std::reverse(Trace.begin(), Trace.end());
    return Trace;
  };

  const FrameCounts *NoFrames = &*FrameSets.emplace(Fused).first;
  // The client starts regularized, like every service it spawns.
  Intern({Rules.leaf(ClientLoc, Bind.spawn(Client)), Fused.start().At,
          NoFrames},
         Pred());

  bool Exceeded = false;
  std::vector<net::Move> Moves;
  std::vector<net::LoggedLabel> Log;
  FrameCounts Frames(Fused);
  // Breadth first: configurations are explored in the order interned.
  for (uint32_t I = 0; I != States.size(); ++I) {
    if (Options.Governor && !Trip) {
      if (std::optional<sus::ResourceExhausted> E = Options.Governor->poll())
        Trip = E;
    }
    if (Trip)
      break;
    const Config From = States[I];

    Moves.clear();
    Log.clear();
    Rules.moves(From.Tree, Bind, Moves, Log);

    if (Moves.empty() && !From.Tree->isTerminated())
      Result.HasStuckConfiguration = true;

    for (const net::Move &M : Moves) {
      if (M.Gap != net::PlanGap::None) {
        Result.Valid = false;
        Result.Failure = M.Gap == net::PlanGap::UnboundRequest
                             ? PlanFailureKind::UnboundRequest
                             : PlanFailureKind::UnknownService;
        Result.Request = M.Shown->request();
        Result.Trace = TraceTo(I, M);
        Result.ExploredStates = States.size();
        return Result;
      }
      FusedPolicyAutomaton::Cursor C;
      C.At = From.Monitor;
      const FrameCounts *Next = From.Frames;
      if (M.LogBegin != M.LogEnd) {
        Frames = *From.Frames;
        bool Framed = false;
        for (uint32_t K = M.LogBegin; K != M.LogEnd; ++K) {
          HistoryStep S = resolve(Log[K]);
          if (S.K == HistoryStep::Skip)
            continue;
          Framed |= S.K != HistoryStep::Event;
          if (monitor::takeStep(Fused, C, Frames, S)) {
            Result.Valid = false;
            Result.Failure = PlanFailureKind::PolicyViolation;
            Result.Policy = violatedPolicy(S, C, Frames);
            Result.Trace = TraceTo(I, M);
            Result.ExploredStates = States.size();
            return Result;
          }
        }
        if (Framed)
          Next = &*FrameSets.insert(Frames).first;
      }
      // Off the table only once a successor was refused already.
      if (!C.At || !Intern({M.Next, C.At, Next}, {I, M}))
        Exceeded = true;
    }
  }

  Result.ExploredStates = States.size();
  if (Trip) {
    Result.Valid = false;
    Result.Failure = PlanFailureKind::ResourceExhausted;
    Result.Exhausted = Trip;
    return Result;
  }
  if (Exceeded) {
    Result.Valid = false;
    Result.Failure = PlanFailureKind::StateSpaceExceeded;
    return Result;
  }
  Result.Valid = true;
  Result.Failure = PlanFailureKind::None;
  return Result;
}

} // namespace

StaticValidityResult sus::validity::checkPlanValidity(
    HistContext &Ctx, const Expr *Client, plan::Loc ClientLoc,
    const plan::Plan &P, const plan::Repository &Repo,
    const policy::PolicyRegistry &Registry,
    const StaticValidityOptions &Options) {
  trace::Span Span("validity.static", "pipeline");
  Checker C(Ctx, P, Repo, Registry, Options);
  StaticValidityResult Result = C.run(Client, ClientLoc);
  if (Result.Failure == PlanFailureKind::ResourceExhausted)
    Span.tag("governor", Result.Exhausted->deadlineLike()
                             ? "deadline_exceeded"
                             : "budget_exceeded");
  else
    Span.tag("verdict", Result.Valid ? "valid" : "invalid");
  Span.count("states", static_cast<int64_t>(Result.ExploredStates));
  static metrics::Counter &Checks = metrics::counter("validity.checks");
  Checks.add();
  return Result;
}
