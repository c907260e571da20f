//===- validity/StaticValidity.cpp - Plan validity model checker ---------===//

#include "validity/StaticValidity.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include "hist/Derive.h"
#include "monitor/SessionMonitor.h"
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
// Session trees: S ::= ℓ:H | [S, S]
//===----------------------------------------------------------------------===//

struct SessionNode {
  bool IsLeaf;
  // Leaf payload.
  plan::Loc Location;
  const Expr *Behavior = nullptr;
  // Pair payload. By construction Left is the session opener.
  const SessionNode *Left = nullptr;
  const SessionNode *Right = nullptr;
};

/// Hash-conses session trees so a tree is identified by its pointer.
class TreeFactory {
public:
  const SessionNode *leaf(plan::Loc L, const Expr *H) {
    return intern({true, L.id(), reinterpret_cast<uintptr_t>(H)},
                  SessionNode{true, L, H, nullptr, nullptr});
  }

  const SessionNode *pair(const SessionNode *A, const SessionNode *B) {
    return intern({false, reinterpret_cast<uintptr_t>(A),
                   reinterpret_cast<uintptr_t>(B)},
                  SessionNode{false, plan::Loc(), nullptr, A, B});
  }

private:
  /// (location, behaviour) of a leaf or (left, right) of a pair.
  struct Key {
    bool IsLeaf;
    uintptr_t First, Second;
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const noexcept {
      return hashAll(K.IsLeaf, K.First, K.Second);
    }
  };

  const SessionNode *intern(const Key &K, SessionNode Node) {
    // Map nodes never move, so a tree's pointer is stable.
    return &Unique.try_emplace(K, Node).first->second;
  }

  std::unordered_map<Key, SessionNode, KeyHash> Unique;
};

//===----------------------------------------------------------------------===//
// Configurations
//===----------------------------------------------------------------------===//

/// A configuration of the composed service: its session tree, where the
/// fused policy DFA stands on the history so far, and how deep each policy
/// is framed. All three are interned, so a configuration is three words.
struct Config {
  const SessionNode *Tree;
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

/// One atomic move of the composed service.
struct Move {
  const SessionNode *NewTree = nullptr;
  /// The history steps this move logs: Checker::Steps[Begin, End).
  uint32_t Begin = 0, End = 0;
  /// The label a trace shows for the move; for a synchronisation, the
  /// sender's output, shown as tau(ā).
  const Label *Shown = nullptr;
  bool Synch = false;
  /// Failure moves (plan gaps) abort exploration immediately.
  PlanFailureKind Gap = PlanFailureKind::None;
};

/// How a configuration was first reached: the predecessor and the move.
struct Pred {
  uint32_t From = 0;
  const Label *Shown = nullptr; ///< Null for the initial configuration.
  bool Synch = false;
};

//===----------------------------------------------------------------------===//
// The checker
//===----------------------------------------------------------------------===//

class Checker {
public:
  Checker(HistContext &Ctx, const plan::Plan &P, const plan::Repository &Repo,
          const policy::PolicyRegistry &Registry,
          const StaticValidityOptions &Options)
      : Ctx(Ctx), P(P), Repo(Repo), Registry(Registry), Options(Options) {}

  StaticValidityResult run(const Expr *Client, plan::Loc ClientLoc);

private:
  /// Fuses the policies and events of the client and its planned services
  /// and orders the fused policies by first mention; returns false on an
  /// uninstantiable reference.
  bool fuse(const Expr *Client, StaticValidityResult &Result);

  /// Enumerates the moves of \p Node (rule Session lifts moves of inner
  /// sessions; Synch and Close apply at pairs).
  void movesOf(const SessionNode *Node, std::vector<Move> &Out);

  /// Starts a move to \p Tree shown as \p Shown; its steps follow.
  Move &addMove(std::vector<Move> &Out, const SessionNode *Tree,
                const Label &Shown) {
    auto At = static_cast<uint32_t>(Steps.size());
    Out.push_back({Tree, At, At, &Shown});
    return Out.back();
  }

  /// Logs \p S as the next history step of \p M, the newest move.
  void log(Move &M, HistoryStep S) {
    if (S.K == HistoryStep::Skip)
      return;
    Steps.push_back(S);
    M.End = static_cast<uint32_t>(Steps.size());
  }

  /// The policy a violating step \p S names: ϕ for ⌊ϕ; for an event, of
  /// the active policies offending after it, the one mentioned first.
  const PolicyRef &violatedPolicy(HistoryStep S,
                                  const FusedPolicyAutomaton::Cursor &C,
                                  const FrameCounts &Fr) const;

  const std::vector<Transition> &derivatives(const Expr *E) {
    auto It = Derived.find(E);
    if (It == Derived.end())
      It = Derived.emplace(E, derive(Ctx, E)).first;
    return It->second;
  }

  const Expr *regularized(const Expr *E) {
    if (!Options.Regularize)
      return E;
    auto It = Regularized.find(E);
    if (It == Regularized.end())
      It = Regularized.emplace(E, regularizeFramings(Ctx, E)).first;
    return It->second;
  }

  HistContext &Ctx;
  const plan::Plan &P;
  const plan::Repository &Repo;
  const policy::PolicyRegistry &Registry;
  const StaticValidityOptions &Options;

  FusedPolicyAutomaton Fused;
  /// The fused policies' bits in order of first mention — the client's
  /// references depth first, then each planned service's in binding order.
  std::vector<unsigned> MentionOrder;

  TreeFactory Trees;
  /// The history steps of the moves being enumerated.
  std::vector<HistoryStep> Steps;
  /// Φ(H) of the partner a Close move ends.
  std::vector<PolicyRef> Pending;
  /// Derivatives are stable references: map nodes never move.
  std::unordered_map<const Expr *, std::vector<Transition>> Derived;
  std::unordered_map<const Expr *, const Expr *> Regularized;
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

void Checker::movesOf(const SessionNode *Node, std::vector<Move> &Out) {
  if (Node->IsLeaf) {
    for (const Transition &T : derivatives(Node->Behavior)) {
      switch (T.L.kind()) {
      case LabelKind::Event:
      case LabelKind::FrameOpen:
      case LabelKind::FrameClose: {
        Move &M = addMove(Out, Trees.leaf(Node->Location, T.Target), T.L);
        log(M, monitor::resolveLabel(Fused, T.L));
        break;
      }
      case LabelKind::Open: {
        // Rule Open: bind r through π, spawn the service alongside.
        std::optional<plan::Loc> L = P.lookup(T.L.request());
        const Expr *Service = L ? Repo.find(*L) : nullptr;
        if (!Service) {
          addMove(Out, nullptr, T.L).Gap = L ? PlanFailureKind::UnknownService
                                             : PlanFailureKind::UnboundRequest;
          break;
        }
        Move &M = addMove(Out,
                          Trees.pair(Trees.leaf(Node->Location, T.Target),
                                     Trees.leaf(*L, regularized(Service))),
                          T.L);
        log(M, monitor::frameStep(Fused, T.L.policy(), /*Open=*/true));
        break;
      }
      default:
        // Communication needs a session partner and a close an enclosing
        // session (close marks appear only after an Open): both are
        // handled at the pair. τ logs nothing.
        break;
      }
    }
    return;
  }

  // Rule Session: either side evolves on its own.
  size_t LeftBegin = Out.size();
  movesOf(Node->Left, Out);
  size_t RightBegin = Out.size();
  movesOf(Node->Right, Out);
  for (size_t I = LeftBegin; I != Out.size(); ++I) {
    Move &M = Out[I];
    if (M.Gap != PlanFailureKind::None)
      continue;
    M.NewTree = I < RightBegin ? Trees.pair(M.NewTree, Node->Right)
                               : Trees.pair(Node->Left, M.NewTree);
  }

  // Rules Synch and Close need both sides to be leaves (a partner engaged
  // in a nested session first has to finish it).
  const SessionNode *A = Node->Left;
  const SessionNode *B = Node->Right;

  auto TrySynchAndClose = [&](const SessionNode *X, const SessionNode *Y) {
    if (!X->IsLeaf)
      return;
    for (const Transition &TX : derivatives(X->Behavior)) {
      // Rule Close: the opener ends the session; the partner (which must
      // be a plain leaf) is terminated and its pending frame closes are
      // flushed into the history.
      if (TX.L.isClose() && Y->IsLeaf) {
        Move &M = addMove(Out, Trees.leaf(X->Location, TX.Target), TX.L);
        Pending.clear();
        pendingFrameCloses(Y->Behavior, Pending);
        for (const PolicyRef &Ref : Pending)
          log(M, monitor::frameStep(Fused, Ref, /*Open=*/false));
        log(M, monitor::frameStep(Fused, TX.L.policy(), /*Open=*/false));
        continue;
      }
      // Rule Synch: complementary actions meet.
      if (!TX.L.isComm() || !Y->IsLeaf)
        continue;
      CommAction AX = TX.L.asComm();
      // Emit the synchronization once, from the sender's side.
      if (!AX.isOutput())
        continue;
      for (const Transition &TY : derivatives(Y->Behavior)) {
        if (!TY.L.isComm() || TY.L.asComm() != AX.complement())
          continue;
        const SessionNode *NX = Trees.leaf(X->Location, TX.Target);
        const SessionNode *NY = Trees.leaf(Y->Location, TY.Target);
        addMove(Out, X == Node->Left ? Trees.pair(NX, NY) : Trees.pair(NY, NX),
                TX.L)
            .Synch = true;
      }
    }
  };
  TrySynchAndClose(A, B);
  TrySynchAndClose(B, A);
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

  auto Show = [&](const Label &L, bool Synch) {
    return Synch ? "tau(" + L.asComm().str(Ctx.interner()) + ")"
                 : L.str(Ctx.interner());
  };
  auto TraceTo = [&](uint32_t I, const Move &Last) {
    std::vector<std::string> Trace;
    Trace.push_back(Show(*Last.Shown, Last.Synch));
    for (uint32_t S = I; Preds[S].Shown; S = Preds[S].From)
      Trace.push_back(Show(*Preds[S].Shown, Preds[S].Synch));
    std::reverse(Trace.begin(), Trace.end());
    return Trace;
  };

  const FrameCounts *NoFrames = &*FrameSets.emplace(Fused).first;
  Intern({Trees.leaf(ClientLoc, regularized(Client)), Fused.start().At,
          NoFrames},
         Pred());

  bool Exceeded = false;
  std::vector<Move> Moves;
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
    Steps.clear();
    movesOf(From.Tree, Moves);

    bool Terminated = From.Tree->IsLeaf && From.Tree->Behavior->isEmpty();
    if (Moves.empty() && !Terminated)
      Result.HasStuckConfiguration = true;

    for (const Move &M : Moves) {
      if (M.Gap != PlanFailureKind::None) {
        Result.Valid = false;
        Result.Failure = M.Gap;
        Result.Request = M.Shown->request();
        Result.Trace = TraceTo(I, M);
        Result.ExploredStates = States.size();
        return Result;
      }
      FusedPolicyAutomaton::Cursor C;
      C.At = From.Monitor;
      const FrameCounts *Next = From.Frames;
      if (M.Begin != M.End) {
        Frames = *From.Frames;
        bool Framed = false;
        for (uint32_t K = M.Begin; K != M.End; ++K) {
          Framed |= Steps[K].K != HistoryStep::Event;
          if (monitor::takeStep(Fused, C, Frames, Steps[K])) {
            Result.Valid = false;
            Result.Failure = PlanFailureKind::PolicyViolation;
            Result.Policy = violatedPolicy(Steps[K], C, Frames);
            Result.Trace = TraceTo(I, M);
            Result.ExploredStates = States.size();
            return Result;
          }
        }
        if (Framed)
          Next = &*FrameSets.insert(Frames).first;
      }
      // Off the table only once a successor was refused already.
      if (!C.At || !Intern({M.NewTree, C.At, Next}, {I, M.Shown, M.Synch}))
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
