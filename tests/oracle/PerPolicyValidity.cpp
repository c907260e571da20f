//===- oracle/PerPolicyValidity.cpp - Per-policy plan checker -------------===//
///
/// \file
/// The static plan checker as it stood before it moved onto the fused
/// policy DFA: every instantiated policy runs as its own NFA-subset slot,
/// configurations are keyed as heap vectors and every move renders its
/// label. Kept verbatim as the test oracle of ValidityDiffTest; only the
/// entry point's name changed, and it records no span or counter, so the
/// production metrics stay the production checker's.
///
//===----------------------------------------------------------------------===//

#include "oracle/PerPolicyValidity.h"

#include "hist/Derive.h"
#include "support/Casting.h"
#include "support/HashUtil.h"
#include "validity/FrameRegularize.h"

#include <cassert>
#include <deque>
#include <map>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::validity;

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
    std::vector<uint64_t> Key = {1, L.id(), reinterpret_cast<uint64_t>(H)};
    return intern(Key, SessionNode{true, L, H, nullptr, nullptr});
  }

  const SessionNode *pair(const SessionNode *A, const SessionNode *B) {
    std::vector<uint64_t> Key = {2, reinterpret_cast<uint64_t>(A),
                                 reinterpret_cast<uint64_t>(B)};
    return intern(Key, SessionNode{false, plan::Loc(), nullptr, A, B});
  }

private:
  const SessionNode *intern(const std::vector<uint64_t> &Key,
                            SessionNode Node) {
    auto It = Unique.find(Key);
    if (It != Unique.end())
      return It->second;
    Storage.push_back(Node);
    const SessionNode *P = &Storage.back();
    Unique.emplace(Key, P);
    return P;
  }

  struct VecHash {
    size_t operator()(const std::vector<uint64_t> &V) const noexcept {
      size_t Seed = V.size();
      for (uint64_t X : V)
        hashCombineValue(Seed, X);
      return Seed;
    }
  };

  std::deque<SessionNode> Storage;
  std::unordered_map<std::vector<uint64_t>, const SessionNode *, VecHash>
      Unique;
};

/// Φ(H): the sequence of ⌋ϕ markers along the sequential spine of H (the
/// auxiliary function of rule Close).
void collectPendingFrameCloses(const Expr *E, std::vector<PolicyRef> &Out) {
  if (const auto *S = dyn_cast<SeqExpr>(E)) {
    collectPendingFrameCloses(S->head(), Out);
    collectPendingFrameCloses(S->tail(), Out);
    return;
  }
  if (const auto *F = dyn_cast<FrameCloseExpr>(E))
    Out.push_back(F->policy());
}

//===----------------------------------------------------------------------===//
// Monitors
//===----------------------------------------------------------------------===//

/// One tracked policy instance: reachable automaton states + activation
/// count. Both are part of the explored state.
struct MonitorSlot {
  std::vector<policy::UStateId> States;
  unsigned Active = 0;

  bool operator==(const MonitorSlot &O) const {
    return Active == O.Active && States == O.States;
  }
};

struct ExplState {
  const SessionNode *Tree;
  std::vector<MonitorSlot> Monitors;
};

std::vector<uint64_t> encodeState(const ExplState &S) {
  std::vector<uint64_t> Key;
  Key.push_back(reinterpret_cast<uint64_t>(S.Tree));
  for (const MonitorSlot &M : S.Monitors) {
    Key.push_back(M.Active);
    Key.push_back(M.States.size());
    for (policy::UStateId Q : M.States)
      Key.push_back(Q);
  }
  return Key;
}

/// One atomic move of the composed service.
struct Move {
  const SessionNode *NewTree = nullptr;
  std::vector<Label> HistoryAppend; ///< Ev/Frm labels this move logs.
  std::string Desc;                 ///< Rendered label for traces.
  // Failure moves (plan gaps) abort exploration immediately.
  PlanFailureKind Gap = PlanFailureKind::None;
  RequestId GapRequest = 0;
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
  /// Enumerates the moves of \p Node (rule Session lifts moves of inner
  /// sessions; Synch and Close apply at pairs).
  void movesOf(const SessionNode *Node, std::vector<Move> &Out);

  /// Collects every policy reference in the client and the planned
  /// services; returns false on an uninstantiable one.
  bool collectPolicies(const Expr *Client, StaticValidityResult &Result);

  void collectPolicyRefs(const Expr *E, std::vector<PolicyRef> &Out);

  int slotIndex(const PolicyRef &Ref) const;

  /// Applies the history labels of \p M to \p Monitors; returns the index
  /// of a violated policy slot or -1.
  int applyLabels(const Move &M, std::vector<MonitorSlot> &Monitors) const;

  const Expr *maybeRegularize(const Expr *E) {
    return Options.Regularize ? regularizeFramings(Ctx, E) : E;
  }

  HistContext &Ctx;
  const plan::Plan &P;
  const plan::Repository &Repo;
  const policy::PolicyRegistry &Registry;
  const StaticValidityOptions &Options;

  TreeFactory Trees;
  std::vector<PolicyRef> SlotRefs;
  std::vector<policy::PolicyInstance> SlotInstances;
};

void Checker::collectPolicyRefs(const Expr *E, std::vector<PolicyRef> &Out) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::Event:
    return;
  case ExprKind::Mu:
    collectPolicyRefs(cast<MuExpr>(E)->body(), Out);
    return;
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    collectPolicyRefs(S->head(), Out);
    collectPolicyRefs(S->tail(), Out);
    return;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      collectPolicyRefs(B.Body, Out);
    return;
  case ExprKind::Request: {
    const auto *R = cast<RequestExpr>(E);
    Out.push_back(R->policy());
    collectPolicyRefs(R->body(), Out);
    return;
  }
  case ExprKind::Framing: {
    const auto *F = cast<FramingExpr>(E);
    Out.push_back(F->policy());
    collectPolicyRefs(F->body(), Out);
    return;
  }
  case ExprKind::CloseMark:
    Out.push_back(cast<CloseMarkExpr>(E)->policy());
    return;
  case ExprKind::FrameOpen:
    Out.push_back(cast<FrameOpenExpr>(E)->policy());
    return;
  case ExprKind::FrameClose:
    Out.push_back(cast<FrameCloseExpr>(E)->policy());
    return;
  }
}

bool Checker::collectPolicies(const Expr *Client,
                              StaticValidityResult &Result) {
  std::vector<PolicyRef> Refs;
  collectPolicyRefs(Client, Refs);
  for (const auto &[R, L] : P.bindings()) {
    (void)R;
    if (const Expr *Service = Repo.find(L))
      collectPolicyRefs(Service, Refs);
  }
  for (const PolicyRef &Ref : Refs) {
    if (Ref.isTrivial() || slotIndex(Ref) >= 0)
      continue;
    std::optional<policy::PolicyInstance> Inst =
        Registry.instantiate(Ref, Ctx.interner(), nullptr);
    if (!Inst) {
      Result.Valid = false;
      Result.Failure = PlanFailureKind::UnknownPolicy;
      Result.Policy = Ref;
      return false;
    }
    SlotRefs.push_back(Ref);
    SlotInstances.push_back(std::move(*Inst));
  }
  return true;
}

int Checker::slotIndex(const PolicyRef &Ref) const {
  for (size_t I = 0; I < SlotRefs.size(); ++I)
    if (SlotRefs[I] == Ref)
      return static_cast<int>(I);
  return -1;
}

void Checker::movesOf(const SessionNode *Node, std::vector<Move> &Out) {
  if (Node->IsLeaf) {
    for (const Transition &T : derive(Ctx, Node->Behavior)) {
      switch (T.L.kind()) {
      case LabelKind::Event:
      case LabelKind::FrameOpen:
      case LabelKind::FrameClose: {
        Move M;
        M.NewTree = Trees.leaf(Node->Location, T.Target);
        M.HistoryAppend.push_back(T.L);
        M.Desc = T.L.str(Ctx.interner());
        Out.push_back(std::move(M));
        break;
      }
      case LabelKind::Open: {
        // Rule Open: bind r through π, spawn the service alongside.
        RequestId R = T.L.request();
        std::optional<plan::Loc> L = P.lookup(R);
        if (!L) {
          Move M;
          M.Gap = PlanFailureKind::UnboundRequest;
          M.GapRequest = R;
          M.Desc = T.L.str(Ctx.interner());
          Out.push_back(std::move(M));
          break;
        }
        const Expr *Service = Repo.find(*L);
        if (!Service) {
          Move M;
          M.Gap = PlanFailureKind::UnknownService;
          M.GapRequest = R;
          M.Desc = T.L.str(Ctx.interner());
          Out.push_back(std::move(M));
          break;
        }
        Move M;
        M.NewTree =
            Trees.pair(Trees.leaf(Node->Location, T.Target),
                       Trees.leaf(*L, maybeRegularize(Service)));
        if (!T.L.policy().isTrivial())
          M.HistoryAppend.push_back(Label::frameOpen(T.L.policy()));
        M.Desc = T.L.str(Ctx.interner());
        Out.push_back(std::move(M));
        break;
      }
      case LabelKind::Close:
        // A close with no enclosing session: impossible for expressions
        // built from requests (close marks appear only after an Open).
        break;
      case LabelKind::Input:
      case LabelKind::Output:
        // Communication needs a session partner; handled at the pair.
        break;
      case LabelKind::Tau:
        break;
      }
    }
    return;
  }

  // Rule Session: either side evolves on its own.
  std::vector<Move> LeftMoves, RightMoves;
  movesOf(Node->Left, LeftMoves);
  movesOf(Node->Right, RightMoves);
  for (Move &M : LeftMoves) {
    if (M.Gap == PlanFailureKind::None)
      M.NewTree = Trees.pair(M.NewTree, Node->Right);
    Out.push_back(std::move(M));
  }
  for (Move &M : RightMoves) {
    if (M.Gap == PlanFailureKind::None)
      M.NewTree = Trees.pair(Node->Left, M.NewTree);
    Out.push_back(std::move(M));
  }

  // Rules Synch and Close need both sides to be leaves (a partner engaged
  // in a nested session first has to finish it).
  const SessionNode *A = Node->Left;
  const SessionNode *B = Node->Right;

  auto TrySynchAndClose = [&](const SessionNode *X, const SessionNode *Y) {
    if (!X->IsLeaf)
      return;
    for (const Transition &TX : derive(Ctx, X->Behavior)) {
      // Rule Close: the opener ends the session; the partner (which must
      // be a plain leaf) is terminated and its pending frame closes are
      // flushed into the history.
      if (TX.L.isClose() && Y->IsLeaf) {
        Move M;
        M.NewTree = Trees.leaf(X->Location, TX.Target);
        std::vector<PolicyRef> Pending;
        collectPendingFrameCloses(Y->Behavior, Pending);
        for (const PolicyRef &Ref : Pending)
          if (!Ref.isTrivial())
            M.HistoryAppend.push_back(Label::frameClose(Ref));
        if (!TX.L.policy().isTrivial())
          M.HistoryAppend.push_back(Label::frameClose(TX.L.policy()));
        M.Desc = TX.L.str(Ctx.interner());
        Out.push_back(std::move(M));
        continue;
      }
      // Rule Synch: complementary actions meet.
      if (!TX.L.isComm() || !Y->IsLeaf)
        continue;
      CommAction AX = TX.L.asComm();
      for (const Transition &TY : derive(Ctx, Y->Behavior)) {
        if (!TY.L.isComm() || TY.L.asComm() != AX.complement())
          continue;
        // Emit the synchronization once, from the sender's side.
        if (!AX.isOutput())
          continue;
        Move M;
        const SessionNode *NX = Trees.leaf(X->Location, TX.Target);
        const SessionNode *NY = Trees.leaf(Y->Location, TY.Target);
        M.NewTree = (X == Node->Left) ? Trees.pair(NX, NY)
                                      : Trees.pair(NY, NX);
        M.Desc = "tau(" + AX.str(Ctx.interner()) + ")";
        Out.push_back(std::move(M));
      }
    }
  };
  TrySynchAndClose(A, B);
  TrySynchAndClose(B, A);
}

int Checker::applyLabels(const Move &M,
                         std::vector<MonitorSlot> &Monitors) const {
  for (const Label &L : M.HistoryAppend) {
    switch (L.kind()) {
    case LabelKind::Event: {
      // All monitors consume every event (history dependence).
      for (size_t I = 0; I < Monitors.size(); ++I) {
        MonitorSlot &Slot = Monitors[I];
        std::vector<policy::UStateId> Next;
        for (policy::UStateId Q : Slot.States)
          for (policy::UStateId T : SlotInstances[I].step(Q, L.asEvent()))
            Next.push_back(T);
        std::sort(Next.begin(), Next.end());
        Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
        Slot.States = std::move(Next);
      }
      for (size_t I = 0; I < Monitors.size(); ++I) {
        if (Monitors[I].Active == 0)
          continue;
        for (policy::UStateId Q : Monitors[I].States)
          if (SlotInstances[I].shape().isOffending(Q))
            return static_cast<int>(I);
      }
      break;
    }
    case LabelKind::FrameOpen: {
      int I = slotIndex(L.policy());
      assert(I >= 0 && "policies were collected up front");
      ++Monitors[I].Active;
      // History dependence: the past must already respect the policy.
      for (policy::UStateId Q : Monitors[I].States)
        if (SlotInstances[I].shape().isOffending(Q))
          return I;
      break;
    }
    case LabelKind::FrameClose: {
      int I = slotIndex(L.policy());
      assert(I >= 0 && "policies were collected up front");
      if (Monitors[I].Active > 0)
        --Monitors[I].Active;
      break;
    }
    default:
      assert(false && "history labels are events and framings");
    }
  }
  return -1;
}

StaticValidityResult Checker::run(const Expr *Client, plan::Loc ClientLoc) {
  StaticValidityResult Result;
  if (!collectPolicies(Client, Result))
    return Result;

  struct VecHash {
    size_t operator()(const std::vector<uint64_t> &V) const noexcept {
      size_t Seed = V.size();
      for (uint64_t X : V)
        hashCombineValue(Seed, X);
      return Seed;
    }
  };

  std::vector<ExplState> States;
  std::vector<std::optional<std::pair<uint32_t, std::string>>> Pred;
  std::unordered_map<std::vector<uint64_t>, uint32_t, VecHash> Index;
  std::deque<uint32_t> Work;

  std::optional<sus::ResourceExhausted> Trip;
  auto Intern = [&](ExplState S,
                    std::optional<std::pair<uint32_t, std::string>> From)
      -> std::optional<uint32_t> {
    std::vector<uint64_t> Key = encodeState(S);
    auto It = Index.find(Key);
    if (It != Index.end())
      return It->second;
    if (States.size() >= Options.MaxStates)
      return std::nullopt;
    if (Options.Governor) {
      if (std::optional<sus::ResourceExhausted> E = Options.Governor->charge(
              ResourceKind::ProductStates, States.size() + 1)) {
        Trip = E;
        return std::nullopt;
      }
    }
    uint32_t I = static_cast<uint32_t>(States.size());
    States.push_back(std::move(S));
    Pred.push_back(std::move(From));
    Index.emplace(std::move(Key), I);
    Work.push_back(I);
    return I;
  };

  auto TraceTo = [&](uint32_t I, const std::string &Last) {
    std::vector<std::string> Trace;
    Trace.push_back(Last);
    for (uint32_t S = I; Pred[S]; S = Pred[S]->first)
      Trace.push_back(Pred[S]->second);
    std::reverse(Trace.begin(), Trace.end());
    return Trace;
  };

  ExplState Init;
  Init.Tree = Trees.leaf(ClientLoc, maybeRegularize(Client));
  Init.Monitors.resize(SlotInstances.size());
  for (size_t I = 0; I < SlotInstances.size(); ++I)
    Init.Monitors[I].States = {SlotInstances[I].shape().start()};
  Intern(std::move(Init), std::nullopt);

  bool Exceeded = false;
  while (!Work.empty()) {
    if (Options.Governor && !Trip) {
      if (std::optional<sus::ResourceExhausted> E = Options.Governor->poll())
        Trip = E;
    }
    if (Trip)
      break;
    uint32_t I = Work.front();
    Work.pop_front();
    // Note: States may reallocate inside the loop; copy what we need.
    const SessionNode *Tree = States[I].Tree;

    std::vector<Move> Moves;
    movesOf(Tree, Moves);

    bool Terminated = Tree->IsLeaf && Tree->Behavior->isEmpty();
    if (Moves.empty() && !Terminated)
      Result.HasStuckConfiguration = true;

    for (const Move &M : Moves) {
      if (M.Gap != PlanFailureKind::None) {
        Result.Valid = false;
        Result.Failure = M.Gap;
        Result.Request = M.GapRequest;
        Result.Trace = TraceTo(I, M.Desc);
        Result.ExploredStates = States.size();
        return Result;
      }
      ExplState Next;
      Next.Tree = M.NewTree;
      Next.Monitors = States[I].Monitors;
      int Violated = applyLabels(M, Next.Monitors);
      if (Violated >= 0) {
        Result.Valid = false;
        Result.Failure = PlanFailureKind::PolicyViolation;
        Result.Policy = SlotRefs[Violated];
        Result.Trace = TraceTo(I, M.Desc);
        Result.ExploredStates = States.size();
        return Result;
      }
      if (!Intern(std::move(Next), std::make_pair(I, M.Desc)))
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

StaticValidityResult sus::oracle::checkPlanValidityPerPolicy(
    HistContext &Ctx, const Expr *Client, plan::Loc ClientLoc,
    const plan::Plan &P, const plan::Repository &Repo,
    const policy::PolicyRegistry &Registry,
    const StaticValidityOptions &Options) {
  Checker C(Ctx, P, Repo, Registry, Options);
  return C.run(Client, ClientLoc);
}
