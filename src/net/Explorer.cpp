//===- net/Explorer.cpp - Whole-network state-space exploration -----------===//

#include "net/Explorer.h"

#include "net/Semantics.h"
#include "support/HashUtil.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;
using namespace sus::net;

namespace {

/// A network configuration: one tree per component plus the slot usage of
/// every capacity-bounded location.
struct NetState {
  std::vector<const SessionTree *> Trees;
  std::map<plan::Loc, unsigned> InUse;
};

std::vector<uint64_t> encode(const NetState &S) {
  std::vector<uint64_t> Key;
  Key.reserve(S.Trees.size() + 2 * S.InUse.size() + 1);
  for (const SessionTree *T : S.Trees)
    Key.push_back(reinterpret_cast<uint64_t>(T));
  Key.push_back(~0ull);
  for (const auto &[L, N] : S.InUse) {
    Key.push_back(L.id());
    Key.push_back(N);
  }
  return Key;
}

struct KeyHash {
  size_t operator()(const std::vector<uint64_t> &V) const noexcept {
    size_t Seed = V.size();
    for (uint64_t X : V)
      hashCombineValue(Seed, X);
    return Seed;
  }
};

/// How a configuration was first reached: the predecessor, the component
/// that moved and its move.
struct Pred {
  uint32_t From = 0;
  uint32_t Component = 0;
  Move M; ///< M.Shown is null for the initial configuration.
};

} // namespace

ExplorationResult
sus::net::exploreNetwork(HistContext &Ctx, const plan::Repository &Repo,
                         const std::vector<NetworkComponent> &Components,
                         const ExplorerOptions &Options) {
  trace::Span ExploreSpan("net.explore", "net");
  ExplorationResult Result;
  size_t Expanded = 0, DedupHits = 0, MovesGenerated = 0;

  Semantics Rules(Ctx, Options.CommittedInternalChoice);
  std::vector<Binder> Binders;
  for (const NetworkComponent &C : Components)
    Binders.emplace_back(C.Pi, Repo);

  std::vector<NetState> States;
  std::vector<Pred> Preds;
  std::unordered_map<std::vector<uint64_t>, uint32_t, KeyHash> Index;
  bool Truncated = false;

  auto Intern = [&](NetState S, Pred From) {
    std::vector<uint64_t> Key = encode(S);
    if (Index.count(Key)) {
      ++DedupHits;
      return;
    }
    if (States.size() >= Options.MaxStates) {
      Truncated = true;
      return;
    }
    Index.emplace(std::move(Key), static_cast<uint32_t>(States.size()));
    States.push_back(std::move(S));
    Preds.push_back(From);
  };

  NetState Init;
  for (const NetworkComponent &C : Components)
    Init.Trees.push_back(Rules.leaf(C.Location, C.Client));
  Intern(std::move(Init), Pred());

  std::vector<Move> Moves;
  std::vector<LoggedLabel> Log;
  // Breadth first: configurations are expanded in the order interned.
  for (uint32_t I = 0; I != States.size(); ++I) {
    ++Expanded;
    NetState Current = States[I]; // Copy: States may reallocate below.
    if (std::all_of(Current.Trees.begin(), Current.Trees.end(),
                    [](const SessionTree *T) { return T->isTerminated(); })) {
      Result.CanComplete = true;
      continue;
    }

    size_t MovesSeen = 0;
    for (size_t C = 0; C < Current.Trees.size(); ++C) {
      Moves.clear();
      Log.clear();
      Rules.moves(Current.Trees[C], &Binders[C], Moves, Log);
      for (const Move &M : Moves) {
        // A plan gap never fires; a capacity wait is not enabled here.
        if (M.Gap != PlanGap::None)
          continue;
        if (M.K == Move::Kind::Open) {
          unsigned Cap = Repo.capacity(M.Partner);
          auto It = Current.InUse.find(M.Partner);
          if (Cap != 0 && It != Current.InUse.end() && It->second >= Cap)
            continue;
        }
        ++MovesSeen;
        NetState Next = Current;
        Next.Trees[C] = M.Next;
        if (M.K == Move::Kind::Open)
          ++Next.InUse[M.Partner];
        if (M.K == Move::Kind::Close) {
          auto It = Next.InUse.find(M.Partner);
          if (It != Next.InUse.end() && It->second > 0 && --It->second == 0)
            Next.InUse.erase(It);
        }
        Intern(std::move(Next), {I, static_cast<uint32_t>(C), M});
      }
    }
    MovesGenerated += MovesSeen;

    if (MovesSeen == 0 && !Result.DeadlockReachable) {
      Result.DeadlockReachable = true;
      // Step text is rendered only along the witness.
      for (uint32_t S = I; Preds[S].M.Shown; S = Preds[S].From)
        Result.DeadlockTrace.push_back(
            "c" + std::to_string(Preds[S].Component) + ": " +
            Preds[S].M.str(Ctx.interner()));
      std::reverse(Result.DeadlockTrace.begin(), Result.DeadlockTrace.end());
    }
  }

  Result.States = States.size();
  Result.Exhaustive = !Truncated;
  ExploreSpan.count("states", static_cast<int64_t>(Result.States));
  ExploreSpan.tag("coverage", Truncated ? "truncated" : "exhaustive");
  if (metrics::enabled()) {
    metrics::counter("net.explorer.states_expanded").add(Expanded);
    metrics::counter("net.explorer.dedup_hits").add(DedupHits);
    metrics::counter("net.explorer.moves_generated").add(MovesGenerated);
    metrics::gauge("net.explorer.states_peak")
        .setMax(static_cast<int64_t>(Result.States));
  }
  return Result;
}
