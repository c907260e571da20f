//===- monitor/Fused.cpp - Lazily fused multi-policy monitor --------------===//

#include "monitor/Fused.h"

#include "automata/Ops.h"
#include "policy/Compile.h"
#include "support/Casting.h"
#include "support/HashUtil.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <span>

using namespace sus;
using namespace sus::monitor;
using namespace sus::hist;

int FusedPolicyAutomaton::policyBit(const PolicyRef &Ref) const {
  auto It = std::lower_bound(Policies.begin(), Policies.end(), Ref);
  if (It == Policies.end() || !(*It == Ref))
    return -1;
  return static_cast<int>(It - Policies.begin());
}

void sus::monitor::canonicalizePolicySet(std::vector<PolicyRef> &Refs,
                                         std::vector<Event> &Universe) {
  Refs.erase(std::remove_if(Refs.begin(), Refs.end(),
                            [](const PolicyRef &R) { return R.isTrivial(); }),
             Refs.end());
  std::sort(Refs.begin(), Refs.end());
  Refs.erase(std::unique(Refs.begin(), Refs.end()), Refs.end());
  std::sort(Universe.begin(), Universe.end());
  Universe.erase(std::unique(Universe.begin(), Universe.end()),
                 Universe.end());
}

uint64_t
sus::monitor::policySetFingerprint(const std::vector<PolicyRef> &Refs,
                                   const std::vector<Event> &Universe) {
  size_t Seed = hashAll(Refs.size(), Universe.size());
  for (const PolicyRef &R : Refs)
    hashCombine(Seed, R.hash());
  for (const Event &Ev : Universe)
    hashCombine(Seed, Ev.hash());
  return static_cast<uint64_t>(Seed);
}

void sus::monitor::appendPolicyRefs(const Expr *E,
                                    std::vector<PolicyRef> &Out) {
  auto Add = [&Out](const PolicyRef &Ref) {
    if (!Ref.isTrivial())
      Out.push_back(Ref);
  };
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::Event:
    return;
  case ExprKind::CloseMark:
    Add(cast<CloseMarkExpr>(E)->policy());
    return;
  case ExprKind::FrameOpen:
    Add(cast<FrameOpenExpr>(E)->policy());
    return;
  case ExprKind::FrameClose:
    Add(cast<FrameCloseExpr>(E)->policy());
    return;
  case ExprKind::Mu:
    appendPolicyRefs(cast<MuExpr>(E)->body(), Out);
    return;
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    appendPolicyRefs(S->head(), Out);
    appendPolicyRefs(S->tail(), Out);
    return;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      appendPolicyRefs(B.Body, Out);
    return;
  case ExprKind::Request: {
    const auto *R = cast<RequestExpr>(E);
    Add(R->policy());
    appendPolicyRefs(R->body(), Out);
    return;
  }
  case ExprKind::Framing: {
    const auto *F = cast<FramingExpr>(E);
    Add(F->policy());
    appendPolicyRefs(F->body(), Out);
    return;
  }
  }
}

std::vector<PolicyRef>
sus::monitor::collectPolicyRefs(const std::vector<const Expr *> &Exprs) {
  std::vector<PolicyRef> Out;
  for (const Expr *E : Exprs)
    appendPolicyRefs(E, Out);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// The lazily filled product table
//===----------------------------------------------------------------------===//

namespace sus {
namespace monitor {

class ProductTable {
public:
  /// \p Parts are the minimized per-policy DFAs, total over event indices
  /// 0..NumEvents-1. The start tuple is always tabled, whatever \p Bound.
  ProductTable(std::vector<automata::Dfa> PartsIn, size_t NumEvents,
               uint64_t Bound)
      : Parts(std::move(PartsIn)), NumEvents(NumEvents),
        Words((Parts.size() + 63) / 64), Bound(std::max<uint64_t>(Bound, 1)) {
    std::vector<automata::StateId> Tuple(Parts.size());
    for (size_t I = 0; I != Parts.size(); ++I)
      Tuple[I] = Parts[I].start();
    MutexLock Lock(M);
    Start = internLocked(Tuple);
  }

  const ProductState *start() const { return Start; }

  /// Steps every per-policy DFA of \p Tuple on event index \p Idx.
  void step(std::vector<automata::StateId> &Tuple, uint32_t Idx) const {
    for (size_t I = 0; I != Tuple.size(); ++I) {
      Tuple[I] = Parts[I].stepIndex(Tuple[I], Idx);
      assert(Tuple[I] != automata::Dfa::NoState &&
             "minimized policy DFA must be total");
    }
  }

  /// The policies offending at \p Tuple; empty when none.
  PolicySet offendingOf(const std::vector<automata::StateId> &Tuple) const {
    PolicySet Set(Words, 0);
    bool Any = false;
    for (size_t I = 0; I != Tuple.size(); ++I)
      if (Parts[I].isAccepting(Tuple[I])) {
        Set[I / 64] |= uint64_t(1) << (I % 64);
        Any = true;
      }
    if (!Any)
      Set.clear();
    return Set;
  }

  /// The tabled state of \p Tuple, tabling it while there is room; null
  /// once the table is full without it. A non-null \p From gets the
  /// result as its successor on \p Idx.
  const ProductState *lookup(const std::vector<automata::StateId> &Tuple,
                             const ProductState *From, uint32_t Idx) {
    const ProductState *To;
    bool Added;
    {
      MutexLock Lock(M);
      size_t Before = States.size();
      To = internLocked(Tuple);
      Added = States.size() != Before;
      if (To && From)
        From->Next[Idx].store(To, std::memory_order_release);
    }
    if (Added && metrics::enabled())
      metrics::counter("monitor.fused_states").add();
    return To;
  }

  size_t size() const {
    MutexLock Lock(M);
    return States.size();
  }

private:
  using TupleView = std::span<const automata::StateId>;
  struct ViewHash {
    size_t operator()(TupleView V) const {
      size_t Seed = V.size();
      for (automata::StateId S : V)
        hashCombineValue(Seed, S);
      return Seed;
    }
  };
  struct ViewEq {
    bool operator()(TupleView A, TupleView B) const {
      return std::equal(A.begin(), A.end(), B.begin(), B.end());
    }
  };

  const ProductState *
  internLocked(const std::vector<automata::StateId> &Tuple) SUS_REQUIRES(M) {
    auto It = Index.find(TupleView(Tuple));
    if (It != Index.end())
      return It->second;
    if (States.size() >= Bound)
      return nullptr;
    auto S = std::make_unique<ProductState>();
    S->Tuple = Tuple;
    PolicySet Offending = offendingOf(Tuple);
    if (!Offending.empty())
      S->Offending = &*OffendingSets.insert(std::move(Offending)).first;
    S->Next =
        std::make_unique<std::atomic<const ProductState *>[]>(NumEvents);
    // The key views the state's own tuple, which never moves.
    Index.emplace(TupleView(S->Tuple), S.get());
    States.push_back(std::move(S));
    return States.back().get();
  }

  const std::vector<automata::Dfa> Parts;
  const size_t NumEvents;
  const size_t Words;
  const uint64_t Bound;
  const ProductState *Start = nullptr;

  /// Guards the tables below. Hits never take it (see Fused.h); no other
  /// lock is taken under it.
  mutable Mutex M;
  std::vector<std::unique_ptr<ProductState>> States SUS_GUARDED_BY(M);
  std::unordered_map<TupleView, const ProductState *, ViewHash, ViewEq>
      Index SUS_GUARDED_BY(M);
  /// Node-based, so interned sets never move.
  std::set<PolicySet> OffendingSets SUS_GUARDED_BY(M);
};

} // namespace monitor
} // namespace sus

namespace {

/// The table bound \p Opts asks for.
uint64_t tableBound(const FuseOptions &Opts) {
  uint64_t Bound = MaxTableStates;
  if (Opts.Gov)
    Bound = std::min(Bound, Opts.Gov->limit(ResourceKind::ProductStates));
  return Bound;
}

} // namespace

FusedPolicyAutomaton::FusedPolicyAutomaton() = default;
FusedPolicyAutomaton::FusedPolicyAutomaton(FusedPolicyAutomaton &&) = default;
FusedPolicyAutomaton &
FusedPolicyAutomaton::operator=(FusedPolicyAutomaton &&) = default;
FusedPolicyAutomaton::~FusedPolicyAutomaton() = default;

size_t FusedPolicyAutomaton::numStates() const { return Table->size(); }

FusedPolicyAutomaton::Cursor FusedPolicyAutomaton::start() const {
  Cursor C;
  C.At = Table->start();
  return C;
}

void FusedPolicyAutomaton::stepSlow(Cursor &C, uint32_t Idx) const {
  const ProductState *From = C.At;
  if (From)
    C.Tuple = From->Tuple;
  Table->step(C.Tuple, Idx);
  C.At = Table->lookup(C.Tuple, From, Idx);
  if (C.At) {
    C.Tuple.clear();
    C.Offending.clear();
  } else {
    C.Offending = Table->offendingOf(C.Tuple);
  }
}

Outcome<FusedPolicyAutomaton>
sus::monitor::fusePolicies(const policy::PolicyRegistry &Registry,
                           const StringInterner &Interner,
                           std::vector<PolicyRef> Refs,
                           std::vector<Event> Universe,
                           const FuseOptions &Opts) {
  trace::Span Span("monitor.fuse", "monitor");
  canonicalizePolicySet(Refs, Universe);

  FusedPolicyAutomaton F;
  F.Universe = std::move(Universe);
  F.EventIndex.reserve(F.Universe.size());
  for (uint32_t I = 0; I < F.Universe.size(); ++I)
    F.EventIndex.emplace(F.Universe[I], I);

  // Per-policy compile + Hopcroft. compilePolicy is total over the dense
  // codes 0..|Universe|-1 and minimize preserves totality (it completes
  // over the effective alphabet first), so the product never sees a
  // missing transition. Uninstantiable references need no automaton:
  // their frame-open is a violation by construction.
  std::vector<automata::Dfa> Parts;
  for (const PolicyRef &Ref : Refs) {
    std::optional<policy::PolicyInstance> Inst =
        Registry.instantiate(Ref, Interner, nullptr);
    if (!Inst)
      continue;
    F.Policies.push_back(Ref);
    Parts.push_back(automata::minimize(
        policy::compilePolicy(*Inst, F.Universe).Automaton));
  }

  F.Table = std::make_unique<ProductTable>(std::move(Parts),
                                           F.Universe.size(), tableBound(Opts));

  if (metrics::enabled())
    metrics::counter("monitor.fusions").add();
  Span.count("policies", static_cast<int64_t>(F.Policies.size()));
  return F;
}

FusedPolicyAutomaton
sus::monitor::fuseBehaviors(const policy::PolicyRegistry &Registry,
                            const StringInterner &Interner,
                            std::vector<const Expr *> Behaviors) {
  // Walk a behaviour bound to several requests once.
  std::sort(Behaviors.begin(), Behaviors.end());
  Behaviors.erase(std::unique(Behaviors.begin(), Behaviors.end()),
                  Behaviors.end());
  return fusePolicies(Registry, Interner, collectPolicyRefs(Behaviors),
                      policy::eventUniverse(Behaviors))
      .takeValue();
}

std::shared_ptr<const FusedPolicyAutomaton>
FusedCache::fuse(const policy::PolicyRegistry &Registry,
                 const StringInterner &Interner, std::vector<PolicyRef> Refs,
                 std::vector<Event> Universe, const FuseOptions &Opts) {
  canonicalizePolicySet(Refs, Universe);
  Key K{std::move(Refs), std::move(Universe), tableBound(Opts)};
  {
    MutexLock Lock(M);
    ++S.Lookups;
    auto It = Entries.find(K);
    if (It != Entries.end()) {
      ++S.Hits;
      if (metrics::enabled())
        metrics::counter("monitor.fusion_cache_hits").add();
      return It->second;
    }
  }
  // Fuse outside the lock: a racing duplicate fusion is cheaper than
  // serializing every session open behind one compilation.
  auto Shared = std::make_shared<const FusedPolicyAutomaton>(
      fusePolicies(Registry, Interner, K.Refs, K.Universe, Opts).takeValue());
  MutexLock Lock(M);
  ++S.Fusions;
  auto [It, Inserted] = Entries.emplace(std::move(K), Shared);
  return Inserted ? Shared : It->second;
}

FusedCache::Stats FusedCache::stats() const {
  MutexLock Lock(M);
  return S;
}
