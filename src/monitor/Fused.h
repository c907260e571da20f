//===- monitor/Fused.h - Lazily fused multi-policy monitor ------*- C++ -*-===//
///
/// \file
/// Fuses a *set* of instantiated usage policies into one product DFA that
/// is built lazily, so that a session's monitor state is a single pointer.
/// Fusion compiles each policy over a shared concrete event universe
/// (policy/Compile) and Hopcroft-minimizes it; no product is built up
/// front. A product state is the interned tuple of per-policy DFA states.
/// The first time any session takes event i out of a state, the successor
/// is computed from the per-policy DFAs and memoized in a transition table
/// that every session of the fusion shares. Per-event admission is then one
/// table load plus an "offending set is empty" test on the common path.
///
/// Soundness contract: offending states of usage automata are absorbing,
/// so per-policy acceptance is prefix-sticky and survives language-
/// preserving minimization. The fused monitor is exact — it blocks a label
/// iff the per-policy probe of policy/Validity.h would (MonitorDiffTest
/// proves this bit for bit) — *provided the universe is closed*: every
/// event the session can fire must be in the fusion universe, because an
/// unseen event could match wildcard or guard edges. net::Interpreter
/// fuses its own network's universe, so it is closed by construction;
/// other callers of MonitorEngine must pass a closed universe.
///
/// Concurrency: MonitorEngine::ingest steps one fusion from several shards
/// at once. A table hit takes no lock: it is one acquire load of a
/// successor slot in a ProductState that never moves, and a slot never
/// changes once set. A miss takes the table's mutex, interns the successor
/// and publishes it with a release store.
///
/// The table holds at most MaxTableStates states, or the governor's
/// ProductStates budget when that is smaller. Past the bound it stops
/// growing: a session whose next tuple is not tabled steps the per-policy
/// DFAs itself until it steps back into a tabled state. Nothing refuses.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_MONITOR_FUSED_H
#define SUS_MONITOR_FUSED_H

#include "automata/Nfa.h"
#include "hist/Action.h"
#include "hist/Expr.h"
#include "policy/UsageAutomaton.h"
#include "support/ResourceGovernor.h"
#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace sus {
namespace monitor {

/// Bound on tabled product states per fusion, governor or not, so a
/// pathological policy set can never exhaust memory.
constexpr uint64_t MaxTableStates = uint64_t(1) << 20;

/// Knobs for one fusion.
struct FuseOptions {
  /// Its ProductStates budget bounds the fusion's transition table (never
  /// above MaxTableStates). Null = MaxTableStates.
  const ResourceGovernor *Gov = nullptr;
};

/// A set of fused policies: bit i of word i/64 ⇔ Policies[i]. Sets of one
/// fusion all have the same number of words, so there is no width cap.
using PolicySet = std::vector<uint64_t>;

inline bool testBit(const PolicySet &S, unsigned Bit) {
  return (S[Bit / 64] >> (Bit % 64)) & 1;
}

inline bool intersects(const PolicySet &A, const PolicySet &B) {
  for (size_t W = 0; W != A.size(); ++W)
    if (A[W] & B[W])
      return true;
  return false;
}

/// One tabled product state. Published states never move and never
/// change, except that each Next slot is set at most once.
struct ProductState {
  /// The per-policy DFA states (the interned key).
  std::vector<automata::StateId> Tuple;
  /// The policies offending here, interned per fusion; null = none.
  const PolicySet *Offending = nullptr;
  /// Successor per event index; null until some session first takes it.
  std::unique_ptr<std::atomic<const ProductState *>[]> Next;

  const ProductState *next(uint32_t Idx) const {
    return Next[Idx].load(std::memory_order_acquire);
  }
};

/// The shared, lazily filled transition table (defined in Fused.cpp).
class ProductTable;

/// A set of instantiated policies fused into one lazily built DFA.
///
/// Event index i is Universe[i]; `eventIndexOf` translates an event once
/// and `step` walks the product on the index.
struct FusedPolicyAutomaton {
  /// Sentinel of eventIndexOf for events outside the universe.
  static constexpr uint32_t NoEvent = ~0u;

  /// The fused non-trivial, instantiable policies (sorted, distinct);
  /// index == PolicySet bit. Referenced policies the registry cannot
  /// instantiate are left out: opening their frame is always a violation
  /// — exactly the per-policy probe's verdict — so they need no automaton.
  std::vector<hist::PolicyRef> Policies;

  /// The closed event universe (sorted, distinct); index == event index.
  std::vector<hist::Event> Universe;

  /// Universe[i] ↦ i.
  std::unordered_map<hist::Event, uint32_t> EventIndex;

  FusedPolicyAutomaton();
  FusedPolicyAutomaton(FusedPolicyAutomaton &&);
  FusedPolicyAutomaton &operator=(FusedPolicyAutomaton &&);
  ~FusedPolicyAutomaton();

  /// Event index of \p Ev, or NoEvent when outside the universe.
  uint32_t eventIndexOf(const hist::Event &Ev) const {
    auto It = EventIndex.find(Ev);
    return It == EventIndex.end() ? NoEvent : It->second;
  }

  /// PolicySet bit of \p Ref, or -1 when not fused.
  int policyBit(const hist::PolicyRef &Ref) const;

  /// Words of every PolicySet of this fusion.
  size_t setWords() const { return (Policies.size() + 63) / 64; }

  /// Product states tabled so far.
  size_t numStates() const;

  /// Where a session stands in the product: a tabled state, or — past
  /// the table bound — its own tuple of per-policy states.
  struct Cursor {
    const ProductState *At = nullptr;     ///< Null = off the table.
    std::vector<automata::StateId> Tuple; ///< Off the table only.
    PolicySet Offending;                  ///< Off the table only; empty = none.
  };

  Cursor start() const;

  /// Moves \p C along event index \p Idx. A hit is one table load.
  void step(Cursor &C, uint32_t Idx) const {
    if (C.At)
      if (const ProductState *N = C.At->next(Idx)) {
        C.At = N;
        return;
      }
    stepSlow(C, Idx);
  }

  /// The policies offending at \p C; null = none.
  static const PolicySet *offending(const Cursor &C) {
    if (C.At)
      return C.At->Offending;
    return C.Offending.empty() ? nullptr : &C.Offending;
  }

private:
  void stepSlow(Cursor &C, uint32_t Idx) const;

  std::unique_ptr<ProductTable> Table;

  friend Outcome<FusedPolicyAutomaton>
  fusePolicies(const policy::PolicyRegistry &, const StringInterner &,
               std::vector<hist::PolicyRef>, std::vector<hist::Event>,
               const FuseOptions &);
};

/// Canonicalizes a fusion request in place: trivial refs dropped, refs and
/// universe sorted and deduplicated. fusePolicies and the cache key both
/// use this form, so permutations of the same session share one fusion.
void canonicalizePolicySet(std::vector<hist::PolicyRef> &Refs,
                           std::vector<hist::Event> &Universe);

/// Order-independent hash of a *canonicalized* policy set plus universe.
/// Colliding sets exist, so it only buckets; FusedCache compares keys.
uint64_t policySetFingerprint(const std::vector<hist::PolicyRef> &Refs,
                              const std::vector<hist::Event> &Universe);

/// Every non-trivial policy reference occurring in \p Root (requests,
/// framings and residual frame markers), deduplicated and sorted.
std::vector<hist::PolicyRef> collectPolicyRefs(const hist::Expr *Root);

/// Union over several expressions.
std::vector<hist::PolicyRef>
collectPolicyRefs(const std::vector<const hist::Expr *> &Exprs);

/// Fuses \p Refs over \p Universe (both canonicalized internally). Never
/// refuses: the result is always ok().
Outcome<FusedPolicyAutomaton>
fusePolicies(const policy::PolicyRegistry &Registry,
             const StringInterner &Interner,
             std::vector<hist::PolicyRef> Refs,
             std::vector<hist::Event> Universe,
             const FuseOptions &Opts = FuseOptions());

/// Thread-safe cache of fusions keyed by the canonical request (policies
/// and universe) and the table bound, shared across sessions with the same
/// policy set. A hit also shares the fusion's transition table, so later
/// sessions start warm. A request under a different bound (another
/// governor budget, or none) gets a fusion of its own.
class FusedCache {
public:
  /// Canonicalizes, then returns the cached fusion or fuses and records
  /// it. Never null.
  std::shared_ptr<const FusedPolicyAutomaton>
  fuse(const policy::PolicyRegistry &Registry, const StringInterner &Interner,
       std::vector<hist::PolicyRef> Refs, std::vector<hist::Event> Universe,
       const FuseOptions &Opts = FuseOptions());

  struct Stats {
    size_t Lookups = 0;  ///< fuse() calls.
    size_t Hits = 0;     ///< ... answered from the cache.
    size_t Fusions = 0;  ///< Fusions actually built.
    size_t Refusals = 0; ///< Always 0: fusion no longer refuses.
  };
  Stats stats() const;

private:
  struct Key {
    std::vector<hist::PolicyRef> Refs;
    std::vector<hist::Event> Universe;
    uint64_t Bound = 0; ///< The effective table bound.
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return static_cast<size_t>(
          policySetFingerprint(K.Refs, K.Universe) ^ K.Bound);
    }
  };

  /// Leaf lock over the table and stats. fuse() releases M while
  /// compiling (a few milliseconds for wide sets), then re-locks to
  /// insert — losing a duplicate-fusion race is cheaper than serializing
  /// every fusion.
  mutable Mutex M;
  mutable Stats S SUS_GUARDED_BY(M);
  std::unordered_map<Key, std::shared_ptr<const FusedPolicyAutomaton>,
                     KeyHash>
      Entries SUS_GUARDED_BY(M);
};

} // namespace monitor
} // namespace sus

#endif // SUS_MONITOR_FUSED_H
