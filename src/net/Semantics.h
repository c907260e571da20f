//===- net/Semantics.h - The network rules of Definition 2 ------*- C++ -*-===//
///
/// \file
/// The one transition relation of §3's networks. A component is a session
/// tree S ::= ℓ:H | [S, S] (Definition 2), hash-consed so that a tree is
/// identified by its pointer. Semantics::moves enumerates what a tree can
/// do: rules Access, Open, Synch and Close, lifted out of nested sessions
/// by rule Session, plus rule Commit when committed internal choice is on.
/// Static validity (validity/StaticValidity.h), the whole-network explorer
/// (net/Explorer.h) and the interpreter (net/Interpreter.h) all step these
/// rules; each adds only its own state: a policy monitor, slot counts or
/// histories.
///
/// Move order is fixed, because it fixes the interpreter's seeded
/// schedules, the explorer's deadlock witness and validity's traces: at a
/// leaf, the order of hist::derive; at a pair, the left subtree's moves,
/// then the right subtree's, then Synch and Close with the left leaf
/// acting, then with the right leaf acting.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_NET_SEMANTICS_H
#define SUS_NET_SEMANTICS_H

#include "hist/Derive.h"
#include "hist/HistContext.h"
#include "plan/Plan.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace sus {
namespace net {

/// A node of a session tree. Nodes are interned by a Semantics and live as
/// long as it does.
struct SessionTree {
  bool IsLeaf;
  plan::Loc Location;                   ///< Leaf: where the behaviour runs.
  const hist::Expr *Behavior = nullptr; ///< Leaf: the residual expression.
  const SessionTree *Left = nullptr;    ///< Pair: the session opener side.
  const SessionTree *Right = nullptr;   ///< Pair: the serving side.

  /// True when the tree is a single leaf whose behaviour is ε.
  bool isTerminated() const { return IsLeaf && Behavior->isEmpty(); }

  /// Renders like the paper's configurations: "[l_c1: H, [l_br: H', ...]]".
  std::string str(const hist::HistContext &Ctx) const;
};

/// Why rule Open cannot fire: π binds no location to the request, or the
/// location it binds offers no service.
enum class PlanGap : uint8_t { None, UnboundRequest, UnknownService };

/// A history label a move logs. Rule Access logs the event or framing it
/// fires; rules Open and Close log the framings of their policies.
struct LoggedLabel {
  const hist::Label *Fired = nullptr;      ///< Access: the label fired.
  const hist::PolicyRef *Policy = nullptr; ///< Open/Close: the framed ϕ.
  bool Opens = false;                      ///< With Policy: ⌊ϕ, else ⌋ϕ.

  hist::Label label() const;
};

/// One move of a session tree.
struct Move {
  enum class Kind : uint8_t {
    Access, ///< Rule Access: fire γ ∈ Ev ∪ Frm at a leaf.
    Open,   ///< Rule Open: open a session with the planned service.
    Synch,  ///< Rule Synch: complementary actions meet (τ).
    Close,  ///< Rule Close: the opener ends the session.
    Commit, ///< Committed internal choice: resolve a ⊕ to one branch.
  };

  Kind K = Kind::Access;
  /// Open only: why it cannot fire. A gap has no successor.
  PlanGap Gap = PlanGap::None;
  const SessionTree *Next = nullptr; ///< The successor tree.
  /// The label the move shows: the label fired (Access, Open, Close), the
  /// sender's output (Synch) or the chosen branch's guard (Commit).
  const hist::Label *Shown = nullptr;
  plan::Loc Actor; ///< The acting leaf's location; a Synch's sender.
  /// Open: the location π binds; Synch: the receiver; Close: the partner
  /// the session discards.
  plan::Loc Partner;
  /// The history labels the move logs, in order: Log[LogBegin, LogEnd).
  uint32_t LogBegin = 0, LogEnd = 0;

  /// The move without locations: the label, "tau(ā)" for a Synch of ā and
  /// "commit ā" for a Commit to ā.
  std::string str(const StringInterner &In) const;
};

/// Rule Open's premise for one component: π binds the request to a
/// location of the repository, whose service the new session runs.
struct Binder {
  Binder(const plan::Plan &Pi, const plan::Repository &Repo)
      : Pi(Pi), Repo(Repo) {}

  const plan::Plan &Pi;
  const plan::Repository &Repo;
};

/// The network rules over one interning table of session trees, with a
/// memo of every expression's derivatives.
class Semantics {
public:
  explicit Semantics(hist::HistContext &Ctx,
                     bool CommittedInternalChoice = false)
      : Ctx(Ctx), Committed(CommittedInternalChoice) {}

  const SessionTree *leaf(plan::Loc L, const hist::Expr *H);
  const SessionTree *pair(const SessionTree *A, const SessionTree *B);

  /// Appends the moves of \p T to \p Out, in the order the file comment
  /// fixes, and the history labels they log to \p Log. Trivial policies
  /// log nothing on Open and Close; a Close logs Φ of the partner it
  /// discards, then the closing frame.
  ///
  /// With a null \p B every Open is left unbound, for callers that step
  /// one tree under several plans at once: it has no gap and no Partner,
  /// it logs its framing, and its successor holds hole() where the
  /// spawned service goes, for the caller to plug with fill().
  void moves(const SessionTree *T, const Binder *B, std::vector<Move> &Out,
             std::vector<LoggedLabel> &Log);

  /// The placeholder an unbound Open leaves for the spawned service.
  const SessionTree *hole() const { return &Hole; }

  /// \p T, holding hole() once, with \p Spawned in its place.
  const SessionTree *fill(const SessionTree *T, const SessionTree *Spawned);

private:
  struct Derivatives {
    /// The steps of hist::derive or, when Commits, one step per branch of
    /// a leading multi-branch ⊕, labelled by its guard, to the behaviour
    /// committed to that branch (committed mode only).
    std::vector<hist::Transition> Steps;
    bool Commits = false;
  };
  const Derivatives &derivatives(const hist::Expr *E);

  /// Rules Synch and Close with the leaf \p X acting against \p Y.
  void actorMoves(const SessionTree *X, const SessionTree *Y, bool XIsLeft,
                  std::vector<Move> &Out, std::vector<LoggedLabel> &Log);

  /// (location, behaviour) of a leaf or (left, right) of a pair.
  struct Key {
    bool IsLeaf;
    uintptr_t First, Second;
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const noexcept;
  };

  hist::HistContext &Ctx;
  bool Committed;
  /// Map nodes never move, so trees and derivatives have stable addresses.
  std::unordered_map<Key, SessionTree, KeyHash> Trees;
  std::unordered_map<const hist::Expr *, Derivatives> Derived;
  std::vector<const hist::PolicyRef *> Pending; ///< Φ scratch for Close.
  /// Never interned, so no tree without a hole can equal one with it.
  const SessionTree Hole{true, plan::Loc(), nullptr, nullptr, nullptr};
};

} // namespace net
} // namespace sus

#endif // SUS_NET_SEMANTICS_H
