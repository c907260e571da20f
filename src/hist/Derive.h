//===- hist/Derive.h - Stand-alone operational semantics --------*- C++ -*-===//
///
/// \file
/// The stand-alone operational semantics of history expressions (the
/// H --λ--> H′ rules of §3): I-Choice, E-Choice, (α Acc), S-Open, P-Open,
/// Conc and Rec. `derive` computes the full set of one-step derivatives of
/// an expression; hash-consing guarantees the reachable set is finite for
/// well-formed (guarded, tail-recursive) expressions.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_HIST_DERIVE_H
#define SUS_HIST_DERIVE_H

#include "hist/Action.h"
#include "hist/Expr.h"
#include "hist/HistContext.h"

#include <vector>

namespace sus {
namespace hist {

/// One labelled step H --λ--> H′.
struct Transition {
  Label L;
  const Expr *Target;
};

/// Computes all one-step derivatives of \p E.
///
/// \p E must be closed; a free variable (or an unguarded µ) yields no
/// transitions. ε has no transitions (successful termination).
std::vector<Transition> derive(HistContext &Ctx, const Expr *E);

/// Φ(H): appends the ⌋ϕ markers along the sequential spine of \p E, in
/// order — the frames rule Close flushes when a session partner ends
/// under them. The policies point into \p E's nodes.
void pendingFrameCloses(const Expr *E, std::vector<const PolicyRef *> &Out);

/// Returns true if \p E is terminated, i.e. E ≡ ε.
inline bool isTerminated(const Expr *E) { return E->isEmpty(); }

} // namespace hist
} // namespace sus

#endif // SUS_HIST_DERIVE_H
