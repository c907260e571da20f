//===- oracle/PerPolicyValidity.h - Per-policy plan checker -----*- C++ -*-===//
///
/// \file
/// The reference for validity::checkPlanValidity: the same §3.1/§5
/// exploration, but with every policy monitored on its own as a set of
/// usage-automaton states instead of through the fused policy DFA.
/// ValidityDiffTest requires both to report the same verdict, failure,
/// policy, request, trace and stuck flag, with the fused checker
/// exploring no more configurations. Test-only: no production binary
/// links it.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_TESTS_ORACLE_PERPOLICYVALIDITY_H
#define SUS_TESTS_ORACLE_PERPOLICYVALIDITY_H

#include "validity/StaticValidity.h"

namespace sus {
namespace oracle {

/// checkPlanValidity with one NFA-subset monitor per policy.
validity::StaticValidityResult checkPlanValidityPerPolicy(
    hist::HistContext &Ctx, const hist::Expr *Client, plan::Loc ClientLoc,
    const plan::Plan &P, const plan::Repository &Repo,
    const policy::PolicyRegistry &Registry,
    const validity::StaticValidityOptions &Options = {});

} // namespace oracle
} // namespace sus

#endif // SUS_TESTS_ORACLE_PERPOLICYVALIDITY_H
