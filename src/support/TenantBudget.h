//===- support/TenantBudget.h - Per-tenant resource budgets -----*- C++ -*-===//
///
/// \file
/// Per-tenant deadline and state-budget policy for the resident daemon
/// (susd). Every request names a tenant (default "*"); the table maps the
/// tenant to its budget, and a fresh ResourceGovernor is armed per
/// request so one tenant's runaway query cannot starve another: the
/// deadline always restarts from the moment the request is admitted.
///
/// A budget combines with per-request overrides by *minimum*: a tenant
/// capped at 100ms stays capped even when its request asks for 10s, while
/// a request asking for 5ms under a 100ms tenant gets 5ms. Absent fields
/// (NoLimit) are identities of the min.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_TENANTBUDGET_H
#define SUS_SUPPORT_TENANTBUDGET_H

#include "support/ResourceGovernor.h"

#include <map>
#include <memory>
#include <string>

namespace sus {

/// One tenant's resource ceiling. NoLimit fields are unconstrained.
struct TenantBudget {
  static constexpr uint64_t NoLimit = ~uint64_t(0);

  uint64_t DeadlineMs = NoLimit;
  uint64_t MaxProductStates = NoLimit;
  uint64_t MaxSubsetStates = NoLimit;

  bool unlimited() const {
    return DeadlineMs == NoLimit && MaxProductStates == NoLimit &&
           MaxSubsetStates == NoLimit;
  }

  /// Field-wise minimum (NoLimit = identity).
  TenantBudget min(const TenantBudget &Other) const;

  /// A fresh governor enforcing this budget, its deadline armed *now*.
  /// Null when the budget is unlimited (the ungoverned fast path).
  std::shared_ptr<ResourceGovernor> governor() const;
};

/// The tenant → budget policy table, built from --tenant specs at daemon
/// startup and read-only afterwards (so no lock is needed at request
/// admission).
class TenantBudgetTable {
public:
  /// Parses one "NAME:DEADLINE_MS:PRODUCT_STATES:SUBSET_STATES" spec.
  /// Empty fields mean "no limit" ("web:100::" caps only the deadline);
  /// the name "*" sets the default budget for unlisted tenants. Returns
  /// false with a one-line diagnostic in \p Err on a malformed spec
  /// (missing fields, non-numeric values, duplicate tenant).
  bool addSpec(const std::string &Spec, std::string &Err);

  /// The budget of \p Tenant: its own row, else the "*" default, else
  /// unlimited.
  const TenantBudget &lookup(const std::string &Tenant) const;

  size_t size() const { return Budgets.size(); }

  /// Builds the per-request governor for \p Tenant, folding in the
  /// request's own \p Override budget by minimum (see
  /// TenantBudget::governor).
  std::shared_ptr<ResourceGovernor>
  governorFor(const std::string &Tenant, const TenantBudget &Override) const;

private:
  std::map<std::string, TenantBudget> Budgets;
  TenantBudget Default;
  bool HaveDefault = false;
};

} // namespace sus

#endif // SUS_SUPPORT_TENANTBUDGET_H
