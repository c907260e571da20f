//===- net/Interpreter.cpp - Network operational semantics ---------------===//

#include "net/Interpreter.h"

#include "support/Metrics.h"
#include "support/Trace.h"

using namespace sus;
using namespace sus::hist;
using namespace sus::net;

Interpreter::Interpreter(HistContext &Ctx, const plan::Repository &Repo,
                         const policy::PolicyRegistry &Registry,
                         std::vector<NetworkComponent> Comps, Options Opts)
    : Ctx(Ctx), Repo(Repo), Registry(Registry), Opts(Opts),
      Components(std::move(Comps)),
      Rules(std::make_unique<Semantics>(Ctx, Opts.CommittedInternalChoice)) {
  for (const NetworkComponent &C : Components) {
    Trees.push_back(Rules->leaf(C.Location, C.Client));
    Histories.emplace_back();
  }
}

monitor::SessionMonitor &Interpreter::monitorOf(size_t Component) {
  // Fusing waits for the first label: a network that never appends one
  // never walks its behaviours, and at that point every history is still
  // empty, so every monitor starts at the fusion's start state.
  if (!Fused) {
    // The clients and the services their plans bind — the only ones an
    // Open step can start — so the universe is closed and no other
    // service of the repository is walked.
    std::vector<const Expr *> Behaviors;
    for (const NetworkComponent &C : Components) {
      Behaviors.push_back(C.Client);
      for (const auto &[Request, L] : C.Pi.bindings())
        if (const Expr *Service = Repo.find(L))
          Behaviors.push_back(Service);
    }
    Fused = std::make_unique<const monitor::FusedPolicyAutomaton>(
        monitor::fuseBehaviors(Registry, Ctx.interner(), Behaviors));
    Monitors.assign(Components.size(), monitor::SessionMonitor(*Fused));
  }
  return Monitors[Component];
}

std::vector<Step> Interpreter::steps() {
  const StringInterner &In = Ctx.interner();
  std::vector<Step> Out;
  for (size_t C = 0; C < Components.size(); ++C) {
    Moves.clear();
    Log.clear();
    Binder Bind(Components[C].Pi, Repo);
    Rules->moves(Trees[C], &Bind, Moves, Log);
    for (const Move &M : Moves) {
      Step S;
      S.Component = C;
      S.K = M.K;
      S.From = Trees[C];
      S.Next = M.Next;
      S.Partner = M.Partner;
      for (uint32_t I = M.LogBegin; I != M.LogEnd; ++I)
        S.HistoryAppend.push_back(Log[I].label());
      std::string Actor(In.text(M.Actor));
      if (M.K == Step::Kind::Synch)
        S.Desc = "tau: " + Actor + " " + M.Shown->asComm().str(In) + " -> " +
                 std::string(In.text(M.Partner));
      else
        S.Desc = Actor + ": " + M.str(In);
      if (M.Gap != PlanGap::None) {
        S.PlanGap = true;
      } else if (M.K == Step::Kind::Open) {
        unsigned Cap = Repo.capacity(M.Partner);
        S.CapacityBlocked = Cap != 0 && sessionsInUse(M.Partner) >= Cap;
      }
      Out.push_back(std::move(S));
    }
  }
  // Monitor verdicts: a step is blocked if its history extension breaks
  // validity (rule Access / Open / Close premises |= η'). This is the
  // work a verified plan saves: with the monitor off (§5), no step is
  // ever probed.
  if (Opts.MonitorEnabled) {
    for (Step &S : Out) {
      if (S.PlanGap || S.HistoryAppend.empty())
        continue;
      S.Blocked = !monitorOf(S.Component).wouldAdmitAll(S.HistoryAppend);
    }
  }
  return Out;
}

bool Interpreter::apply(const Step &S) {
  if (S.PlanGap || S.CapacityBlocked)
    return false;
  if (Opts.MonitorEnabled && S.Blocked)
    return false;

  if (S.Component >= Trees.size() || Trees[S.Component] != S.From)
    return false;

  Trees[S.Component] = S.Next;
  if (S.K == Step::Kind::Open) {
    ++InUse[S.Partner];
  } else if (S.K == Step::Kind::Close) {
    // The discarded partner releases its replication slot.
    auto It = InUse.find(S.Partner);
    if (It != InUse.end() && It->second > 0)
      --It->second;
  }

  for (const Label &L : S.HistoryAppend) {
    Histories[S.Component].append(L);
    monitorOf(S.Component).advance(L);
  }
  TraceLog.push_back(S.Desc);
  return true;
}

RunStats Interpreter::run(uint64_t Seed, size_t MaxSteps) {
  trace::Span RunSpan("net.run", "net");
  RunStats Stats;
  std::mt19937_64 Rng(Seed);
  for (size_t N = 0; N < MaxSteps; ++N) {
    std::vector<Step> All = steps();
    std::vector<const Step *> Applicable;
    for (const Step &S : All) {
      if (S.PlanGap)
        continue;
      if (S.CapacityBlocked) {
        ++Stats.CapacityWaits;
        continue;
      }
      if (Opts.MonitorEnabled && S.Blocked) {
        ++Stats.BlockedAttempts;
        continue;
      }
      Applicable.push_back(&S);
    }
    if (Applicable.empty())
      break;
    size_t Pick = std::uniform_int_distribution<size_t>(
        0, Applicable.size() - 1)(Rng);
    if (!apply(*Applicable[Pick])) {
      // The step was enumerated as applicable yet refused to apply: the
      // step/apply contract is broken. The old assert-only check silently
      // swallowed this in NDEBUG builds *and* counted the phantom step;
      // record the failure, leave the component stuck, and stop instead
      // of spinning on a step that will never fire.
      ++Stats.FailedApplies;
      if (metrics::enabled())
        metrics::counter("net.interpreter.failed_applies").add();
      break;
    }
    ++Stats.StepsTaken;
  }

  Stats.AllCompleted = true;
  for (size_t C = 0; C < Components.size(); ++C) {
    if (isViolated(C))
      ++Stats.Violations;
    if (!isDone(C)) {
      Stats.AllCompleted = false;
      Stats.StuckComponents.push_back(C);
    }
  }
  // Bumped once per run, not per step, so the registry lookup is off the
  // hot path (and skipped entirely while metrics are off).
  if (metrics::enabled()) {
    metrics::counter("net.interpreter.steps").add(Stats.StepsTaken);
    metrics::counter("net.interpreter.monitor_blocks")
        .add(Stats.BlockedAttempts);
    metrics::counter("net.interpreter.capacity_waits")
        .add(Stats.CapacityWaits);
  }
  RunSpan.count("steps", static_cast<int64_t>(Stats.StepsTaken));
  RunSpan.tag("outcome", Stats.AllCompleted ? "completed" : "stuck");
  return Stats;
}

std::string Interpreter::configStr() const {
  std::string Out;
  for (size_t C = 0; C < Components.size(); ++C) {
    if (C != 0)
      Out += " || ";
    std::string Eta = Histories[C].str(Ctx.interner());
    Out += Eta.empty() ? "e" : Eta;
    Out += ", ";
    Out += Trees[C]->str(Ctx);
  }
  return Out;
}
