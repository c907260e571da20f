//===- validity/StaticValidity.cpp - Plan validity model checker ---------===//

#include "validity/StaticValidity.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include "monitor/SessionMonitor.h"
#include "net/Semantics.h"
#include "policy/Compile.h"
#include "support/HashUtil.h"
#include "validity/FrameRegularize.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
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
// Configurations
//===----------------------------------------------------------------------===//

/// A configuration of the composed service: its session tree, where the
/// fused policy DFA stands on the history so far, and how deep each policy
/// is framed. All three are interned, so a configuration is three words.
/// Product states belong to one fusion, so plans fused apart never share
/// a configuration.
struct Config {
  const net::SessionTree *Tree;
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

/// A queued configuration and the plans that own it.
struct Entry {
  Config C;
  uint32_t From = 0; ///< The predecessor entry.
  net::Move M;       ///< How it was reached; M.Shown is null for a root.
  uint32_t OwnBegin = 0, OwnEnd = 0; ///< Owners[OwnBegin, OwnEnd).
};

/// One fusion, shared by the plans whose policy sets agree and whose
/// events move those policies alike, over the events of the client and of
/// those plans' services.
struct Fusion {
  std::vector<const Expr *> Behaviors;
  FusedPolicyAutomaton F;
  const FrameCounts *NoFrames = nullptr;
};

/// What a pass knows of one plan.
struct PlanRun {
  Fusion *Fu = nullptr;
  /// The fused policies' bits in order of first mention — the client's
  /// references depth first, then each planned service's in binding order.
  std::vector<unsigned> MentionOrder;
  size_t Explored = 0; ///< Configurations claimed.
  bool Decided = false;
  bool Exceeded = false; ///< Some successor was refused.
  std::optional<sus::ResourceExhausted> Trip;
};

//===----------------------------------------------------------------------===//
// The pass
//===----------------------------------------------------------------------===//

class Pass {
public:
  Pass(HistContext &Ctx, const Expr *Client, plan::Loc ClientLoc,
       std::span<const plan::Plan *const> Plans, const plan::Repository &Repo,
       const policy::PolicyRegistry &Registry,
       const StaticValidityOptions &Options)
      : Ctx(Ctx), Client(Client), ClientLoc(ClientLoc), Plans(Plans),
        Repo(Repo), Registry(Registry), Options(Options), Rules(Ctx),
        Runs(Plans.size()), Results(Plans.size()),
        Words((Plans.size() + 63) / 64), Shared(Plans.size() > 1) {}

  /// Checks the plans; leaves in \p Undecided those a shared pass
  /// overflowed before deciding them.
  std::vector<StaticValidityResult> run(std::vector<unsigned> &Undecided);

  /// Configurations the pass interned.
  size_t configurations() const { return Entries.size(); }

private:
  /// Groups the plans by policy set and by how their events move those
  /// policies, and fuses each group; decides the plans with an
  /// uninstantiable reference (UnknownPolicy).
  void fuse();

  /// For each of some plans with policy set \p Set and events
  /// \p EventsOf, the distinct ways its events move the policies: the
  /// letters its fusion minimizes over.
  std::vector<std::vector<uint32_t>>
  letters(const std::vector<PolicyRef> &Set,
          const std::vector<std::vector<Event>> &EventsOf) const;

  /// The breadth-first lockstep exploration.
  void explore();

  /// The behaviour a session opened with \p Service starts from.
  const Expr *spawn(const Expr *Service);

  /// Plan \p P claims configuration \p Key: 1 when claimed now, 0 when
  /// claimed before, -1 when refused (MaxStates or the governor).
  int claim(uint32_t Key, unsigned P);

  /// Queues \p C for the owners \p Group[...] that claim it.
  void enqueue(const Config &C, uint32_t From, const net::Move &M,
               const std::vector<unsigned> &Group, bool IsRoot);

  void decide(unsigned P, PlanFailureKind Failure) {
    Runs[P].Decided = true;
    Results[P].Valid = Failure == PlanFailureKind::None;
    Results[P].Failure = Failure;
    Results[P].ExploredStates = Runs[P].Explored;
  }

  /// Decides every undecided plan of \p Owners whose governor charge
  /// tripped.
  void settleTrips(const std::vector<unsigned> &Owners);

  /// The monitor's reading of a logged history label.
  static HistoryStep resolve(const FusedPolicyAutomaton &F,
                             const net::LoggedLabel &L) {
    return L.Fired ? monitor::resolveLabel(F, *L.Fired)
                   : monitor::frameStep(F, *L.Policy, L.Opens);
  }

  /// The policy a violating step \p S names for plan \p P: ϕ for ⌊ϕ; for
  /// an event, of the active policies offending after it, the one P's
  /// behaviours mention first.
  const PolicyRef &violatedPolicy(unsigned P, HistoryStep S,
                                  const FusedPolicyAutomaton::Cursor &C,
                                  const FrameCounts &Fr) const;

  std::vector<std::string> traceTo(uint32_t I, const net::Move &Last) const;

  HistContext &Ctx;
  const Expr *Client;
  plan::Loc ClientLoc;
  std::span<const plan::Plan *const> Plans;
  const plan::Repository &Repo;
  const policy::PolicyRegistry &Registry;
  const StaticValidityOptions &Options;

  net::Semantics Rules;
  std::unordered_map<const Expr *, const Expr *> Regularized;
  std::vector<std::unique_ptr<Fusion>> Fusions;
  std::unordered_set<FrameCounts, FrameCountsHash> FrameSets;

  std::vector<PlanRun> Runs;
  std::vector<StaticValidityResult> Results;

  std::vector<Entry> Entries;
  std::vector<unsigned> Owners;
  std::unordered_map<Config, uint32_t, ConfigHash> Keys;
  /// Bit P of Claimed[K * Words ...]: plan P has claimed configuration K.
  std::vector<uint64_t> Claimed;
  size_t Words;
  /// A pass of several plans queues at most MaxStates configurations, as
  /// much as one plan may, and its plans share each fusion's product
  /// table. Past either bound it stops and leaves its undecided plans to
  /// passes of their own; a pass of one plan never stops.
  const bool Shared;
  bool Overflow = false;
};

const Expr *Pass::spawn(const Expr *Service) {
  if (!Options.Regularize)
    return Service;
  auto It = Regularized.find(Service);
  if (It == Regularized.end())
    It = Regularized.emplace(Service, regularizeFramings(Ctx, Service)).first;
  return It->second;
}

void Pass::fuse() {
  std::unordered_map<const Expr *, std::vector<PolicyRef>> RefsOf;
  auto RefsIn = [&](const Expr *B) -> const std::vector<PolicyRef> & {
    auto [It, New] = RefsOf.try_emplace(B);
    if (New)
      monitor::appendPolicyRefs(B, It->second);
    return It->second;
  };

  // Each plan's references in mention order, its behaviours, and its group
  // by policy set.
  std::vector<std::vector<PolicyRef>> Mentioned(Plans.size());
  std::vector<std::vector<const Expr *>> BehaviorsOf(Plans.size());
  std::map<std::vector<PolicyRef>, std::vector<unsigned>> ByPolicySet;
  std::vector<PolicyRef> Set;
  for (unsigned P = 0; P != Plans.size(); ++P) {
    std::vector<PolicyRef> &Refs = Mentioned[P];
    Refs = RefsIn(Client);
    BehaviorsOf[P] = {Client};
    for (const auto &[R, L] : Plans[P]->bindings()) {
      (void)R;
      if (const Expr *Service = Repo.find(L)) {
        const std::vector<PolicyRef> &More = RefsIn(Service);
        Refs.insert(Refs.end(), More.begin(), More.end());
        BehaviorsOf[P].push_back(Service);
      }
    }
    Set = Refs;
    std::sort(Set.begin(), Set.end());
    Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
    ByPolicySet[Set].push_back(P);
  }

  // A policy minimized over some events merges states that only the
  // others tell apart, so a plan fused beside plans with other events
  // would count configurations its own fusion identifies. Plans share a
  // fusion only when their events move the policies alike.
  for (const auto &[Refs, Group] : ByPolicySet) {
    std::vector<std::vector<uint32_t>> Letters(Group.size());
    if (Group.size() > 1) {
      std::vector<std::vector<Event>> EventsOf(Group.size());
      for (size_t K = 0; K != Group.size(); ++K)
        EventsOf[K] = policy::eventUniverse(BehaviorsOf[Group[K]]);
      Letters = letters(Refs, EventsOf);
    }
    std::map<std::vector<uint32_t>, Fusion *> ByLetters;
    for (size_t K = 0; K != Group.size(); ++K) {
      Fusion *&Fu = ByLetters[Letters[K]];
      if (!Fu) {
        Fusions.push_back(std::make_unique<Fusion>());
        Fu = Fusions.back().get();
      }
      const std::vector<const Expr *> &Behaviors = BehaviorsOf[Group[K]];
      Fu->Behaviors.insert(Fu->Behaviors.end(), Behaviors.begin(),
                           Behaviors.end());
      Runs[Group[K]].Fu = Fu;
    }
  }

  for (const std::unique_ptr<Fusion> &Fu : Fusions) {
    Fu->F = monitor::fuseBehaviors(Registry, Ctx.interner(),
                                   std::move(Fu->Behaviors));
    Fu->NoFrames = &*FrameSets.emplace(Fu->F).first;
  }

  for (size_t P = 0; P != Plans.size(); ++P) {
    const FusedPolicyAutomaton &F = Runs[P].Fu->F;
    std::vector<bool> Ordered(F.Policies.size(), false);
    for (const PolicyRef &Ref : Mentioned[P]) {
      // The fusion leaves out exactly the references it cannot instantiate.
      int Bit = F.policyBit(Ref);
      if (Bit < 0) {
        decide(P, PlanFailureKind::UnknownPolicy);
        Results[P].Policy = Ref;
        break;
      }
      if (!Ordered[Bit]) {
        Ordered[Bit] = true;
        Runs[P].MentionOrder.push_back(static_cast<unsigned>(Bit));
      }
    }
  }
}

std::vector<std::vector<uint32_t>>
Pass::letters(const std::vector<PolicyRef> &Set,
              const std::vector<std::vector<Event>> &EventsOf) const {
  std::vector<Event> Universe;
  for (const std::vector<Event> &Events : EventsOf)
    Universe.insert(Universe.end(), Events.begin(), Events.end());
  std::sort(Universe.begin(), Universe.end());
  Universe.erase(std::unique(Universe.begin(), Universe.end()),
                 Universe.end());

  std::vector<automata::Dfa> Parts;
  for (const PolicyRef &Ref : Set)
    if (std::optional<policy::PolicyInstance> Inst =
            Registry.instantiate(Ref, Ctx.interner(), nullptr))
      Parts.push_back(policy::compilePolicy(*Inst, Universe).Automaton);

  // An event's letter is how it moves every policy state reachable on the
  // group's events; plans whose events make the same letters reach the
  // same policy states and minimize them alike. An event that moves no
  // state changes neither, and has no letter (0).
  std::map<std::vector<automata::StateId>, uint32_t> Ids;
  std::vector<uint32_t> LetterOf(Universe.size(), 0);
  std::vector<automata::StateId> Column;
  for (size_t Code = 0; Code != Universe.size(); ++Code) {
    Column.clear();
    bool Moves = false;
    for (const automata::Dfa &D : Parts)
      for (automata::StateId S = 0; S != D.numStates(); ++S) {
        Column.push_back(D.step(S, static_cast<automata::SymbolCode>(Code)));
        Moves |= Column.back() != S;
      }
    if (Moves)
      LetterOf[Code] =
          Ids.try_emplace(Column, static_cast<uint32_t>(Ids.size() + 1))
              .first->second;
  }

  std::vector<std::vector<uint32_t>> Letters(EventsOf.size());
  for (size_t K = 0; K != EventsOf.size(); ++K) {
    std::vector<uint32_t> &Own = Letters[K];
    for (const Event &Ev : EventsOf[K]) {
      auto Code = std::lower_bound(Universe.begin(), Universe.end(), Ev) -
                  Universe.begin();
      if (LetterOf[Code])
        Own.push_back(LetterOf[Code]);
    }
    std::sort(Own.begin(), Own.end());
    Own.erase(std::unique(Own.begin(), Own.end()), Own.end());
  }
  return Letters;
}

const PolicyRef &Pass::violatedPolicy(unsigned P, HistoryStep S,
                                      const FusedPolicyAutomaton::Cursor &C,
                                      const FrameCounts &Fr) const {
  const FusedPolicyAutomaton &F = Runs[P].Fu->F;
  if (S.K == HistoryStep::Open)
    return F.Policies[S.Arg];
  assert(S.K == HistoryStep::Event && "only events and opens violate here");
  const monitor::PolicySet &Offending = *FusedPolicyAutomaton::offending(C);
  for (unsigned Bit : Runs[P].MentionOrder)
    if (monitor::testBit(Offending, Bit) && monitor::testBit(Fr.Active, Bit))
      return F.Policies[Bit];
  assert(false && "a violating event offends an active policy");
  return F.Policies.front();
}

std::vector<std::string> Pass::traceTo(uint32_t I,
                                       const net::Move &Last) const {
  std::vector<std::string> Trace;
  Trace.push_back(Last.str(Ctx.interner()));
  for (uint32_t S = I; Entries[S].M.Shown; S = Entries[S].From)
    Trace.push_back(Entries[S].M.str(Ctx.interner()));
  std::reverse(Trace.begin(), Trace.end());
  return Trace;
}

int Pass::claim(uint32_t Key, unsigned P) {
  uint64_t &Word = Claimed[Key * Words + P / 64];
  uint64_t Bit = uint64_t(1) << (P % 64);
  if (Word & Bit)
    return 0;
  PlanRun &Run = Runs[P];
  if (Run.Explored >= Options.MaxStates)
    return -1;
  if (Options.Governor) {
    if (std::optional<sus::ResourceExhausted> E = Options.Governor->charge(
            ResourceKind::ProductStates, Run.Explored + 1)) {
      Run.Trip = E;
      return -1;
    }
  }
  Word |= Bit;
  ++Run.Explored;
  return 1;
}

void Pass::enqueue(const Config &C, uint32_t From, const net::Move &M,
                   const std::vector<unsigned> &Group, bool IsRoot) {
  auto [It, New] = Keys.try_emplace(C, static_cast<uint32_t>(Keys.size()));
  if (New)
    Claimed.resize(Claimed.size() + Words, 0);
  auto Begin = static_cast<uint32_t>(Owners.size());
  for (unsigned P : Group) {
    int Claim = claim(It->second, P);
    if (Claim > 0)
      Owners.push_back(P);
    else if (Claim < 0 && !IsRoot)
      Runs[P].Exceeded = true;
  }
  if (Owners.size() == Begin)
    return;
  if (Shared && Entries.size() >= Options.MaxStates) {
    Overflow = true;
    return;
  }
  Entries.push_back({C, From, M, Begin, static_cast<uint32_t>(Owners.size())});
}

void Pass::settleTrips(const std::vector<unsigned> &Group) {
  for (unsigned P : Group)
    if (!Runs[P].Decided && Runs[P].Trip) {
      decide(P, PlanFailureKind::ResourceExhausted);
      Results[P].Exhausted = Runs[P].Trip;
    }
}

void Pass::explore() {
  // Configurations never outnumber MaxStates per plan, so in a pass of one
  // plan every product state reached fits in the fusion's table unless
  // some successor was already refused (StateSpaceExceeded).
  assert(Options.MaxStates <= monitor::MaxTableStates &&
         "the product table must hold every explored configuration");

  std::vector<unsigned> Live;
  // The client starts regularized, like every service it spawns.
  const net::SessionTree *Start = Rules.leaf(ClientLoc, spawn(Client));
  for (const std::unique_ptr<Fusion> &Fu : Fusions) {
    Live.clear();
    for (unsigned P = 0; P != Plans.size(); ++P)
      if (Runs[P].Fu == Fu.get() && !Runs[P].Decided)
        Live.push_back(P);
    enqueue({Start, Fu->F.start().At, Fu->NoFrames}, 0, net::Move(), Live,
            /*IsRoot=*/true);
    settleTrips(Live);
  }
  if (Overflow)
    return;

  std::vector<net::Move> Moves;
  std::vector<net::LoggedLabel> Log;
  FrameCounts Frames = *Fusions.front()->NoFrames;
  // Per Open: the locations its owners bind, and each owner's group.
  std::vector<plan::Loc> Bound;
  std::vector<const Expr *> Services;
  std::vector<unsigned> GroupOf, Group;
  // Breadth first: configurations are explored in the order interned.
  for (uint32_t I = 0; I != Entries.size(); ++I) {
    Live.clear();
    for (uint32_t K = Entries[I].OwnBegin; K != Entries[I].OwnEnd; ++K)
      if (!Runs[Owners[K]].Decided)
        Live.push_back(Owners[K]);
    if (Live.empty())
      continue;
    if (Options.Governor) {
      if (std::optional<sus::ResourceExhausted> E = Options.Governor->poll()) {
        for (unsigned P = 0; P != Plans.size(); ++P)
          if (!Runs[P].Decided) {
            decide(P, PlanFailureKind::ResourceExhausted);
            Results[P].Exhausted = E;
          }
        return;
      }
    }
    const Config From = Entries[I].C;
    const FusedPolicyAutomaton &F = Runs[Live.front()].Fu->F;

    Moves.clear();
    Log.clear();
    Rules.moves(From.Tree, /*B=*/nullptr, Moves, Log);

    if (Moves.empty() && !From.Tree->isTerminated())
      for (unsigned P : Live)
        Results[P].HasStuckConfiguration = true;

    for (const net::Move &M : Moves) {
      std::erase_if(Live, [&](unsigned P) { return Runs[P].Decided; });
      if (Live.empty() || Overflow)
        break;

      // Rule Open binds through each owner's plan; an owner whose plan
      // leaves a gap fails here.
      Bound.clear();
      Services.clear();
      GroupOf.assign(Live.size(), 0);
      if (M.K == net::Move::Kind::Open) {
        hist::RequestId R = M.Shown->request();
        for (size_t K = 0; K != Live.size(); ++K) {
          unsigned P = Live[K];
          std::optional<plan::Loc> L = Plans[P]->lookup(R);
          const Expr *Service = L ? Repo.find(*L) : nullptr;
          if (!Service) {
            decide(P, L ? PlanFailureKind::UnknownService
                        : PlanFailureKind::UnboundRequest);
            Results[P].Request = R;
            Results[P].Trace = traceTo(I, M);
            continue;
          }
          auto Known = std::find(Bound.begin(), Bound.end(), *L);
          GroupOf[K] = static_cast<unsigned>(Known - Bound.begin());
          if (Known == Bound.end()) {
            Bound.push_back(*L);
            Services.push_back(Service);
          }
        }
        // Drop the gap owners from Live and GroupOf alike.
        size_t Kept = 0;
        for (size_t K = 0; K != Live.size(); ++K)
          if (!Runs[Live[K]].Decided) {
            Live[Kept] = Live[K];
            GroupOf[Kept++] = GroupOf[K];
          }
        Live.resize(Kept);
        if (Live.empty())
          continue;
      }

      // The logged labels do not depend on the binding, and every owner
      // stands on the same product state: step the monitor once.
      FusedPolicyAutomaton::Cursor C;
      C.At = From.Monitor;
      const FrameCounts *Next = From.Frames;
      if (M.LogBegin != M.LogEnd) {
        Frames = *From.Frames;
        bool Framed = false;
        bool Violates = false;
        HistoryStep S;
        for (uint32_t K = M.LogBegin; K != M.LogEnd && !Violates; ++K) {
          S = resolve(F, Log[K]);
          if (S.K == HistoryStep::Skip)
            continue;
          Framed |= S.K != HistoryStep::Event;
          Violates = monitor::takeStep(F, C, Frames, S);
        }
        if (Violates) {
          std::vector<std::string> Trace = traceTo(I, M);
          for (unsigned P : Live) {
            decide(P, PlanFailureKind::PolicyViolation);
            Results[P].Policy = violatedPolicy(P, S, C, Frames);
            Results[P].Trace = Trace;
          }
          continue;
        }
        if (Framed)
          Next = &*FrameSets.insert(Frames).first;
      }

      // Off the table: in a pass of one plan only once a successor was
      // refused.
      if (!C.At) {
        Overflow = Shared;
        for (unsigned P : Live)
          Runs[P].Exceeded = true;
        continue;
      }
      if (M.K != net::Move::Kind::Open) {
        enqueue({M.Next, C.At, Next}, I, M, Live, /*IsRoot=*/false);
      } else {
        for (unsigned G = 0; G != Bound.size(); ++G) {
          Group.clear();
          for (size_t K = 0; K != Live.size(); ++K)
            if (GroupOf[K] == G)
              Group.push_back(Live[K]);
          if (Group.empty())
            continue;
          net::Move Bind = M;
          Bind.Partner = Bound[G];
          Bind.Next =
              Rules.fill(M.Next, Rules.leaf(Bound[G], spawn(Services[G])));
          enqueue({Bind.Next, C.At, Next}, I, Bind, Group, /*IsRoot=*/false);
        }
      }
    }
    if (Overflow)
      return;
    settleTrips(Live);
  }
}

std::vector<StaticValidityResult>
Pass::run(std::vector<unsigned> &Undecided) {
  if (Plans.empty())
    return {};
  fuse();
  explore();
  // What a plan decided before an overflow it decided as it would alone.
  for (unsigned P = 0; P != Plans.size(); ++P) {
    if (Runs[P].Decided)
      continue;
    if (Overflow)
      Undecided.push_back(P);
    else
      decide(P, Runs[P].Exceeded ? PlanFailureKind::StateSpaceExceeded
                                 : PlanFailureKind::None);
  }
  return std::move(Results);
}

} // namespace

std::vector<StaticValidityResult> sus::validity::checkClientPlans(
    HistContext &Ctx, const Expr *Client, plan::Loc ClientLoc,
    std::span<const plan::Plan *const> Plans, const plan::Repository &Repo,
    const policy::PolicyRegistry &Registry,
    const StaticValidityOptions &Options) {
  trace::Span Span("validity.static", "pipeline");
  std::vector<StaticValidityResult> Results;
  std::vector<unsigned> Undecided;
  size_t Configurations;
  {
    Pass Checker(Ctx, Client, ClientLoc, Plans, Repo, Registry, Options);
    Results = Checker.run(Undecided);
    Configurations = Checker.configurations();
  }
  // The shared pass is released: each plan it left undecided is checked
  // in a pass of its own, which never overflows.
  for (unsigned P : Undecided) {
    Pass Alone(Ctx, Client, ClientLoc, Plans.subspan(P, 1), Repo, Registry,
               Options);
    std::vector<unsigned> None;
    Results[P] = std::move(Alone.run(None).front());
    Configurations += Alone.configurations();
  }
  size_t Valid = 0;
  std::optional<sus::ResourceExhausted> Trip;
  for (const StaticValidityResult &R : Results) {
    Valid += R.Valid;
    if (R.Failure == PlanFailureKind::ResourceExhausted && !Trip)
      Trip = R.Exhausted;
  }
  if (Trip)
    Span.tag("governor",
             Trip->deadlineLike() ? "deadline_exceeded" : "budget_exceeded");
  else
    Span.tag("verdict", Valid == Results.size() ? "valid"
                        : Valid == 0            ? "invalid"
                                                : "mixed");
  Span.count("states", static_cast<int64_t>(Configurations));
  static metrics::Counter &Checks = metrics::counter("validity.checks");
  Checks.add(Plans.size());
  return Results;
}

StaticValidityResult sus::validity::checkPlanValidity(
    HistContext &Ctx, const Expr *Client, plan::Loc ClientLoc,
    const plan::Plan &P, const plan::Repository &Repo,
    const policy::PolicyRegistry &Registry,
    const StaticValidityOptions &Options) {
  const plan::Plan *One = &P;
  return checkClientPlans(Ctx, Client, ClientLoc, {&One, 1}, Repo, Registry,
                          Options)
      .front();
}
