//===- tests/MonitorDiffTest.cpp - fused vs legacy monitor sweeps ---------===//
///
/// \file
/// Differential tests for the lazily fused runtime monitor: on ~100 seeded
/// random policy sets and traces, the fused SessionMonitor must make
/// bit-for-bit the same blocked/allowed decisions as the legacy
/// policy::ValidityChecker probe — per label, per multi-label probe, and
/// through the MonitorEngine's sharded batch path — including sessions
/// past a governor-capped transition table, policy sets far wider than
/// one 64-bit word, colliding cache fingerprints, and net::Interpreter end
/// to end on the paper's hotel example. The monitor never falls back to
/// the legacy checker; these tests prove it never needs to. Seeds are
/// fixed; nothing depends on wall-clock or the iteration order of
/// unordered containers.
///
//===----------------------------------------------------------------------===//

#include "core/HotelExample.h"
#include "monitor/Fused.h"
#include "monitor/MonitorEngine.h"
#include "monitor/SessionMonitor.h"
#include "net/Interpreter.h"
#include "policy/Compile.h"
#include "policy/Validity.h"
#include "support/HashUtil.h"
#include "support/ResourceGovernor.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace sus;
using hist::Event;
using hist::Label;
using hist::PolicyRef;

namespace {

/// One randomly generated monitoring scenario: a registry of parametric
/// shapes, a set of instantiated references (plus an uninstantiable ghost
/// and the trivial ∅), a closed event universe, and a trace drawn from it.
struct Scenario {
  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  std::vector<PolicyRef> Refs;     ///< Instantiable, non-trivial.
  std::vector<PolicyRef> OpenPool; ///< Refs + ghost + trivial (for frames).
  std::vector<Event> Universe;
  std::vector<Label> Trace;
};

policy::Guard randomGuard(std::mt19937_64 &Rng) {
  auto Op = static_cast<policy::CmpOp>(Rng() % 6);
  switch (Rng() % 4) {
  case 0:
    return policy::Guard::always();
  case 1:
    return policy::Guard::cmpParam(Op, 0);
  default:
    return policy::Guard::cmpConst(
        Op, Value::integer(static_cast<int64_t>(1 + Rng() % 3)));
  }
}

/// A random (possibly nondeterministic) shape with one scalar parameter.
policy::UsageAutomaton randomShape(std::mt19937_64 &Rng, Symbol Name,
                                   Symbol ParamName,
                                   const std::vector<Symbol> &EventNames) {
  policy::UsageAutomaton A(Name, {{ParamName, /*IsSet=*/false}});
  unsigned NumStates = 2 + Rng() % 3;
  for (unsigned I = 0; I < NumStates; ++I)
    A.addState("q" + std::to_string(I),
               /*Offending=*/I + 1 == NumStates); // Last state offends.
  unsigned NumEdges = 2 + Rng() % 5;
  for (unsigned I = 0; I < NumEdges; ++I) {
    auto From = static_cast<policy::UStateId>(Rng() % NumStates);
    auto To = static_cast<policy::UStateId>(Rng() % NumStates);
    if (Rng() % 5 == 0)
      A.addWildcardEdge(From, To);
    else
      A.addEdge(From, EventNames[Rng() % EventNames.size()],
                randomGuard(Rng), To);
  }
  return A;
}

/// Heap-allocated because HistContext pins its address (arena + interner).
std::unique_ptr<Scenario> makeScenario(uint64_t Seed, size_t TraceLen = 60) {
  auto SP = std::make_unique<Scenario>();
  Scenario &S = *SP;
  std::mt19937_64 Rng(Seed);
  StringInterner &In = S.Ctx.interner();

  std::vector<Symbol> EventNames;
  for (const char *N : {"a", "b", "c", "d"})
    EventNames.push_back(In.intern(N));
  Symbol ParamName = In.intern("t");

  unsigned NumShapes = 1 + Rng() % 4;
  for (unsigned I = 0; I < NumShapes; ++I) {
    Symbol Name = In.intern("phi" + std::to_string(I));
    S.Registry.add(randomShape(Rng, Name, ParamName, EventNames));
    unsigned NumInsts = 1 + Rng() % 2;
    for (unsigned K = 0; K < NumInsts; ++K)
      S.Refs.push_back(
          {Name, {{Value::integer(static_cast<int64_t>(1 + Rng() % 3))}}});
  }

  for (Symbol N : EventNames)
    for (int64_t V = 1; V <= 3; ++V)
      S.Universe.push_back({N, Value::integer(V)});

  S.OpenPool = S.Refs;
  // An uninstantiable reference (no such shape): opening it violates.
  S.OpenPool.push_back({In.intern("ghost"), {{Value::integer(1)}}});
  // The trivial policy ∅: framing it constrains nothing.
  S.OpenPool.push_back(PolicyRef{});

  for (size_t I = 0; I < TraceLen; ++I) {
    unsigned R = Rng() % 100;
    if (R < 60)
      S.Trace.push_back(
          Label::event(S.Universe[Rng() % S.Universe.size()]));
    else if (R < 80)
      S.Trace.push_back(
          Label::frameOpen(S.OpenPool[Rng() % S.OpenPool.size()]));
    else
      S.Trace.push_back(
          Label::frameClose(S.OpenPool[Rng() % S.OpenPool.size()]));
  }
  return SP;
}

class MonitorDiffTest : public ::testing::TestWithParam<int> {};

} // namespace

//===----------------------------------------------------------------------===//
// SessionMonitor vs ValidityChecker, label by label and probe by probe
//===----------------------------------------------------------------------===//

TEST_P(MonitorDiffTest, FusedMatchesLegacyProbe) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  std::unique_ptr<Scenario> SP = makeScenario(Seed);
  Scenario &S = *SP;

  Outcome<monitor::FusedPolicyAutomaton> Out = monitor::fusePolicies(
      S.Registry, S.Ctx.interner(), S.Refs, S.Universe);
  ASSERT_TRUE(Out.ok()) << Out.exhausted().str();
  monitor::FusedPolicyAutomaton F = Out.takeValue();

  monitor::SessionMonitor Fused(F);
  policy::ValidityChecker Legacy(S.Registry, S.Ctx.interner());

  std::mt19937_64 ChunkRng(Seed ^ 0x9e3779b97f4a7c15ull);
  size_t I = 0;
  while (I < S.Trace.size()) {
    size_t ChunkLen =
        std::min<size_t>(1 + ChunkRng() % 3, S.Trace.size() - I);
    std::vector<Label> Chunk(S.Trace.begin() + I,
                             S.Trace.begin() + I + ChunkLen);

    // The multi-label probe the Interpreter runs per candidate step.
    EXPECT_EQ(Legacy.wouldRemainValidAll(Chunk), Fused.wouldAdmitAll(Chunk))
        << "seed " << Seed << " probe at " << I;

    for (const Label &L : Chunk) {
      EXPECT_EQ(Legacy.wouldRemainValid(L), Fused.wouldAdmit(L))
          << "seed " << Seed << " wouldAdmit at " << I;
      EXPECT_EQ(Legacy.append(L), Fused.advance(L))
          << "seed " << Seed << " advance at " << I;
      EXPECT_EQ(Legacy.isValid(), !Fused.isViolated())
          << "seed " << Seed << " violation latch at " << I;
      ++I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, MonitorDiffTest,
                         ::testing::Range(0, 100));

//===----------------------------------------------------------------------===//
// Past the table bound: a 1-2 state budget, sessions still decide exactly
//===----------------------------------------------------------------------===//

TEST(MonitorGovernorTest, SessionsPastTableBoundMatchLegacy) {
  unsigned PastBound = 0;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    for (uint64_t Budget : {1u, 2u}) {
      std::unique_ptr<Scenario> SP = makeScenario(Seed);
      Scenario &S = *SP;

      ResourceGovernor Gov;
      Gov.setLimit(ResourceKind::ProductStates, Budget);
      monitor::FusedCache Cache;
      monitor::MonitorEngine::Options EO;
      EO.Gov = &Gov;
      EO.Cache = &Cache;
      monitor::MonitorEngine Engine(S.Registry, S.Ctx.interner(), EO);
      monitor::MonitorEngine::SessionId Id =
          Engine.openSession(S.Refs, S.Universe);
      monitor::FuseOptions FO;
      FO.Gov = &Gov;
      std::shared_ptr<const monitor::FusedPolicyAutomaton> Bounded =
          Cache.fuse(S.Registry, S.Ctx.interner(), S.Refs, S.Universe, FO);
      EXPECT_EQ(Cache.stats().Hits, 1u);
      EXPECT_EQ(Cache.stats().Refusals, 0u);

      // The same cache answers an ungoverned request with a fusion of its
      // own. Walked over the same labels it tables every state the trace
      // reaches; more than Budget of them means the bounded session had
      // to step off the table (and that the budget was not inherited).
      std::shared_ptr<const monitor::FusedPolicyAutomaton> FreeFusion =
          Cache.fuse(S.Registry, S.Ctx.interner(), S.Refs, S.Universe);
      ASSERT_NE(FreeFusion.get(), Bounded.get());
      const monitor::FusedPolicyAutomaton &Free = *FreeFusion;
      monitor::SessionMonitor FreeMonitor(Free);

      policy::ValidityChecker Legacy(S.Registry, S.Ctx.interner());
      for (size_t I = 0; I < S.Trace.size(); ++I) {
        const Label &L = S.Trace[I];
        EXPECT_EQ(Engine.wouldAdmit(Id, L), Legacy.wouldRemainValid(L))
            << "seed " << Seed << " budget " << Budget << " at " << I;
        EXPECT_EQ(Engine.advance(Id, L), Legacy.append(L))
            << "seed " << Seed << " budget " << Budget << " at " << I;
        FreeMonitor.advance(L);
      }
      EXPECT_EQ(Engine.isViolated(Id), !Legacy.isValid());
      EXPECT_LE(Bounded->numStates(), Budget);
      if (Free.numStates() > Budget)
        ++PastBound;
    }
  }
  // The sweep must really leave the table, or it proves nothing (19 of
  // the 40 runs do; the others' traces reach at most Budget states).
  EXPECT_GE(PastBound, 10u);
}

TEST(MonitorGovernorTest, WidePolicySetsFuseAndMatchLegacy) {
  for (int64_t Width : {40, 100}) {
    for (uint64_t Seed = 0; Seed < 5; ++Seed) {
      hist::HistContext Ctx;
      StringInterner &In = Ctx.interner();
      policy::PolicyRegistry Registry;
      Symbol E = In.intern("e");
      Symbol Reset = In.intern("f");
      // p(t): two e(t) with no f between them offend.
      policy::UsageAutomaton Shape(In.intern("p"), {{In.intern("t"), false}});
      Shape.addState("ok");
      Shape.addState("seen");
      Shape.addState("bad", /*Offending=*/true);
      Shape.addEdge(0, E, policy::Guard::cmpParam(policy::CmpOp::EQ, 0), 1);
      Shape.addEdge(1, E, policy::Guard::cmpParam(policy::CmpOp::EQ, 0), 2);
      Shape.addEdge(1, Reset, policy::Guard::always(), 0);
      Registry.add(Shape);

      std::vector<PolicyRef> Refs;
      std::vector<Event> Universe{{Reset, Value::integer(0)}};
      for (int64_t I = 0; I < Width; ++I) {
        Refs.push_back({In.intern("p"), {{Value::integer(I)}}});
        Universe.push_back({E, Value::integer(I)});
      }

      monitor::FusedCache Cache;
      monitor::MonitorEngine::Options EO;
      EO.Cache = &Cache;
      monitor::MonitorEngine Engine(Registry, In, EO);
      monitor::MonitorEngine::SessionId Id = Engine.openSession(Refs, Universe);
      EXPECT_EQ(Cache.stats().Refusals, 0u);
      EXPECT_EQ(Cache.fuse(Registry, In, Refs, Universe)->Policies.size(),
                static_cast<size_t>(Width));
      policy::ValidityChecker Legacy(Registry, In);

      auto Check = [&](const Label &L, size_t At) {
        EXPECT_EQ(Engine.wouldAdmit(Id, L), Legacy.wouldRemainValid(L))
            << "width " << Width << " seed " << Seed << " at " << At;
        EXPECT_EQ(Engine.advance(Id, L), Legacy.append(L))
            << "width " << Width << " seed " << Seed << " at " << At;
      };

      // The highest bit blocks: with p(W-1) framed and e(W-1) seen once,
      // a second e(W-1) is refused (probed, not fired), then f resets.
      Label Last = Label::event({E, Value::integer(Width - 1)});
      Check(Label::frameOpen(Refs.back()), 0);
      Check(Last, 1);
      EXPECT_FALSE(Engine.wouldAdmit(Id, Last));
      EXPECT_FALSE(Legacy.wouldRemainValid(Last));
      Check(Label::event(Universe.front()), 2);

      std::mt19937_64 Rng(Seed * 977 + static_cast<uint64_t>(Width));
      for (size_t I = 3; I < 400; ++I) {
        unsigned R = Rng() % 100;
        const PolicyRef &Ref = Refs[Rng() % Refs.size()];
        Label L = R < 70 ? Label::event(Universe[Rng() % Universe.size()])
                         : (R < 85 ? Label::frameOpen(Ref)
                                   : Label::frameClose(Ref));
        Check(L, I);
      }
      EXPECT_EQ(Engine.isViolated(Id), !Legacy.isValid());
    }
  }
}

//===----------------------------------------------------------------------===//
// MonitorEngine: sharded batches decide exactly like sequential ones
//===----------------------------------------------------------------------===//

TEST(MonitorEngineTest, ShardedIngestMatchesSequentialAndLegacy) {
  std::unique_ptr<Scenario> SP = makeScenario(/*Seed=*/11, /*TraceLen=*/0);
  Scenario &S = *SP;
  std::mt19937_64 Rng(11);

  monitor::FusedCache ShardedCache;
  monitor::MonitorEngine::Options Wide;
  Wide.Workers = 4;
  Wide.Cache = &ShardedCache;
  monitor::MonitorEngine Sharded(S.Registry, S.Ctx.interner(), Wide);
  monitor::MonitorEngine Sequential(S.Registry, S.Ctx.interner());
  std::vector<policy::ValidityChecker> Legacy;

  constexpr unsigned NumSessions = 8;
  for (unsigned I = 0; I < NumSessions; ++I) {
    EXPECT_EQ(Sharded.openSession(S.Refs, S.Universe), I);
    EXPECT_EQ(Sequential.openSession(S.Refs, S.Universe), I);
    Legacy.emplace_back(S.Registry, S.Ctx.interner());
  }
  // The shared table starts cold: only the start state is tabled, so the
  // first events of all four shards miss at once.
  std::shared_ptr<const monitor::FusedPolicyAutomaton> Fused =
      ShardedCache.fuse(S.Registry, S.Ctx.interner(), S.Refs, S.Universe);
  ASSERT_EQ(Fused->numStates(), 1u);

  // One batch of interleaved per-session labels; decisions must agree
  // item-for-item across shard widths and with per-session legacy runs.
  std::vector<monitor::MonitorEngine::BatchItem> Batch;
  for (unsigned I = 0; I < 600; ++I) {
    auto Session =
        static_cast<monitor::MonitorEngine::SessionId>(Rng() % NumSessions);
    unsigned R = Rng() % 100;
    Label L = R < 60
                  ? Label::event(S.Universe[Rng() % S.Universe.size()])
                  : (R < 80 ? Label::frameOpen(
                                  S.OpenPool[Rng() % S.OpenPool.size()])
                            : Label::frameClose(
                                  S.OpenPool[Rng() % S.OpenPool.size()]));
    Batch.push_back({Session, L});
  }

  std::vector<uint8_t> ShardedDecisions, SequentialDecisions;
  Sharded.ingest(Batch, &ShardedDecisions);
  Sequential.ingest(Batch, &SequentialDecisions);
  EXPECT_EQ(ShardedDecisions, SequentialDecisions);
  EXPECT_GT(Fused->numStates(), 1u);

  std::vector<uint8_t> LegacyDecisions(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    LegacyDecisions[I] = Legacy[Batch[I].Session].append(Batch[I].L) ? 1 : 0;
  EXPECT_EQ(ShardedDecisions, LegacyDecisions);

  for (unsigned I = 0; I < NumSessions; ++I) {
    EXPECT_EQ(Sharded.isViolated(I), Sequential.isViolated(I));
    EXPECT_EQ(Sharded.isViolated(I), !Legacy[I].isValid());
  }
  EXPECT_EQ(Sharded.stats().Events, Batch.size());
}

TEST(MonitorEngineTest, CacheSharesFusionsAcrossSessions) {
  std::unique_ptr<Scenario> SP = makeScenario(/*Seed=*/13, /*TraceLen=*/0);
  Scenario &S = *SP;
  monitor::FusedCache Cache;
  monitor::MonitorEngine::Options EO;
  EO.Cache = &Cache;
  monitor::MonitorEngine Engine(S.Registry, S.Ctx.interner(), EO);
  for (unsigned I = 0; I < 5; ++I)
    Engine.openSession(S.Refs, S.Universe);
  EXPECT_EQ(Cache.stats().Fusions, 1u);
  EXPECT_EQ(Cache.stats().Hits, 4u);

  // Permuting the request reaches the same canonical entry.
  std::vector<PolicyRef> Reversed(S.Refs.rbegin(), S.Refs.rend());
  Engine.openSession(Reversed, S.Universe);
  EXPECT_EQ(Cache.stats().Fusions, 1u);
  EXPECT_EQ(Cache.stats().Hits, 5u);
}

TEST(MonitorEngineTest, ConcurrentMissesPublishWholeStates) {
  // Counters mod 2, 3, 5, 7 and 11 over their own events; each offends
  // only on b(t) fired at its last count, so minimization keeps every
  // count and the product has 2310 reachable states: misses keep landing
  // while other shards read the table. Under TSan this catches a
  // successor published without release/acquire ordering.
  hist::HistContext Ctx;
  StringInterner &In = Ctx.interner();
  policy::PolicyRegistry Registry;
  Symbol B = In.intern("b");
  std::vector<PolicyRef> Refs;
  std::vector<Event> Universe{{B, Value::integer(0)}, {B, Value::integer(1)}};
  for (unsigned K : {2u, 3u, 5u, 7u, 11u}) {
    Symbol A = In.intern("a" + std::to_string(K));
    policy::UsageAutomaton Shape(In.intern("c" + std::to_string(K)),
                                 {{In.intern("t"), false}});
    for (unsigned Q = 0; Q < K; ++Q)
      Shape.addState("q" + std::to_string(Q));
    Shape.addState("bad", /*Offending=*/true);
    for (unsigned Q = 0; Q < K; ++Q)
      Shape.addEdge(Q, A, policy::Guard::always(), (Q + 1) % K);
    Shape.addEdge(K - 1, B, policy::Guard::cmpParam(policy::CmpOp::EQ, 0), K);
    Registry.add(Shape);
    Refs.push_back({Shape.name(), {{Value::integer(K % 2)}}});
    Universe.push_back({A, Value::integer(0)});
  }

  monitor::MonitorEngine::Options Wide;
  Wide.Workers = 4;
  monitor::MonitorEngine Sharded(Registry, In, Wide);
  monitor::MonitorEngine Sequential(Registry, In);
  constexpr unsigned NumSessions = 64;
  for (unsigned I = 0; I < NumSessions; ++I) {
    Sharded.openSession(Refs, Universe);
    Sequential.openSession(Refs, Universe);
  }
  std::mt19937_64 Rng(29);
  std::vector<monitor::MonitorEngine::BatchItem> Batch;
  for (unsigned I = 0; I < 40000; ++I)
    Batch.push_back(
        {static_cast<monitor::MonitorEngine::SessionId>(Rng() % NumSessions),
         Label::event(Universe[Rng() % Universe.size()])});
  std::vector<uint8_t> ShardedDecisions, SequentialDecisions;
  Sharded.ingest(Batch, &ShardedDecisions);
  Sequential.ingest(Batch, &SequentialDecisions);
  EXPECT_EQ(ShardedDecisions, SequentialDecisions);
}

namespace {

/// The V with hashCombine(Seed, V) == Target: hashCombine is invertible
/// in its last argument.
size_t invertHashCombine(size_t Seed, size_t Target) {
  return (Target ^ Seed) - 0x9e3779b97f4a7c15ULL - (Seed << 6) - (Seed >> 2);
}

} // namespace

TEST(MonitorEngineTest, FingerprintCollisionGetsItsOwnFusion) {
  hist::HistContext Ctx;
  StringInterner &In = Ctx.interner();
  policy::PolicyRegistry Registry;
  Symbol E = In.intern("e");
  for (const char *Name : {"m0", "m1"}) {
    policy::UsageAutomaton Shape(In.intern(Name), {{In.intern("t"), false}});
    Shape.addState("ok");
    Shape.addState("bad", /*Offending=*/true);
    Shape.addEdge(0, E, policy::Guard::cmpParam(policy::CmpOp::EQ, 0), 1);
    Registry.add(Shape);
  }
  std::vector<Event> Universe{{E, Value::integer(1)}};
  PolicyRef Victim{In.intern("m0"), {{Value::integer(3)}}};

  // Solve m1(X).hash() == m0(3).hash() backwards through PolicyRef::hash
  // and Value::hash; symbol ids depend on interning order, so X is
  // computed, not written down.
  size_t NameSeed = hashAll(In.intern("m1").id());
  hashCombine(NameSeed, 1); // The one argument's size.
  size_t ValueHash = invertHashCombine(NameSeed, Victim.hash());
  size_t KindSeed = static_cast<size_t>(Value::Kind::Int);
  auto X = static_cast<int64_t>(
      invertHashCombine(KindSeed, ValueHash)); // std::hash<int64_t> is id.
  PolicyRef Collider{In.intern("m1"), {{Value::integer(X)}}};
  ASSERT_EQ(monitor::policySetFingerprint({Collider}, Universe),
            monitor::policySetFingerprint({Victim}, Universe));

  monitor::FusedCache Cache;
  monitor::MonitorEngine::Options EO;
  EO.Cache = &Cache;
  monitor::MonitorEngine Engine(Registry, In, EO);
  monitor::MonitorEngine::SessionId First =
      Engine.openSession({Victim}, Universe);
  monitor::MonitorEngine::SessionId Second =
      Engine.openSession({Collider}, Universe);
  EXPECT_EQ(Cache.stats().Fusions, 2u);

  policy::ValidityChecker Legacy(Registry, In);
  for (const Label &L :
       {Label::frameOpen(Collider), Label::event(Universe.front()),
        Label::frameClose(Collider)})
    EXPECT_EQ(Engine.advance(Second, L), Legacy.append(L)) << L.str(In);
  EXPECT_FALSE(Engine.isViolated(First));
}

//===----------------------------------------------------------------------===//
// End to end: every Blocked mark the Interpreter offers is the probe's
//===----------------------------------------------------------------------===//

TEST(MonitorInterpreterTest, FusedRunsMatchProbeRuns) {
  hist::HistContext Ctx;
  core::HotelExample H = core::makeHotelExample(Ctx);

  // The legacy checker's verdict on a component's whole history.
  auto Replay = [&](const policy::History &Eta,
                    policy::ValidityChecker &Checker) {
    for (const Label &L : Eta.items())
      Checker.append(L);
  };

  // pi1/pi2Valid complete cleanly; pi3 exercises angelic blocking (S3 is
  // black-listed by C2's policy) and, with the monitor off, a violation.
  std::vector<std::vector<net::NetworkComponent>> Networks = {
      {{H.LC1, H.C1, H.pi1()}, {H.LC2, H.C2, H.pi2Valid()}},
      {{H.LC2, H.C2, H.pi3()}},
  };
  size_t Probed = 0, Blocked = 0, Violations = 0;
  for (bool Monitor : {true, false}) {
    for (const auto &Comps : Networks) {
      for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
        net::InterpreterOptions Opts;
        Opts.MonitorEnabled = Monitor;
        net::Interpreter I(Ctx, H.Repo, H.Registry, Comps, Opts);
        std::mt19937_64 Rng(Seed);
        for (size_t N = 0; N < 256; ++N) {
          std::vector<net::Step> Steps = I.steps();
          std::vector<const net::Step *> Applicable;
          for (const net::Step &S : Steps) {
            if (Monitor && !S.PlanGap && !S.HistoryAppend.empty()) {
              policy::ValidityChecker Checker(H.Registry, Ctx.interner());
              Replay(I.history(S.Component), Checker);
              EXPECT_EQ(S.Blocked,
                        !Checker.wouldRemainValidAll(S.HistoryAppend))
                  << "seed " << Seed << ": " << S.Desc;
              ++Probed;
              Blocked += S.Blocked ? 1 : 0;
            }
            if (!S.PlanGap && !S.CapacityBlocked && !(Monitor && S.Blocked))
              Applicable.push_back(&S);
          }
          if (Applicable.empty())
            break;
          ASSERT_TRUE(I.apply(*Applicable[Rng() % Applicable.size()]));
          for (size_t C = 0; C < Comps.size(); ++C) {
            policy::ValidityChecker Checker(H.Registry, Ctx.interner());
            Replay(I.history(C), Checker);
            EXPECT_EQ(I.isViolated(C), !Checker.isValid())
                << "seed " << Seed << " component " << C;
          }
        }
        for (size_t C = 0; C < Comps.size(); ++C)
          Violations += I.isViolated(C) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(Probed, 0u);
  EXPECT_GT(Blocked, 0u);
  EXPECT_GT(Violations, 0u);
}
