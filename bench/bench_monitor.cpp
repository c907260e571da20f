//===- bench/bench_monitor.cpp - B8: fused-DFA monitor engine -------------===//
///
/// \file
/// Experiment B8 (DESIGN.md §9): per-event admission throughput of the
/// lazily fused runtime monitor against the legacy per-policy probe, plus
/// fusion cost, cache-hit cost, and sharded batch ingestion through the
/// MonitorEngine (with a p99 batch-latency counter) for a narrow and a
/// wide policy set.
///
/// The narrow workload is a fixed session shape: 4 parametric policy
/// shapes, each instantiated twice (8 fused policies), over a 24-event
/// closed universe; the wide one instantiates 16 shapes four times (64
/// policies, one full PolicySet word). Offending edges are gated
/// on an event value the trace never fires, so monitors churn state on
/// every label but never latch a violation — the same batch can be
/// re-ingested indefinitely and neither side ever takes the trivial
/// "already violated" early-out.
///
//===----------------------------------------------------------------------===//

#include "MetricsOut.h"
#include "hist/HistContext.h"
#include "monitor/Fused.h"
#include "monitor/MonitorEngine.h"
#include "monitor/SessionMonitor.h"
#include "policy/Validity.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace sus;
using hist::Event;
using hist::Label;
using hist::PolicyRef;

namespace {

/// The shared benchmark scenario. Heap-allocated once (HistContext pins
/// its address) and reused by every benchmark.
struct Workload {
  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  std::vector<PolicyRef> Refs;
  std::vector<Event> Universe;
  std::vector<Label> FrameOpens; ///< One frame per ref, fired at t=0.
  std::vector<Label> Events;     ///< Violation-free event stream.
  std::vector<Label> Trace;      ///< FrameOpens ++ Events.
};

/// Shape i: a 4-state churn cycle over events e(2i), e(2i+1) with a
/// nondeterministic shortcut and a wildcard reset. The only edges into
/// the offending state require event value 3; the trace fires values
/// 1 and 2 only, so the monitor steps on every event yet never offends.
policy::UsageAutomaton makeShape(StringInterner &In, unsigned I,
                                 const std::vector<Symbol> &Names) {
  policy::UsageAutomaton A(In.intern("phi" + std::to_string(I)),
                           {{In.intern("t"), /*IsSet=*/false}});
  for (unsigned Q = 0; Q < 4; ++Q)
    A.addState("q" + std::to_string(Q), /*Offending=*/Q == 3);
  Symbol EvA = Names[(2 * I) % Names.size()];
  Symbol EvB = Names[(2 * I + 1) % Names.size()];
  Symbol EvC = Names[(2 * I + 3) % Names.size()];
  using policy::CmpOp;
  using policy::Guard;
  A.addEdge(0, EvA, Guard::cmpParam(CmpOp::LE, 0), 1);
  A.addEdge(1, EvB, Guard::cmpConst(CmpOp::LE, Value::integer(2)), 2);
  A.addEdge(0, EvC, Guard::always(), 2); // Nondeterministic shortcut.
  A.addWildcardEdge(2, 0);               // Reset churn.
  // Offending is reachable only on value 3 — never fired by the trace.
  A.addEdge(2, EvA, Guard::cmpConst(CmpOp::EQ, Value::integer(3)), 3);
  A.addEdge(1, EvB, Guard::cmpConst(CmpOp::EQ, Value::integer(3)), 3);
  return A;
}

std::unique_ptr<Workload> buildWorkload(size_t NumEvents, unsigned Shapes,
                                        unsigned InstsPerShape) {
  auto WP = std::make_unique<Workload>();
  Workload &W = *WP;
  StringInterner &In = W.Ctx.interner();

  std::vector<Symbol> Names;
  for (unsigned I = 0; I < 8; ++I)
    Names.push_back(In.intern("e" + std::to_string(I)));

  for (unsigned I = 0; I < Shapes; ++I) {
    policy::UsageAutomaton A = makeShape(In, I, Names);
    Symbol Name = A.name();
    W.Registry.add(std::move(A));
    for (unsigned K = 0; K < InstsPerShape; ++K)
      W.Refs.push_back({Name, {{Value::integer(2 + K)}}});
  }

  for (Symbol N : Names)
    for (int64_t V = 1; V <= 3; ++V)
      W.Universe.push_back({N, Value::integer(V)});

  for (const PolicyRef &R : W.Refs)
    W.FrameOpens.push_back(Label::frameOpen(R));

  std::mt19937_64 Rng(0xb8b8b8b8ull);
  for (size_t I = 0; I < NumEvents; ++I)
    W.Events.push_back(Label::event(
        {Names[Rng() % Names.size()],
         Value::integer(static_cast<int64_t>(1 + Rng() % 2))}));

  W.Trace = W.FrameOpens;
  W.Trace.insert(W.Trace.end(), W.Events.begin(), W.Events.end());

  // Sanity: two full passes must stay valid (the engine benchmarks rely
  // on the batch being re-ingestable without latching a violation).
  policy::ValidityChecker C(W.Registry, W.Ctx.interner());
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const Label &L : W.Trace)
      if (!C.append(L)) {
        std::fprintf(stderr, "bench_monitor: workload trace violates\n");
        std::abort();
      }
  return WP;
}

Workload &workload() {
  static std::unique_ptr<Workload> W =
      buildWorkload(/*NumEvents=*/1024, /*Shapes=*/4, /*InstsPerShape=*/2);
  return *W;
}

Workload &wideWorkload() {
  static std::unique_ptr<Workload> W =
      buildWorkload(/*NumEvents=*/1024, /*Shapes=*/16, /*InstsPerShape=*/4);
  return *W;
}

const monitor::FusedPolicyAutomaton &fused() {
  static monitor::FusedPolicyAutomaton F = [] {
    Workload &W = workload();
    return monitor::fusePolicies(W.Registry, W.Ctx.interner(), W.Refs,
                                 W.Universe)
        .takeValue();
  }();
  return F;
}

//===----------------------------------------------------------------------===//
// Per-event admission: legacy probe vs fused step
//===----------------------------------------------------------------------===//

/// Seed baseline: what Interpreter::steps()+apply() cost per event before
/// this PR — probe every active PolicyMonitor by copy, then commit.
void BM_LegacyProbeAdvance(benchmark::State &State) {
  Workload &W = workload();
  for (auto _ : State) {
    policy::ValidityChecker C(W.Registry, W.Ctx.interner());
    for (const Label &L : W.Trace) {
      bool Admit = C.wouldRemainValid(L);
      benchmark::DoNotOptimize(Admit);
      C.append(L);
    }
    benchmark::DoNotOptimize(C.isValid());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
}
BENCHMARK(BM_LegacyProbeAdvance);

/// Legacy commit path alone (no admission probe): the floor the old
/// monitors can reach even with probing optimized away.
void BM_LegacyAdvance(benchmark::State &State) {
  Workload &W = workload();
  for (auto _ : State) {
    policy::ValidityChecker C(W.Registry, W.Ctx.interner());
    for (const Label &L : W.Trace)
      benchmark::DoNotOptimize(C.append(L));
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
}
BENCHMARK(BM_LegacyAdvance);

/// Fused probe+commit: one table load + offending test per event, the
/// same admission question BM_LegacyProbeAdvance answers.
void BM_FusedProbeAdvance(benchmark::State &State) {
  const monitor::FusedPolicyAutomaton &F = fused();
  Workload &W = workload();
  for (auto _ : State) {
    monitor::SessionMonitor M(F);
    for (const Label &L : W.Trace) {
      bool Admit = M.wouldAdmit(L);
      benchmark::DoNotOptimize(Admit);
      M.advance(L);
    }
    benchmark::DoNotOptimize(M.isViolated());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
  State.counters["fused_states"] = static_cast<double>(F.numStates());
}
BENCHMARK(BM_FusedProbeAdvance);

/// Fused commit path alone, mirroring BM_LegacyAdvance.
void BM_FusedAdvance(benchmark::State &State) {
  const monitor::FusedPolicyAutomaton &F = fused();
  Workload &W = workload();
  for (auto _ : State) {
    monitor::SessionMonitor M(F);
    for (const Label &L : W.Trace)
      benchmark::DoNotOptimize(M.advance(L));
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(W.Trace.size()));
}
BENCHMARK(BM_FusedAdvance);

//===----------------------------------------------------------------------===//
// Fusion construction and cache hits
//===----------------------------------------------------------------------===//

/// Fusion alone: per-policy compiles and minimizations, no product.
void BM_Fusion(benchmark::State &State) {
  Workload &W = workload();
  for (auto _ : State) {
    monitor::FusedPolicyAutomaton F =
        monitor::fusePolicies(W.Registry, W.Ctx.interner(), W.Refs,
                              W.Universe)
            .takeValue();
    benchmark::DoNotOptimize(F.Policies.data());
  }
}
BENCHMARK(BM_Fusion);

/// Cache hit: canonicalize + fingerprint + map lookup — the cost every
/// session after the first pays for its fused DFA.
void BM_FusionCacheHit(benchmark::State &State) {
  Workload &W = workload();
  monitor::FusedCache Cache;
  benchmark::DoNotOptimize(
      Cache.fuse(W.Registry, W.Ctx.interner(), W.Refs, W.Universe).get());
  for (auto _ : State) {
    auto F = Cache.fuse(W.Registry, W.Ctx.interner(), W.Refs, W.Universe);
    benchmark::DoNotOptimize(F.get());
  }
  State.counters["cache_hits"] =
      static_cast<double>(Cache.stats().Hits);
}
BENCHMARK(BM_FusionCacheHit);

//===----------------------------------------------------------------------===//
// MonitorEngine: sharded batch ingestion (events/sec + p99 batch latency)
//===----------------------------------------------------------------------===//

/// Ingests an 8192-item batch over 64 sessions of \p W; range(0) is the
/// worker count (1 = no pool). The first batch starts from a cold
/// transition table. Reports items/sec and the p99 wall-clock latency of
/// a whole ingest() call in microseconds.
void runEngineIngest(benchmark::State &State, Workload &W) {
  monitor::MonitorEngine::Options EO;
  EO.Workers = static_cast<unsigned>(State.range(0));
  monitor::MonitorEngine Engine(W.Registry, W.Ctx.interner(), EO);

  constexpr unsigned NumSessions = 64;
  for (unsigned I = 0; I < NumSessions; ++I) {
    auto S = Engine.openSession(W.Refs, W.Universe);
    for (const Label &L : W.FrameOpens)
      Engine.advance(S, L);
  }

  std::vector<monitor::MonitorEngine::BatchItem> Batch;
  constexpr size_t BatchSize = 8192;
  for (size_t I = 0; I < BatchSize; ++I)
    Batch.push_back({static_cast<monitor::MonitorEngine::SessionId>(
                         I % NumSessions),
                     W.Events[I % W.Events.size()]});

  std::vector<uint8_t> Decisions;
  std::vector<double> LatencyUs;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    Engine.ingest(Batch, &Decisions);
    auto T1 = std::chrono::steady_clock::now();
    LatencyUs.push_back(
        std::chrono::duration<double, std::micro>(T1 - T0).count());
    benchmark::DoNotOptimize(Decisions.data());
  }
  std::sort(LatencyUs.begin(), LatencyUs.end());
  double P99 = 0.0;
  if (!LatencyUs.empty())
    P99 = LatencyUs[std::min(LatencyUs.size() - 1,
                             (LatencyUs.size() * 99) / 100)];
  State.counters["p99_batch_us"] = P99;
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(BatchSize));
}

void BM_EngineIngest(benchmark::State &State) {
  runEngineIngest(State, workload());
}
// Real time: the calling thread parks in waitIdle while pool workers do
// the stepping, so CPU-time rates would be meaningless for Workers > 1.
BENCHMARK(BM_EngineIngest)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// The same batch shape over 64-policy sessions (one full PolicySet word).
void BM_EngineIngestWide(benchmark::State &State) {
  runEngineIngest(State, wideWorkload());
}
BENCHMARK(BM_EngineIngestWide)->Arg(1)->Arg(4)->UseRealTime();

} // namespace

/// Like BENCHMARK_MAIN(), plus the `--quick` alias CI uses (rewritten to
/// a short --benchmark_min_time) and `--metrics-out=FILE` (sus-metrics-v1
/// JSON, including the monitor.* counters, dumped after the run).
int main(int argc, char **argv) {
  std::string MetricsPath = sus::bench::stripMetricsOutArg(argc, argv);
  std::vector<char *> Args;
  static char MinTime[] = "--benchmark_min_time=0.01";
  for (int I = 0; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Args.push_back(MinTime);
    else
      Args.push_back(argv[I]);
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return sus::bench::writeMetricsOut(MetricsPath);
}
