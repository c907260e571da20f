//===- bench/bench_validity.cpp - B2: validity-check scaling --------------===//
///
/// \file
/// Experiment B2 (DESIGN.md): cost of the §3.1 machinery — dynamic |= η
/// checking as histories grow, monitor count, automaton size, the effect
/// of the [4]-style framing regularization on the static check, and one
/// validity pass over a client's candidate plans against a pass per plan.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "policy/FramedAutomaton.h"
#include "policy/Validity.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"
#include "validity/CostAnalysis.h"
#include "validity/FrameRegularize.h"
#include "validity/StaticValidity.h"

#include <benchmark/benchmark.h>

#include <cstdlib>

using namespace sus;
using namespace sus::bench;

namespace {

/// |= η over a growing history with P active policies.
void BM_DynamicValidityHistoryLength(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  unsigned P = static_cast<unsigned>(State.range(1));

  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  registerPolicies(Registry, Ctx.interner(), P, /*K=*/1000);

  policy::History Eta;
  for (unsigned I = 0; I < P; ++I) {
    hist::PolicyRef Ref;
    Ref.Name = Ctx.symbol("pol" + std::to_string(I));
    Eta.appendFrameOpen(Ref);
  }
  for (unsigned I = 0; I < N; ++I)
    Eta.appendEvent(hist::Event{Ctx.symbol("ev" + std::to_string(I % 8)),
                                Value::integer(I)});

  for (auto _ : State) {
    auto R = policy::checkValidity(Eta, Registry, Ctx.interner());
    benchmark::DoNotOptimize(R.Valid);
  }
  State.counters["items"] = static_cast<double>(Eta.size());
}
BENCHMARK(BM_DynamicValidityHistoryLength)
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Args({4096, 1})
    ->Args({256, 4})
    ->Args({256, 16})
    ->Args({256, 64});

/// Automaton size: at-most-K monitors have K+2 states.
void BM_DynamicValidityAutomatonSize(benchmark::State &State) {
  unsigned K = static_cast<unsigned>(State.range(0));
  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  Registry.add(
      policy::makeAtMostPolicy(Ctx.interner(), "cap", "evHot", K));

  policy::History Eta;
  hist::PolicyRef Ref;
  Ref.Name = Ctx.symbol("cap");
  Eta.appendFrameOpen(Ref);
  for (unsigned I = 0; I < K; ++I)
    Eta.appendEvent(hist::Event{Ctx.symbol("evHot"), Value()});

  for (auto _ : State) {
    auto R = policy::checkValidity(Eta, Registry, Ctx.interner());
    benchmark::DoNotOptimize(R.Valid);
  }
}
BENCHMARK(BM_DynamicValidityAutomatonSize)
    ->RangeMultiplier(4)
    ->Range(4, 1024);

/// Static plan validity as the composed space grows with request count.
void BM_StaticValidityRequests(benchmark::State &State) {
  unsigned Q = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    hist::HistContext Ctx;
    plan::Repository Repo = echoRepository(Ctx, 1, 0);
    policy::PolicyRegistry Registry;
    const hist::Expr *Client = echoClient(Ctx, Q);
    plan::Plan Pi;
    for (unsigned I = 0; I < Q; ++I)
      Pi.bind(100 + I, Ctx.symbol("svc0"));
    auto R = validity::checkPlanValidity(Ctx, Client, Ctx.symbol("c"), Pi,
                                         Repo, Registry);
    benchmark::DoNotOptimize(R.Valid);
    State.counters["states"] = static_cast<double>(R.ExploredStates);
  }
}
BENCHMARK(BM_StaticValidityRequests)->RangeMultiplier(2)->Range(1, 64);

/// The Fig. 1-2 hotel with \p N hotels: one broker br whose request 100
/// goes to a hotel, and one client c with its own phi(bl, p, t). Hotel j
/// signs, quotes a price and a rating of its own.
struct HotelClient {
  hist::HistContext Ctx;
  syntax::SusFile File;
  const hist::Expr *Client = nullptr;
  plan::Loc Name;
  std::vector<plan::Plan> Plans; ///< {1 -> br, 100 -> hJ} for each J.

  explicit HotelClient(unsigned N) {
    std::string Source = R"(
policy phi(bl: set, p: int, t: int) {
  start q1; offending q6;
  q1 -> q2 on sgn(x) when x not in bl; q1 -> q6 on sgn(x) when x in bl;
  q2 -> q3 on p(y) when y <= p; q2 -> q4 on p(y) when y > p;
  q4 -> q5 on ta(z) when z >= t; q4 -> q6 on ta(z) when z < t;
  q3 -> q3 on *; q5 -> q5 on *; q6 -> q6 on *;
}
service br {
  Req? . (open 100 { IdC! . (Bok? + UnA?) }; (CoBo! . Pay? <+> NoAv!))
}
client c { open 1 @ phi({h0,h7},70,80) { Req! . (CoBo? . Pay! + NoAv?) } }
)";
    for (unsigned J = 0; J < N; ++J)
      Source += "service h" + std::to_string(J) + " { %sgn(h" +
                std::to_string(J) + "); %p(" + std::to_string(40 + J % 60) +
                "); %ta(" + std::to_string(50 + J % 50) +
                "); IdC? . (Bok! <+> UnA!) }\n";
    DiagnosticEngine Diags;
    std::optional<syntax::SusFile> Parsed =
        syntax::parseSusFile(Ctx, Source, Diags, "hotel.sus");
    if (!Parsed)
      std::abort();
    File = std::move(*Parsed);
    std::tie(Name, Client) = *File.Clients.begin();
    for (unsigned J = 0; J < N; ++J) {
      plan::Plan Pi;
      Pi.bind(1, Ctx.symbol("br"));
      Pi.bind(100, Ctx.symbol("h" + std::to_string(J)));
      Plans.push_back(std::move(Pi));
    }
  }
};

/// One validity pass over a hotel client's N candidate plans; the
/// per_plan counter is the time per plan.
void BM_StaticValidityClientPlans(benchmark::State &State) {
  HotelClient H(static_cast<unsigned>(State.range(0)));
  std::vector<const plan::Plan *> Plans;
  for (const plan::Plan &P : H.Plans)
    Plans.push_back(&P);
  for (auto _ : State) {
    auto R = validity::checkClientPlans(H.Ctx, H.Client, H.Name, Plans,
                                        H.File.Repo, H.File.Registry);
    benchmark::DoNotOptimize(R.data());
  }
  State.counters["per_plan"] = benchmark::Counter(
      static_cast<double>(Plans.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_StaticValidityClientPlans)->RangeMultiplier(4)->Range(1, 256);

/// The same plans, each in a pass of its own (the ablation of the above).
void BM_StaticValidityPlanByPlan(benchmark::State &State) {
  HotelClient H(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    for (const plan::Plan &P : H.Plans) {
      auto R = validity::checkPlanValidity(H.Ctx, H.Client, H.Name, P,
                                           H.File.Repo, H.File.Registry);
      benchmark::DoNotOptimize(R.Valid);
    }
  State.counters["per_plan"] = benchmark::Counter(
      static_cast<double>(H.Plans.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_StaticValidityPlanByPlan)->RangeMultiplier(4)->Range(1, 256);

/// Ablation: redundant same-policy framing nesting with and without the
/// [4] regularization.
void BM_StaticValidityRegularization(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  bool Regularize = State.range(1) != 0;
  for (auto _ : State) {
    hist::HistContext Ctx;
    policy::PolicyRegistry Registry;
    registerPolicies(Registry, Ctx.interner(), 1, 1000);

    // pol0[ pol0[ ... event chain ... ]] nested Depth times.
    hist::PolicyRef Ref;
    Ref.Name = Ctx.symbol("pol0");
    const hist::Expr *Body = eventChain(Ctx, 16);
    for (unsigned I = 0; I < Depth; ++I)
      Body = Ctx.framing(Ref, Body);
    const hist::Expr *Client =
        Ctx.request(1, hist::PolicyRef(),
                    Ctx.send("Ping", Ctx.receive("Pong", Ctx.empty())));
    // Attach the framed chain before the session.
    Client = Ctx.seq(Body, Client);

    plan::Repository Repo = echoRepository(Ctx, 1, 0);
    plan::Plan Pi;
    Pi.bind(1, Ctx.symbol("svc0"));

    validity::StaticValidityOptions Opts;
    Opts.Regularize = Regularize;
    auto R = validity::checkPlanValidity(Ctx, Client, Ctx.symbol("c"), Pi,
                                         Repo, Registry, Opts);
    benchmark::DoNotOptimize(R.Valid);
    State.counters["states"] = static_cast<double>(R.ExploredStates);
  }
}
BENCHMARK(BM_StaticValidityRegularization)
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({32, 0})
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({32, 1});

/// Raw regularization throughput.
void BM_RegularizePass(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    hist::HistContext Ctx;
    const hist::Expr *E =
        nestedFramings(Ctx, eventChain(Ctx, 32), Depth);
    // Re-nest the same policy to make half the frames redundant.
    hist::PolicyRef Ref;
    Ref.Name = Ctx.symbol("pol0");
    E = Ctx.framing(Ref, Ctx.framing(Ref, E));
    benchmark::DoNotOptimize(validity::regularizeFramings(Ctx, E));
  }
}
BENCHMARK(BM_RegularizePass)->RangeMultiplier(4)->Range(1, 256);

/// Building the §3.1 framed monitor automaton vs. universe size.
void BM_FramedAutomatonBuild(benchmark::State &State) {
  unsigned U = static_cast<unsigned>(State.range(0));
  hist::HistContext Ctx;
  policy::PolicyRegistry Registry;
  Registry.add(
      policy::makeAtMostPolicy(Ctx.interner(), "cap", "evHot", 8));
  hist::PolicyRef Ref;
  Ref.Name = Ctx.symbol("cap");
  auto Inst = Registry.instantiate(Ref, Ctx.interner());

  std::vector<hist::Event> Universe;
  for (unsigned I = 0; I < U; ++I)
    Universe.push_back(
        hist::Event{Ctx.symbol("ev" + std::to_string(I)), Value()});
  Universe.push_back(hist::Event{Ctx.symbol("evHot"), Value()});

  size_t States = 0;
  for (auto _ : State) {
    policy::FramedAutomaton A =
        policy::buildFramedAutomaton(*Inst, Universe);
    States = A.Automaton.numStates();
    benchmark::DoNotOptimize(A.Automaton.numStates());
  }
  State.counters["dfa_states"] = static_cast<double>(States);
}
BENCHMARK(BM_FramedAutomatonBuild)->RangeMultiplier(4)->Range(4, 256);

/// Checking a history through the framed automaton (amortized: run cost
/// only, automaton prebuilt) vs. the dynamic checker.
void BM_FramedAutomatonCheck(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  hist::HistContext Ctx;
  std::vector<hist::Event> Universe = {
      hist::Event{Ctx.symbol("evHot"), Value()},
      hist::Event{Ctx.symbol("evCold"), Value()}};

  policy::PolicyRegistry Registry;
  Registry.add(
      policy::makeAtMostPolicy(Ctx.interner(), "cap", "evHot", 64));
  hist::PolicyRef Ref;
  Ref.Name = Ctx.symbol("cap");
  auto Inst = Registry.instantiate(Ref, Ctx.interner());
  policy::FramedAutomaton A = policy::buildFramedAutomaton(*Inst, Universe);

  policy::History Eta;
  Eta.appendFrameOpen(Ref);
  for (unsigned I = 0; I < N; ++I)
    Eta.appendEvent(Universe[I % 2]);

  for (auto _ : State)
    benchmark::DoNotOptimize(A.violates(Eta, Ref));
}
BENCHMARK(BM_FramedAutomatonCheck)->RangeMultiplier(4)->Range(16, 1024);

/// Worst-case cost analysis vs. expression size (B2 quantitative add-on).
void BM_CostAnalysis(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  hist::HistContext Ctx;
  const hist::Expr *E = eventChain(Ctx, N);
  validity::CostModel Model;
  Model.DefaultCost = 1;
  for (auto _ : State) {
    auto R = validity::maxEventCost(Ctx, E, Model);
    benchmark::DoNotOptimize(R.MaxCost);
  }
}
BENCHMARK(BM_CostAnalysis)->RangeMultiplier(4)->Range(16, 1024);

} // namespace

BENCHMARK_MAIN();
