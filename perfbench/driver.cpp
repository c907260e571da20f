//===- perfbench/driver.cpp - In-process driver of the perfbench -----------===//
//
// Drives the SUS libraries in process for the parts of the benchmark that
// a subprocess cannot reach: the per-layer replays of the traced runs, the
// monitor-stream workload, and the open-loop load generator that plays a
// seeded schedule against a live `susd`. Every input is a file written by
// perfbench/gen.py; every mode checks the verdicts it sees against the
// answers in those files and prints one JSON line:
//
//   {"attempted": N, "failed": F, "metrics": {"name": value, ...}}
//
// Modes:
//   trace-cold FILE EXPECT SPANS          layer replay of the one-shot path
//   trace-daemon FILE EXPECT SPANS        daemon::Engine::handle in process
//   monitor POLICIES STREAM SECONDS TRACE SPANS
//   loadgen SOCKET SCHEDULE CONNECTIONS   open loop against a live susd
//   rtt SOCKET COUNT                      idle ping round trips
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "automata/KernelStats.h"
#include "contract/Compliance.h"
#include "contract/Project.h"
#include "core/Repair.h"
#include "core/Snapshot.h"
#include "core/Verifier.h"
#include "daemon/Daemon.h"
#include "daemon/Protocol.h"
#include "daemon/Socket.h"
#include "monitor/Fused.h"
#include "monitor/MonitorEngine.h"
#include "plan/PlanEnumerator.h"
#include "plan/RepositoryDelta.h"
#include "plan/ServiceIndex.h"
#include "policy/Compile.h"
#include "syntax/FileParser.h"
#include "validity/StaticValidity.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace sus;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nanosSince(Clock::time_point T0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              T0)
      .count();
}

double ms(int64_t Nanos) { return static_cast<double>(Nanos) / 1e6; }

/// Nearest-rank percentile of \p V (sorted in place); 0 when empty.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Metric name -> value, printed in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, double>> Values;
  void set(const std::string &Name, double V) { Values.push_back({Name, V}); }
};

void printResult(uint64_t Attempted, uint64_t Failed, const Metrics &M) {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != M.Values.size(); ++I)
    std::printf("%s\"%s\": %.9g", I ? ", " : "", M.Values[I].first.c_str(),
                M.Values[I].second);
  std::printf("}}\n");
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. A span is a call into one layer's public entry
/// point: name "<layer>.<what>", start, end, parent span and request id.
/// When off, opening and closing a span costs one branch.
class Tracer {
public:
  explicit Tracer(bool On) : On(On), T0(Clock::now()) {}

  uint32_t nameId(const std::string &Name) {
    auto It = Ids.find(Name);
    if (It != Ids.end())
      return It->second;
    Names.push_back(Name);
    return Ids[Name] = static_cast<uint32_t>(Names.size() - 1);
  }

  int open(uint32_t Name, uint32_t Request) {
    if (!On)
      return -1;
    Spans.push_back({Name, Request, nanosSince(T0), 0,
                     Stack.empty() ? -1 : Stack.back()});
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }

  void close(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = nanosSince(T0);
    Stack.pop_back();
  }

  struct Span {
    uint32_t Name;
    uint32_t Request;
    int64_t Start, End;
    int Parent;
  };

  const std::vector<Span> &spans() const { return Spans; }
  const std::string &name(uint32_t Id) const { return Names[Id]; }

  /// Chrome trace_event JSON of every span, for a human to look at.
  void write(const std::string &Path) const {
    if (Path.empty() || Path == "-")
      return;
    std::ofstream Out(Path);
    Out << "{\"traceEvents\": [";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      const std::string &N = Names[S.Name];
      Out << (I ? ",\n" : "\n") << "{\"name\": \"" << N << "\", \"cat\": \""
          << N.substr(0, N.find('.')) << "\", \"ph\": \"X\", \"ts\": "
          << S.Start / 1000.0 << ", \"dur\": " << (S.End - S.Start) / 1000.0
          << ", \"pid\": 1, \"tid\": 1, \"args\": {\"request\": " << S.Request
          << ", \"parent\": " << S.Parent << "}}";
    }
    Out << "\n]}\n";
  }

private:
  bool On;
  Clock::time_point T0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
  std::vector<std::string> Names;
  std::map<std::string, uint32_t> Ids;
};

class Scope {
public:
  Scope(Tracer &T, uint32_t Name, uint32_t Request = 0)
      : T(T), Id(T.open(Name, Request)) {}
  Scope(Tracer &T, const std::string &Name, uint32_t Request = 0)
      : Scope(T, T.nameId(Name), Request) {}
  ~Scope() { T.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Id;
};

/// The layers whose self time a traced run reports (src/<layer>).
const char *const Layers[] = {"syntax",   "policy",   "plan",      "contract",
                              "validity", "core",     "analysis",  "serialize",
                              "daemon",   "monitor"};

/// Per-name totals and durations, per-layer self time, and the time no
/// span covers.
struct SpanSummary {
  std::map<std::string, int64_t> Total;
  std::map<std::string, std::vector<double>> DurationsMs;
  std::map<std::string, int64_t> Self;
  int64_t Covered = 0;

  double totalMs(const std::string &Name) const {
    auto It = Total.find(Name);
    return It == Total.end() ? 0.0 : ms(It->second);
  }
  double pct(const std::string &Name, double P) const {
    auto It = DurationsMs.find(Name);
    return It == DurationsMs.end() ? 0.0 : percentile(It->second, P);
  }
};

SpanSummary summarize(const Tracer &T) {
  SpanSummary S;
  const auto &Spans = T.spans();
  std::vector<int64_t> ChildTime(Spans.size(), 0);
  for (const Tracer::Span &Sp : Spans)
    if (Sp.Parent >= 0)
      ChildTime[Sp.Parent] += Sp.End - Sp.Start;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Tracer::Span &Sp = Spans[I];
    const std::string &N = T.name(Sp.Name);
    int64_t Dur = Sp.End - Sp.Start;
    S.Total[N] += Dur;
    S.DurationsMs[N].push_back(ms(Dur));
    S.Self[N.substr(0, N.find('.'))] += Dur - ChildTime[I];
    if (Sp.Parent < 0)
      S.Covered += Dur;
  }
  return S;
}

/// The metrics every traced run reports from its spans alone.
void reportSpans(const SpanSummary &S, int64_t WallNanos, int64_t UntracedNanos,
                 Metrics &M) {
  for (const char *L : Layers) {
    auto It = S.Self.find(L);
    M.set(std::string("self.") + L + "_ms",
          It == S.Self.end() ? 0.0 : ms(It->second));
  }
  M.set("bench.unattributed_ms", ms(std::max<int64_t>(0, WallNanos -
                                                             S.Covered)));
  M.set("bench.trace_overhead_ratio",
        ratio(static_cast<double>(WallNanos),
              static_cast<double>(UntracedNanos)));
  // The two walls, for a caller that merges traced runs.
  M.set("bench.traced_ms", ms(WallNanos));
  M.set("bench.untraced_ms", ms(UntracedNanos));
}

//===----------------------------------------------------------------------===//
// Expected answers (written by gen.py's Answer.write)
//===----------------------------------------------------------------------===//

struct Expect {
  unsigned LintFindings = 0;
  std::map<std::string, size_t> Candidates;
  std::map<std::string, std::set<std::string>> Valid;

  /// True when \p Client is expected with exactly the valid plans \p Got.
  bool validIs(const std::string &Client,
               const std::set<std::string> &Got) const {
    auto It = Valid.find(Client);
    return It != Valid.end() && It->second == Got;
  }
  bool candidatesAre(const std::string &Client, size_t Got) const {
    auto It = Candidates.find(Client);
    return It != Candidates.end() && It->second == Got;
  }
};

bool readExpect(const std::string &Path, Expect &E) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line, Client;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    std::string Kind;
    LS >> Kind;
    if (Kind == "lint") {
      LS >> E.LintFindings;
    } else if (Kind == "client") {
      size_t N = 0;
      LS >> Client >> N;
      E.Candidates[Client] = N;
      E.Valid[Client];
    } else if (Kind == "plan") {
      E.Valid[Client].insert(Line.substr(5));
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// trace-cold: the one-shot pipeline, one layer entry point at a time
//===----------------------------------------------------------------------===//

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void check(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
};

struct ColdCounts {
  double ParseBytes = 0, Decls = 0, Instances = 0, Projections = 0;
  double BindingsTried = 0, Candidates = 0, ComplianceChecks = 0,
         Compliant = 0, PlansChecked = 0, PlansValid = 0;
  double PrescreenRejects = 0, PrescreenSeen = 0;
  double CacheHits = 0, CacheLookups = 0, Findings = 0, SnapshotBytes = 0;
  int64_t KernelNanos = 0;
};

/// One pass over \p Source. Returns false when the file does not parse.
bool replayCold(const std::string &Source, const std::string &FileName,
                const Expect &E, Tracer &T, Tally &Out, ColdCounts &C) {
  const uint32_t Compliance = T.nameId("contract.compliance");
  const uint32_t Validity = T.nameId("validity.check");
  uint64_t Kernel0 = automata::kernelNanos();

  hist::HistContext Ctx;
  DiagnosticEngine Diags;
  std::optional<syntax::SusFile> F;
  {
    Scope S(T, "syntax.parse");
    F = syntax::parseSusFile(Ctx, Source, Diags, FileName);
  }
  if (!F)
    return false;
  C.ParseBytes = static_cast<double>(Source.size());
  C.Decls = static_cast<double>(F->Repo.size() + F->Clients.size() +
                                F->Registry.size() + F->Plans.size());

  // policy: every distinct client policy instance, over the events the
  // repository and the clients can fire.
  {
    std::vector<const hist::Expr *> Exprs;
    for (plan::Loc L : F->Repo.locations())
      Exprs.push_back(F->Repo.find(L));
    for (const auto &[Name, Client] : F->Clients)
      Exprs.push_back(Client);
    std::vector<hist::Event> Universe;
    {
      Scope S(T, "policy.universe");
      Universe = policy::eventUniverse(Exprs);
    }
    std::vector<const hist::Expr *> Clients;
    for (const auto &[Name, Client] : F->Clients)
      Clients.push_back(Client);
    for (const hist::PolicyRef &Ref : monitor::collectPolicyRefs(Clients)) {
      Scope S(T, "policy.compile");
      if (std::optional<policy::PolicyInstance> I =
              F->Registry.instantiate(Ref, Ctx.interner())) {
        (void)policy::compilePolicy(*I, Universe);
        ++C.Instances;
      }
    }
  }

  std::unique_ptr<plan::ServiceIndex> Index;
  {
    Scope S(T, "plan.index_build");
    Index = std::make_unique<plan::ServiceIndex>(Ctx, F->Repo);
  }
  // contract: every service projected once, as the VerifierCache memoizes
  // them; request bodies are projected on first use.
  std::map<const hist::Expr *, const hist::Expr *> Projected;
  auto Project = [&](const hist::Expr *E) {
    auto It = Projected.find(E);
    if (It != Projected.end())
      return It->second;
    Scope S(T, "contract.projection");
    ++C.Projections;
    return Projected[E] = contract::project(Ctx, E);
  };
  for (plan::Loc L : F->Repo.locations())
    (void)Project(F->Repo.find(L));

  // plan + contract + validity: enumeration the way the Verifier's default
  // options run it (today: the scan, as `susc FILE`), compliance through
  // the filter, static validity for each enumerated plan.
  const bool UseIndex = core::VerifierOptions().UseIndex;
  uint32_t Request = 0;
  for (const auto &[Name, Client] : F->Clients) {
    ++Request;
    std::map<std::pair<const hist::Expr *, const hist::Expr *>, bool> Memo;
    plan::EnumeratorOptions EOpts;
    EOpts.MaxPlans = core::VerifierOptions().MaxPlans;
    EOpts.Index = UseIndex ? Index.get() : nullptr;
    EOpts.Filter = [&](const plan::RequestSite &Site, plan::Loc,
                       const hist::Expr *Service) {
      auto Key = std::make_pair(Site.body(), Service);
      auto It = Memo.find(Key);
      if (It != Memo.end())
        return It->second;
      const hist::Expr *Body = Project(Site.body());
      const hist::Expr *Server = Project(Service);
      Scope S(T, Compliance, Request);
      bool Ok = contract::checkCompliance(Ctx, Body, Server).Compliant;
      ++C.ComplianceChecks;
      C.Compliant += Ok ? 1 : 0;
      Memo.emplace(Key, Ok);
      return Ok;
    };
    plan::EnumerationResult R;
    {
      Scope S(T, "plan.enumerate", Request);
      R = plan::enumeratePlans(Client, F->Repo, EOpts);
    }
    C.BindingsTried += static_cast<double>(R.BindingsTried);
    C.Candidates += static_cast<double>(R.Plans.size());
    std::set<std::string> Valid;
    for (const plan::Plan &Pi : R.Plans) {
      Scope S(T, Validity, Request);
      validity::StaticValidityOptions VOpts;
      VOpts.MaxStates = core::VerifierOptions().MaxStatesPerPlan;
      bool Ok = validity::checkPlanValidity(Ctx, Client, Name, Pi, F->Repo,
                                            F->Registry, VOpts)
                    .Valid;
      ++C.PlansChecked;
      C.PlansValid += Ok ? 1 : 0;
      if (Ok)
        Valid.insert(Pi.str(Ctx.interner()));
    }
    std::string ClientName(Ctx.interner().text(Name));
    Out.check(E.validIs(ClientName, Valid));
  }
  plan::IndexStats IS = Index->stats();
  C.PrescreenRejects =
      static_cast<double>(IS.AlphabetRejects + IS.FirstStepRejects);
  C.PrescreenSeen = static_cast<double>(IS.Candidates) + C.PrescreenRejects;
  if (!UseIndex) {
    // The scan never asks the index; ask it once per client so the
    // prescreen's reject ratio is still measured.
    for (const auto &[Name, Client] : F->Clients)
      for (const plan::RequestSite &Site : plan::extractRequests(Client)) {
        Scope S(T, "plan.index_lookup");
        (void)Index->candidates(Site.body());
      }
    IS = Index->stats();
    C.PrescreenRejects =
        static_cast<double>(IS.AlphabetRejects + IS.FirstStepRejects);
    C.PrescreenSeen = static_cast<double>(IS.Candidates) + C.PrescreenRejects;
  }

  // core: the indexed Verifier `susd --warm` and `susc plan` run (the scan
  // above already shows what `susc FILE` adds), each client's report
  // rendered; its cache is what `susd --save-snapshot` writes.
  core::VerifierOptions VOpts;
  VOpts.UseIndex = true;
  core::Verifier V(Ctx, F->Repo, F->Registry, VOpts);
  V.adoptIndex(std::move(Index));
  Request = 0;
  for (const auto &[Name, Client] : F->Clients) {
    ++Request;
    core::VerificationReport Report;
    {
      Scope S(T, "core.verify_client", Request);
      Report = V.verifyClient(Client, Name);
    }
    std::ostringstream OS;
    {
      Scope S(T, "core.report", Request);
      core::printReport(Report, Ctx, OS);
    }
    std::set<std::string> Valid;
    for (const plan::Plan &Pi : Report.validPlans())
      Valid.insert(Pi.str(Ctx.interner()));
    std::string ClientName(Ctx.interner().text(Name));
    Out.check(E.validIs(ClientName, Valid) &&
              E.candidatesAre(ClientName, Report.CandidateCount));
  }
  core::VerifierStats VS = V.stats();
  C.CacheHits = static_cast<double>(VS.ComplianceHits + VS.ProjectionHits +
                                    VS.ValidityHits);
  C.CacheLookups = static_cast<double>(
      VS.ComplianceLookups + VS.ProjectionLookups + VS.ValidityLookups);

  // serialize: the snapshot `susd --save-snapshot` cuts, and its load.
  std::string Bytes;
  {
    Scope S(T, "serialize.encode");
    Bytes = core::saveSnapshot(Ctx, F->Repo, *V.cache(), V.index());
  }
  C.SnapshotBytes = static_cast<double>(Bytes.size());
  {
    core::VerifierCache Fresh;
    core::SnapshotLoadResult L;
    {
      Scope S(T, "serialize.decode");
      L = core::loadSnapshot(Bytes, Ctx, F->Repo, Fresh);
    }
    Out.check(L.Ok);
  }

  // analysis: every lint pass, then the rendering `susc lint` prints.
  {
    DiagnosticEngine LintDiags;
    analysis::LintOptions LOpts;
    analysis::LintContext LC(Ctx, *F, FileName, LOpts, LintDiags);
    for (const analysis::LintPass *Pass : analysis::allLintPasses()) {
      Scope S(T, "analysis." + std::string(Pass->id()));
      Pass->run(LC);
    }
    std::ostringstream OS;
    {
      Scope S(T, "analysis.render");
      LintDiags.print(OS, DiagFormat::Text);
    }
    C.Findings = LC.findings();
    Out.check(LC.findings() == E.LintFindings);
  }
  C.KernelNanos = static_cast<int64_t>(automata::kernelNanos() - Kernel0);
  return true;
}

int traceCold(const std::string &File, const std::string &ExpectPath,
              const std::string &SpansPath) {
  std::string Source;
  Expect E;
  if (!readFile(File, Source) || !readExpect(ExpectPath, E)) {
    std::cerr << "perfbench-driver: cannot read inputs\n";
    return 2;
  }
  Tally Out;
  ColdCounts C;
  // Traced first: the untraced pass then runs on a warmer process, so
  // the overhead ratio errs high rather than low.
  Tracer Off(false), On(true);
  auto T0 = Clock::now();
  if (!replayCold(Source, File, E, On, Out, C))
    return 2;
  int64_t Traced = nanosSince(T0);
  Tally Check;
  ColdCounts Ignored;
  T0 = Clock::now();
  replayCold(Source, File, E, Off, Check, Ignored);
  int64_t Untraced = nanosSince(T0);
  Out.Attempted += Check.Attempted;
  Out.Failed += Check.Failed;
  On.write(SpansPath);

  SpanSummary S = summarize(On);
  Metrics M;
  double ParseMs = S.totalMs("syntax.parse");
  M.set("syntax.parse_ms", ParseMs);
  M.set("syntax.parse_mb_per_s", ratio(C.ParseBytes / 1e6, ParseMs / 1e3));
  M.set("syntax.decls", C.Decls);
  M.set("policy.compile_ms", S.totalMs("policy.compile"));
  M.set("policy.instances", C.Instances);
  M.set("plan.index_build_ms", S.totalMs("plan.index_build"));
  M.set("plan.enumerate_ms", S.totalMs("plan.enumerate"));
  M.set("plan.bindings_tried", C.BindingsTried);
  M.set("plan.candidate_yield", ratio(C.Candidates, C.BindingsTried));
  M.set("contract.projection_ms", S.totalMs("contract.projection"));
  M.set("contract.projections", C.Projections);
  M.set("contract.compliance_ms", S.totalMs("contract.compliance"));
  M.set("contract.compliance_checks", C.ComplianceChecks);
  M.set("contract.compliant_ratio", ratio(C.Compliant, C.ComplianceChecks));
  M.set("contract.prescreen_reject_ratio",
        ratio(C.PrescreenRejects, C.PrescreenSeen));
  M.set("validity.check_ms", S.totalMs("validity.check"));
  M.set("validity.plans_checked", C.PlansChecked);
  M.set("validity.valid_ratio", ratio(C.PlansValid, C.PlansChecked));
  M.set("automata.kernel_ms", ms(C.KernelNanos));
  M.set("core.verify_client_ms.p50", S.pct("core.verify_client", 50));
  M.set("core.verify_client_ms.p99", S.pct("core.verify_client", 99));
  M.set("core.report_ms", S.totalMs("core.report"));
  M.set("core.cache_hit_ratio", ratio(C.CacheHits, C.CacheLookups));
  for (const analysis::LintPass *Pass : analysis::allLintPasses()) {
    std::string N = "analysis." + std::string(Pass->id());
    M.set(N + "_ms", S.totalMs(N));
  }
  M.set("analysis.findings", C.Findings);
  M.set("analysis.render_ms", S.totalMs("analysis.render"));
  M.set("serialize.encode_ms", S.totalMs("serialize.encode"));
  M.set("serialize.decode_ms", S.totalMs("serialize.decode"));
  M.set("serialize.snapshot_kb", C.SnapshotBytes / 1024.0);
  reportSpans(S, Traced, Untraced, M);
  printResult(Out.Attempted, Out.Failed, M);
  return 0;
}

//===----------------------------------------------------------------------===//
// trace-daemon: Engine::handle without the socket, and churn repair
//===----------------------------------------------------------------------===//

bool verifyBodyOk(const std::string &Body, const std::string &Expected) {
  size_t Valid = 0;
  bool Found = false;
  std::istringstream In(Body);
  std::string Line;
  while (std::getline(In, Line)) {
    static const std::string Suffix = ": VALID";
    if (Line.size() < Suffix.size() ||
        Line.compare(Line.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
      continue;
    ++Valid;
    Found |= Line == "  plan " + Expected + Suffix;
  }
  return Valid == 1 && Found;
}

bool churnBodyOk(const std::string &Body, size_t Clients) {
  size_t After = 0, One = 0;
  std::istringstream In(Body);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("valid plans after churn: ", 0) != 0)
      continue;
    ++After;
    One += Line == "valid plans after churn: 1" ? 1 : 0;
  }
  return After == Clients && One == Clients;
}

struct DaemonCounts {
  double ParseBytes = 0, Decls = 0, Kept = 0, Reverified = 0;
  double CacheHits = 0, CacheLookups = 0;
  int64_t KernelNanos = 0;
};

bool replayDaemon(const std::string &Source, const std::string &FileName,
                  const Expect &E, Tracer &T, Tally &Out, DaemonCounts &C) {
  uint64_t Kernel0 = automata::kernelNanos();
  hist::HistContext Ctx;
  DiagnosticEngine Diags;
  std::optional<syntax::SusFile> F;
  {
    Scope S(T, "syntax.parse");
    F = syntax::parseSusFile(Ctx, Source, Diags, FileName);
  }
  if (!F)
    return false;
  C.ParseBytes = static_cast<double>(Source.size());
  C.Decls = static_cast<double>(F->Repo.size() + F->Clients.size() +
                                F->Registry.size() + F->Plans.size());

  // The engine `susd --listen --warm` serves, with its default options.
  std::string Err;
  std::unique_ptr<daemon::Engine> Engine;
  {
    Scope S(T, "daemon.create");
    Engine = daemon::Engine::create(Source, FileName, daemon::EngineOptions(),
                                    Err);
  }
  if (!Engine)
    return false;
  {
    std::ostringstream Sink;
    Scope S(T, "daemon.warm");
    Out.check(Engine->warmAll(Sink) == 0);
  }
  const uint32_t Verify = T.nameId("daemon.handle.verify");
  const uint32_t Ping = T.nameId("daemon.handle.ping");
  uint32_t Request = 0;
  for (int Round = 0; Round < 4; ++Round)
    for (const auto &[Client, Plans] : E.Valid) {
      daemon::Request R;
      R.Verb = "verify";
      R.Params["client"] = Client;
      daemon::Response Resp;
      {
        Scope S(T, Verify, ++Request);
        Resp = Engine->handle(R);
      }
      Out.check(Resp.Exit == 0 && verifyBodyOk(Resp.Body, *Plans.begin()));
    }
  for (int I = 0; I < 6; ++I) {
    daemon::Request R;
    R.Verb = "churn";
    R.Params["rounds"] = "1";
    R.Params["seed"] = std::to_string(I + 1);
    daemon::Response Resp;
    {
      Scope S(T, "daemon.handle.churn", ++Request);
      Resp = Engine->handle(R);
    }
    Out.check(Resp.Exit == 0 && churnBodyOk(Resp.Body, E.Valid.size()));
  }
  for (int I = 0; I < 1000; ++I) {
    daemon::Request R;
    R.Verb = "ping";
    daemon::Response Resp;
    {
      Scope S(T, Ping, ++Request);
      Resp = Engine->handle(R);
    }
    Out.check(Resp.Body == "pong\n");
  }

  // core: RepairSession::applyDelta on the indexed Verifier the daemon
  // runs, one remove and one re-publish per round. Odd rounds churn a
  // service the client's valid plan uses, so that repair has work to do.
  core::VerifierOptions VOpts;
  VOpts.UseIndex = true;
  core::Verifier V(Ctx, F->Repo, F->Registry, VOpts);
  std::vector<plan::Loc> Locs = F->Repo.locations();
  uint64_t Rng = 1;
  size_t Sessions = 0;
  for (const auto &[Name, Client] : F->Clients) {
    if (++Sessions > 16)
      break;
    core::RepairSession Session(V, Client, Name);
    {
      Scope S(T, "core.verify_client", ++Request);
      (void)Session.verify();
    }
    for (int Round = 0; Round < 4; ++Round) {
      Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
      plan::Loc L = Locs[(Rng >> 33) % Locs.size()];
      std::vector<plan::Plan> Valid = Session.report().validPlans();
      if (Round % 2 && !Valid.empty())
        L = Valid.front().bindings().begin()->second;
      const hist::Expr *Service = F->Repo.find(L);
      unsigned Capacity = F->Repo.capacity(L);
      for (int Phase = 0; Phase < 2; ++Phase) {
        plan::RepositoryDelta Delta;
        Delta.Changes.push_back(
            Phase == 0 ? plan::applyRemove(F->Repo, L)
                       : plan::applyPublish(F->Repo, L, Service, Capacity));
        Outcome<core::RepairStats> Repair = [&] {
          Scope S(T, "core.repair", Request);
          return Session.applyDelta(Delta);
        }();
        Out.check(Repair.ok());
        if (Repair.ok()) {
          C.Kept += static_cast<double>(Repair.value().PlansKept);
          C.Reverified += static_cast<double>(Repair.value().PlansReverified);
        }
      }
    }
    std::string ClientName(Ctx.interner().text(Name));
    std::set<std::string> Valid;
    for (const plan::Plan &Pi : Session.report().validPlans())
      Valid.insert(Pi.str(Ctx.interner()));
    Out.check(E.validIs(ClientName, Valid));
  }
  core::VerifierStats VS = V.stats();
  C.CacheHits = static_cast<double>(VS.ComplianceHits + VS.ProjectionHits +
                                    VS.ValidityHits);
  C.CacheLookups = static_cast<double>(
      VS.ComplianceLookups + VS.ProjectionLookups + VS.ValidityLookups);
  C.KernelNanos = static_cast<int64_t>(automata::kernelNanos() - Kernel0);
  return true;
}

int traceDaemon(const std::string &File, const std::string &ExpectPath,
                const std::string &SpansPath) {
  std::string Source;
  Expect E;
  if (!readFile(File, Source) || !readExpect(ExpectPath, E)) {
    std::cerr << "perfbench-driver: cannot read inputs\n";
    return 2;
  }
  Tally Out;
  DaemonCounts C;
  // Traced first: the untraced pass then runs on a warmer process, so
  // the overhead ratio errs high rather than low.
  Tracer Off(false), On(true);
  auto T0 = Clock::now();
  if (!replayDaemon(Source, File, E, On, Out, C))
    return 2;
  int64_t Traced = nanosSince(T0);
  Tally Check;
  DaemonCounts Ignored;
  T0 = Clock::now();
  replayDaemon(Source, File, E, Off, Check, Ignored);
  int64_t Untraced = nanosSince(T0);
  Out.Attempted += Check.Attempted;
  Out.Failed += Check.Failed;
  On.write(SpansPath);

  SpanSummary S = summarize(On);
  Metrics M;
  double ParseMs = S.totalMs("syntax.parse");
  M.set("syntax.parse_ms", ParseMs);
  M.set("syntax.parse_mb_per_s", ratio(C.ParseBytes / 1e6, ParseMs / 1e3));
  M.set("syntax.decls", C.Decls);
  M.set("automata.kernel_ms", ms(C.KernelNanos));
  M.set("core.verify_client_ms.p50", S.pct("core.verify_client", 50));
  M.set("core.verify_client_ms.p99", S.pct("core.verify_client", 99));
  M.set("core.cache_hit_ratio", ratio(C.CacheHits, C.CacheLookups));
  M.set("core.repair_ms.p50", S.pct("core.repair", 50));
  M.set("core.repair_ms.p99", S.pct("core.repair", 99));
  M.set("core.reverified_fraction",
        ratio(C.Reverified, C.Reverified + C.Kept));
  M.set("daemon.handle_us.verify", 1000 * S.pct("daemon.handle.verify", 50));
  M.set("daemon.handle_ms.churn", S.pct("daemon.handle.churn", 50));
  M.set("daemon.handle_us.ping", 1000 * S.pct("daemon.handle.ping", 50));
  reportSpans(S, Traced, Untraced, M);
  printResult(Out.Attempted, Out.Failed, M);
  return 0;
}

//===----------------------------------------------------------------------===//
// monitor: sessions over a policy file, ingesting a seeded label stream
//===----------------------------------------------------------------------===//

struct Stream {
  std::vector<std::pair<std::string, int64_t>> Universe;
  struct Session {
    bool Wide;
    std::vector<std::pair<std::string, int64_t>> Refs;
  };
  std::vector<Session> Sessions;
  struct Item {
    uint32_t Session, Event;
    bool Blocked;
  };
  struct Batch {
    bool Wide;
    std::vector<Item> Items;
  };
  std::vector<Batch> Batches;
};

bool splitPair(const std::string &Tok, std::string &A, int64_t &B) {
  size_t Colon = Tok.find(':');
  if (Colon == std::string::npos)
    return false;
  A = Tok.substr(0, Colon);
  B = std::stoll(Tok.substr(Colon + 1));
  return true;
}

bool readStream(const std::string &Path, Stream &S) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    std::string Kind, Tok, Name;
    int64_t V;
    LS >> Kind;
    if (Kind == "universe") {
      while (LS >> Tok)
        if (splitPair(Tok, Name, V))
          S.Universe.push_back({Name, V});
    } else if (Kind == "session") {
      Stream::Session Sess;
      LS >> Tok;
      Sess.Wide = Tok == "w";
      while (LS >> Tok)
        if (splitPair(Tok, Name, V))
          Sess.Refs.push_back({Name, V});
      S.Sessions.push_back(std::move(Sess));
    } else if (Kind == "batch") {
      Stream::Batch B;
      LS >> Tok;
      B.Wide = Tok == "w";
      while (LS >> Tok) {
        bool Blocked = Tok.back() == '!';
        if (Blocked)
          Tok.pop_back();
        size_t Colon = Tok.find(':');
        B.Items.push_back({static_cast<uint32_t>(std::stoul(Tok)),
                           static_cast<uint32_t>(
                               std::stoul(Tok.substr(Colon + 1))),
                           Blocked});
      }
      S.Batches.push_back(std::move(B));
    }
  }
  for (const Stream::Batch &B : S.Batches)
    for (const Stream::Item &I : B.Items)
      if (I.Session >= S.Sessions.size() || I.Event >= S.Universe.size())
        return false;
  return !S.Sessions.empty() && !S.Batches.empty();
}

/// The policy file parsed into labels the engine can ingest.
struct MonitorSetup {
  hist::HistContext Ctx;
  std::optional<syntax::SusFile> File;
  std::vector<hist::Event> Universe;
  std::vector<std::vector<hist::PolicyRef>> Refs; ///< Per session.
  std::vector<hist::Label> Events;                ///< Per universe index.
};

bool loadMonitor(const std::string &Source, const std::string &FileName,
                 const Stream &St, MonitorSetup &M, Tracer &T) {
  DiagnosticEngine Diags;
  {
    Scope S(T, "syntax.parse");
    M.File = syntax::parseSusFile(M.Ctx, Source, Diags, FileName);
  }
  if (!M.File)
    return false;
  for (const auto &[Name, V] : St.Universe) {
    M.Universe.push_back({M.Ctx.symbol(Name), Value::integer(V)});
    M.Events.push_back(hist::Label::event(M.Universe.back()));
  }
  for (const Stream::Session &Sess : St.Sessions) {
    std::vector<hist::PolicyRef> Refs;
    for (const auto &[Name, V] : Sess.Refs)
      Refs.push_back({M.Ctx.symbol(Name), {{Value::integer(V)}}});
    M.Refs.push_back(std::move(Refs));
  }
  return true;
}

/// Opens every session of \p St (fusing, or falling back past the width)
/// and fires its frame openings.
void openSessions(monitor::MonitorEngine &Engine, const MonitorSetup &M,
                  Tracer &T) {
  const uint32_t Open = T.nameId("monitor.open");
  for (size_t I = 0; I != M.Refs.size(); ++I) {
    monitor::MonitorEngine::SessionId Id;
    {
      Scope S(T, Open, static_cast<uint32_t>(I));
      Id = Engine.openSession(M.Refs[I], M.Universe);
    }
    for (const hist::PolicyRef &R : M.Refs[I])
      Engine.advance(Id, hist::Label::frameOpen(R));
  }
}

using BatchItems = std::vector<monitor::MonitorEngine::BatchItem>;

/// One pass of the stream through a fresh engine; counts batches whose
/// decisions differ from the injected violations.
void monitorPass(const MonitorSetup &M, const Stream &St,
                 const std::vector<BatchItems> &Batches,
                 monitor::FusedCache &Cache, Tracer &T, Tally &Out,
                 std::vector<double> *NarrowMs, std::vector<double> *WideMs,
                 monitor::MonitorEngine::Stats *Stats) {
  monitor::MonitorEngine::Options Opts;
  Opts.Cache = &Cache;
  monitor::MonitorEngine Engine(M.File->Registry, M.Ctx.interner(), Opts);
  openSessions(Engine, M, T);
  const uint32_t Ingest = T.nameId("monitor.ingest");
  std::vector<uint8_t> Decisions;
  for (size_t B = 0; B != Batches.size(); ++B) {
    auto T0 = Clock::now();
    {
      Scope S(T, Ingest, static_cast<uint32_t>(B));
      Engine.ingest(Batches[B], &Decisions);
    }
    double Ms = ms(nanosSince(T0));
    bool Ok = Decisions.size() == St.Batches[B].Items.size();
    for (size_t I = 0; Ok && I != Decisions.size(); ++I)
      Ok = (Decisions[I] == 0) == St.Batches[B].Items[I].Blocked;
    Out.check(Ok);
    if (std::vector<double> *Into = St.Batches[B].Wide ? WideMs : NarrowMs)
      Into->push_back(Ms);
  }
  if (Stats)
    *Stats = Engine.stats();
}

int runMonitor(const std::string &Policies, const std::string &StreamPath,
               double Seconds, bool Trace, const std::string &SpansPath) {
  std::string Source;
  Stream St;
  if (!readFile(Policies, Source) || !readStream(StreamPath, St)) {
    std::cerr << "perfbench-driver: cannot read monitor inputs\n";
    return 2;
  }
  Tally Out;
  Metrics Mx;

  auto BuildBatches = [&](const MonitorSetup &M) {
    std::vector<BatchItems> Bs;
    for (const Stream::Batch &B : St.Batches) {
      BatchItems Items;
      for (const Stream::Item &I : B.Items)
        Items.push_back({I.Session, M.Events[I.Event]});
      Bs.push_back(std::move(Items));
    }
    return Bs;
  };

  if (!Trace) {
    // Set-up: parse the policies and open every session from a cold
    // fusion cache, 15 times (it takes milliseconds); the median is setup_s.
    Tracer Off(false);
    std::vector<double> SetupS;
    for (int I = 0; I < 15; ++I) {
      auto T0 = Clock::now();
      MonitorSetup M;
      if (!loadMonitor(Source, Policies, St, M, Off))
        return 2;
      monitor::FusedCache Cold;
      monitor::MonitorEngine::Options Opts;
      Opts.Cache = &Cold;
      monitor::MonitorEngine Engine(M.File->Registry, M.Ctx.interner(), Opts);
      openSessions(Engine, M, Off);
      SetupS.push_back(ms(nanosSince(T0)) / 1e3);
    }
    MonitorSetup M;
    loadMonitor(Source, Policies, St, M, Off);
    std::vector<BatchItems> Batches = BuildBatches(M);
    monitor::FusedCache Cache;
    std::vector<double> NarrowMs, WideMs;
    auto Start = Clock::now();
    do
      monitorPass(M, St, Batches, Cache, Off, Out, &NarrowMs, &WideMs,
                  nullptr);
    while (ms(nanosSince(Start)) < Seconds * 1e3);
    Mx.set("setup_s", percentile(SetupS, 50));
    Mx.set("op1_ms", percentile(NarrowMs, 50));
    Mx.set("op2_ms", percentile(WideMs, 50));
    Mx.set("op3_ms", percentile(NarrowMs, 90));
    Mx.set("op4_ms", percentile(WideMs, 90));
    Mx.set("peak_rss_mb", peakRssMb());
    Mx.set("narrow_p99_ms", percentile(NarrowMs, 99));
    Mx.set("wide_p99_ms", percentile(WideMs, 99));
    Mx.set("samples.narrow_batches", static_cast<double>(NarrowMs.size()));
    Mx.set("samples.wide_batches", static_cast<double>(WideMs.size()));
    printResult(Out.Attempted, Out.Failed, Mx);
    return 0;
  }

  // Traced: one pass traced, then one untraced (see traceCold), each from
  // a cold fusion cache with the fusions timed on their own first.
  int64_t Nanos[2] = {0, 0};
  Tracer On(true), Off(false);
  monitor::MonitorEngine::Stats Stats;
  monitor::FusedCache::Stats CacheStats;
  double FusedStates = 0;
  for (int Pass = 0; Pass < 2; ++Pass) {
    Tracer &T = Pass ? Off : On;
    auto T0 = Clock::now();
    MonitorSetup M;
    if (!loadMonitor(Source, Policies, St, M, T))
      return 2;
    std::set<std::vector<hist::PolicyRef>> Distinct(M.Refs.begin(),
                                                    M.Refs.end());
    FusedStates = 0;
    for (const std::vector<hist::PolicyRef> &Refs : Distinct) {
      Scope S(T, "monitor.fuse");
      Outcome<monitor::FusedPolicyAutomaton> F = monitor::fusePolicies(
          M.File->Registry, M.Ctx.interner(), Refs, M.Universe);
      if (F.ok())
        FusedStates += static_cast<double>(F.value().numStates());
    }
    std::vector<BatchItems> Batches = BuildBatches(M);
    monitor::FusedCache Cache;
    monitor::MonitorEngine::Stats PassStats;
    monitorPass(M, St, Batches, Cache, T, Out, nullptr, nullptr, &PassStats);
    Nanos[Pass] = nanosSince(T0);
    if (Pass == 0) {
      Stats = PassStats;
      CacheStats = Cache.stats();
    }
  }
  On.write(SpansPath);
  SpanSummary S = summarize(On);
  double ParseMs = S.totalMs("syntax.parse");
  Mx.set("syntax.parse_ms", ParseMs);
  Mx.set("syntax.parse_mb_per_s",
         ratio(static_cast<double>(Source.size()) / 1e6, ParseMs / 1e3));
  Mx.set("monitor.fuse_ms", S.totalMs("monitor.fuse"));
  Mx.set("monitor.fused_states", FusedStates);
  Mx.set("monitor.refusals", static_cast<double>(CacheStats.Refusals));
  Mx.set("monitor.fused_session_ratio",
         ratio(static_cast<double>(Stats.FusedSessions),
               static_cast<double>(Stats.Sessions)));
  Mx.set("monitor.blocked", static_cast<double>(Stats.Blocked));
  reportSpans(S, Nanos[0], Nanos[1], Mx);
  printResult(Out.Attempted, Out.Failed, Mx);
  return 0;
}

//===----------------------------------------------------------------------===//
// loadgen / rtt: the request side of the b11-daemon workload
//===----------------------------------------------------------------------===//

/// One request over a fresh connection, the way `susc --connect` sends it.
bool roundTrip(const std::string &Socket, const daemon::Request &R,
               int &Exit, std::string &Body) {
  std::string Err;
  int Fd = daemon::connectTo(Socket, Err);
  if (Fd < 0)
    return false;
  std::string Header;
  uint64_t Len = 0;
  bool Ok = daemon::writeAll(Fd, daemon::formatRequest(R) + "\n", Err) &&
            daemon::readLine(Fd, Header, daemon::MaxRequestLine, Err) &&
            daemon::parseResponseHeader(Header, Exit, Len, Err) &&
            daemon::readExact(Fd, Len, Body, Err);
  daemon::closeFd(Fd);
  return Ok;
}

struct Scheduled {
  int64_t DueUs;
  daemon::Request R;
  std::string Expect;
};

bool readSchedule(const std::string &Path, size_t &Clients,
                  std::vector<Scheduled> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line, Word;
  if (!std::getline(In, Line))
    return false;
  std::istringstream Head(Line);
  Head >> Word >> Clients;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    Scheduled S;
    std::string Params;
    LS >> S.DueUs >> S.R.Verb >> Params;
    if (Params != "-") {
      std::istringstream PS(Params);
      std::string KV;
      while (std::getline(PS, KV, ',')) {
        size_t Eq = KV.find('=');
        S.R.Params[KV.substr(0, Eq)] = KV.substr(Eq + 1);
      }
    }
    std::getline(LS >> std::ws, S.Expect);
    Out.push_back(std::move(S));
  }
  return !Out.empty();
}

constexpr std::chrono::microseconds SpinWindow(200);

int loadgen(const std::string &Socket, const std::string &SchedulePath,
            unsigned Connections) {
  size_t Clients = 0;
  std::vector<Scheduled> Schedule;
  if (!readSchedule(SchedulePath, Clients, Schedule)) {
    std::cerr << "perfbench-driver: cannot read schedule\n";
    return 2;
  }
  std::vector<double> LatencyMs(Schedule.size(), 0.0);
  std::vector<double> LagMs(Schedule.size(), 0.0);
  std::vector<uint8_t> Failed(Schedule.size(), 0);
  std::atomic<size_t> Next{0};
  auto Start = Clock::now() + std::chrono::milliseconds(20);

  // Open loop: a request falls due on its schedule; a worker that is free
  // sleeps until then, one that is late sends at once. Latency counts from
  // the due time either way; lag is how late a free worker sent it.
  auto Worker = [&] {
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= Schedule.size())
        return;
      const Scheduled &S = Schedule[I];
      auto Due = Start + std::chrono::microseconds(S.DueUs);
      auto Free = Clock::now();
      // Sleep to just short of the due time, then spin: a sleeping thread
      // wakes tens of microseconds late, which would count as latency.
      if (Free + SpinWindow < Due)
        std::this_thread::sleep_until(Due - SpinWindow);
      while (Clock::now() < Due)
        ;
      auto Sent = Clock::now();
      LagMs[I] = std::chrono::duration<double, std::milli>(
                     Sent - std::max(Due, Free))
                     .count();
      int Exit = -1;
      std::string Body;
      bool Ok = roundTrip(Socket, S.R, Exit, Body);
      LatencyMs[I] =
          std::chrono::duration<double, std::milli>(Clock::now() - Due)
              .count();
      if (Ok && S.R.Verb == "verify")
        Ok = Exit == 0 && verifyBodyOk(Body, S.Expect);
      else if (Ok && S.R.Verb == "churn")
        Ok = Exit == 0 && churnBodyOk(Body, Clients);
      else if (Ok)
        Ok = Exit == 0 && Body == "pong\n";
      Failed[I] = Ok ? 0 : 1;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < std::max(1u, Connections); ++I)
    Threads.emplace_back(Worker);
  for (std::thread &Th : Threads)
    Th.join();

  std::map<std::string, std::vector<double>> ByVerb;
  uint64_t NumFailed = 0;
  for (size_t I = 0; I != Schedule.size(); ++I) {
    ByVerb[Schedule[I].R.Verb].push_back(LatencyMs[I]);
    NumFailed += Failed[I];
  }
  Metrics M;
  for (const char *Verb : {"verify", "churn", "ping"}) {
    const std::vector<double> &V = ByVerb[Verb];
    M.set(std::string(Verb) + ".p50_ms", percentile(V, 50));
    M.set(std::string(Verb) + ".p90_ms", percentile(V, 90));
    M.set(std::string(Verb) + ".p99_ms", percentile(V, 99));
    M.set(std::string(Verb) + ".samples", static_cast<double>(V.size()));
  }
  M.set("lag_p99_ms", percentile(LagMs, 99));
  printResult(Schedule.size(), NumFailed, M);
  return 0;
}

int rtt(const std::string &Socket, unsigned Count) {
  std::vector<double> Us;
  uint64_t Failed = 0;
  daemon::Request R;
  R.Verb = "ping";
  for (unsigned I = 0; I < Count; ++I) {
    int Exit = -1;
    std::string Body;
    auto T0 = Clock::now();
    bool Ok = roundTrip(Socket, R, Exit, Body) && Body == "pong\n";
    Us.push_back(static_cast<double>(nanosSince(T0)) / 1e3);
    Failed += Ok ? 0 : 1;
  }
  Metrics M;
  M.set("rtt_us", percentile(Us, 50));
  printResult(Count, Failed, M);
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench-driver trace-cold FILE EXPECT SPANS\n"
               "       perfbench-driver trace-daemon FILE EXPECT SPANS\n"
               "       perfbench-driver monitor POLICIES STREAM SECONDS "
               "TRACE SPANS\n"
               "       perfbench-driver loadgen SOCKET SCHEDULE CONNECTIONS\n"
               "       perfbench-driver rtt SOCKET COUNT\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> A(Argv + 1, Argv + Argc);
  if (A.size() == 4 && A[0] == "trace-cold")
    return traceCold(A[1], A[2], A[3]);
  if (A.size() == 4 && A[0] == "trace-daemon")
    return traceDaemon(A[1], A[2], A[3]);
  if (A.size() == 6 && A[0] == "monitor")
    return runMonitor(A[1], A[2], std::stod(A[3]), A[4] == "1", A[5]);
  if (A.size() == 4 && A[0] == "loadgen")
    return loadgen(A[1], A[2], static_cast<unsigned>(std::stoul(A[3])));
  if (A.size() == 3 && A[0] == "rtt")
    return rtt(A[1], static_cast<unsigned>(std::stoul(A[2])));
  return usage();
}
