//===- tools/susc.cpp - The SUS command-line verifier ---------------------===//
///
/// \file
/// susc — parse a .sus file, verify every client against the repository
/// (declared plans first, then enumerated candidates), and report the
/// valid plans. Exit code 0 iff every client has at least one valid plan.
/// Every subcommand is a thin adapter over core::Session, the engine susd
/// also serves from.
///
///   susc file.sus                verify everything
///   susc --plan pi1 file.sus    check one declared plan only
///   susc --run file.sus          also execute the first valid plan
///   susc --trace file.sus        print the execution trace with --run
///   susc --dot-policies file.sus print policy automata as Graphviz
///   susc lint file.sus           run the semantic lint passes
///
/// `susc lint` exits 0 when the file is clean, 1 when any finding was
/// reported (even warnings), and 2 on usage, I/O or parse errors — the
/// CI-friendly contract.
///
/// The verifier exits 0 when every client has a valid plan, 1 when some
/// client conclusively lacks one, 2 on usage/parse errors, and 3 when any
/// verdict is Inconclusive(resource) — a --deadline-ms / --max-*-states
/// budget tripped, or --explore truncated — so "out of budget" is never
/// mistaken for "refuted".
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "core/Session.h"
#include "daemon/Protocol.h"
#include "daemon/Socket.h"
#include "fuzz/Differential.h"
#include "hist/Bisim.h"
#include "hist/Printer.h"
#include "hist/TransitionSystem.h"
#include "net/Explorer.h"
#include "net/Interpreter.h"
#include "support/Metrics.h"
#include "support/ParseInt.h"
#include "support/TenantBudget.h"
#include "support/Trace.h"
#include "validity/CostAnalysis.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

using namespace sus;

namespace {

/// What every file-taking mode (verify, lint, plan) shares.
struct FileCommand {
  /// --help/-h was seen: the caller prints usage and exits 0. Kept as a
  /// flag (instead of exiting inside the parser) so no library-level
  /// code calls std::exit — which is also what concurrency-mt-unsafe
  /// expects of functions that may one day run inside susd.
  bool Help = false;
  /// Set by a flag that needs no input file (lint --list-passes).
  bool InputOptional = false;

  std::string InputPath;
  std::string TraceOut;   ///< Chrome trace_event JSON output path.
  std::string MetricsOut; ///< sus-metrics-v1 JSON output path.
};

struct CliOptions : FileCommand {
  /// "Flag absent" sentinel for --max-states.
  static constexpr uint64_t NoLimit = ~uint64_t(0);

  std::string OnlyPlan;
  std::string DotLts;
  std::string BisimA, BisimB;
  bool Run = false;
  bool Trace = false;
  bool DotPolicies = false;
  bool Enumerate = true;
  bool Cost = false;
  bool Explore = false;
  uint64_t Jobs = 1;
  TenantBudget Budget; ///< --deadline-ms / --max-*-states
  uint64_t MaxExploreStates = NoLimit;  ///< --max-states (--explore cap)
  DiagFormat Format = DiagFormat::Text;
};

/// Hard ceiling for --jobs: far above any sane machine, low enough that a
/// typo cannot ask for a million threads. The floor is 1: the old "0 = one
/// per hardware thread" shorthand was indistinguishable from a typo.
constexpr uint64_t MaxJobs = 256;

void printUsage(std::ostream &OS) {
  OS << "usage: susc [options] file.sus\n"
        "       susc lint [lint options] file.sus\n"
        "       susc plan [plan options] file.sus\n"
        "       susc fuzz [fuzz options]\n"
        "       susc --connect SOCKET VERB [key=value]...\n"
        "  --plan NAME      check only the declared plan NAME\n"
        "  --run            execute the first valid plan of each client\n"
        "  --trace          with --run, print every applied step\n"
        "  --dot-policies   print client policies as Graphviz\n"
        "  --dot-lts NAME   print the LTS of a declared behaviour\n"
        "  --bisim A B      check two declared behaviours bisimilar\n"
        "  --cost           worst-case event count per behaviour\n"
        "  --explore        exhaustively explore the network under the\n"
        "                   declared plans (capacity-deadlock search)\n"
        "  --no-enumerate   only check declared plans\n"
        "  --jobs N         verify candidate plans on N worker threads\n"
        "                   (1 <= N <= 256); the report is identical at\n"
        "                   any width\n"
        "  --deadline-ms N  stop verifying after N milliseconds; verdicts\n"
        "                   not reached in time are Inconclusive(resource)\n"
        "  --max-product-states N  per-check state budget for product /\n"
        "                   emptiness explorations\n"
        "  --max-states N   state cap for --explore (default 262144)\n"
        "  --trace-out F    write a Chrome trace_event JSON span trace to F\n"
        "  --metrics-out F  write pipeline metrics JSON (sus-metrics-v1) to F\n"
        "  --diag-format=F  render diagnostics as 'text' or 'json'\n"
        "exit codes: 0 all clients have valid plans, 1 some client has\n"
        "            none, 2 usage/parse error, 3 inconclusive (resource\n"
        "            budget tripped or exploration truncated)\n"
        "run 'susc lint --help' for the lint options\n";
}

void printLintUsage(std::ostream &OS) {
  OS << "usage: susc lint [options] file.sus\n"
        "  --diag-format=F  render findings as 'text' or 'json'\n"
        "  -Werror          promote every lint warning to an error\n"
        "  -Werror=ID       promote the pass ID to an error\n"
        "  --disable=ID     suppress the pass ID entirely\n"
        "  --list-passes    list every pass with its ID and exit\n"
        "  --trace-out F    write a Chrome trace_event JSON span trace to F\n"
        "  --metrics-out F  write pipeline metrics JSON (sus-metrics-v1) to F\n"
        "exit codes: 0 clean, 1 findings reported, 2 usage/parse error\n";
}

void printPlanUsage(std::ostream &OS) {
  OS << "usage: susc plan [options] file.sus\n"
        "  --churn N        churn replay: N rounds, each removing and then\n"
        "                   re-publishing one seeded-randomly picked\n"
        "                   service, repairing the reports incrementally\n"
        "                   and reporting p50/p99 repair latency\n"
        "  --seed N         seed for the churn picks (default 1)\n"
        "  --jobs N         re-verify repaired plans on N worker threads\n"
        "  --deadline-ms N / --max-product-states N\n"
        "                   resource budgets; cut-short repairs are\n"
        "                   Inconclusive(resource), never wrong\n"
        "  --trace-out F    write a Chrome trace_event JSON span trace to F\n"
        "  --metrics-out F  write pipeline metrics JSON (sus-metrics-v1) to F\n"
        "exit codes: 0 all clients have valid plans, 1 some client has\n"
        "            none, 2 usage/parse error, 3 inconclusive\n";
}

/// Consumes the value operand of \p Flag. Emits the "missing value"
/// diagnostic (rather than falling through to "unknown option" or silently
/// eating the next flag) when \p Flag is the last argument.
bool takeValue(int Argc, char **Argv, int &I, const std::string &Flag,
               std::string &Out) {
  if (I + 1 >= Argc) {
    std::cerr << "susc: missing value for '" << Flag << "'\n";
    return false;
  }
  Out = Argv[++I];
  return true;
}

/// Consumes the integer operand of \p Flag, in [\p Min, \p Max].
bool takeCount(int Argc, char **Argv, int &I, const std::string &Flag,
               uint64_t &Out, uint64_t Min = 0,
               uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  std::string Value, Err;
  if (!takeValue(Argc, Argv, I, Flag, Value))
    return false;
  if (parseInteger(Flag, Value, Out, Err, Min, Max))
    return true;
  std::cerr << "susc: " << Err << "\n";
  return false;
}

/// The field of \p B the resource-budget flag \p Arg sets, or null when
/// \p Arg is not one.
uint64_t *budgetField(const std::string &Arg, TenantBudget &B) {
  if (Arg == "--deadline-ms")
    return &B.DeadlineMs;
  if (Arg == "--max-product-states")
    return &B.MaxProductStates;
  return nullptr;
}

/// Parses --diag-format=F; returns false (with a message) on a bad value.
bool parseDiagFormat(const std::string &Arg, DiagFormat &Format) {
  std::string Value = Arg.substr(Arg.find('=') + 1);
  if (Value == "text") {
    Format = DiagFormat::Text;
    return true;
  }
  if (Value == "json") {
    Format = DiagFormat::Json;
    return true;
  }
  std::cerr << "susc: --diag-format expects 'text' or 'json', got '" << Value
            << "'\n";
  return false;
}

/// What a mode's own flag parser made of one argument.
enum class Flag { Taken, NotMine, Bad };

Flag taken(bool Ok) { return Ok ? Flag::Taken : Flag::Bad; }

using OwnFlags = std::function<Flag(const std::string &Arg, int &I)>;

/// Parses Argv[First..] into \p Cmd. \p Own sees each argument first and
/// may consume operands by advancing its index; what it leaves goes to
/// the flags every mode shares and to the input path. Usage errors print
/// a diagnostic and \p Usage to stderr and return false.
bool parseFileCommand(int Argc, char **Argv, int First, FileCommand &Cmd,
                      void (*Usage)(std::ostream &), const OwnFlags &Own) {
  for (int I = First; I < Argc; ++I) {
    std::string Arg = Argv[I];
    Flag F = Own(Arg, I);
    if (F == Flag::Bad)
      return false;
    if (F == Flag::Taken)
      continue;
    if (Arg == "--trace-out") {
      if (!takeValue(Argc, Argv, I, Arg, Cmd.TraceOut))
        return false;
    } else if (Arg == "--metrics-out") {
      if (!takeValue(Argc, Argv, I, Arg, Cmd.MetricsOut))
        return false;
    } else if (Arg == "--help" || Arg == "-h") {
      Cmd.Help = true;
      return true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "susc: unknown option '" << Arg << "'\n";
      Usage(std::cerr);
      return false;
    } else if (Cmd.InputPath.empty()) {
      Cmd.InputPath = Arg;
    } else {
      std::cerr << "susc: multiple input files\n";
      return false;
    }
  }
  if (Cmd.InputPath.empty() && !Cmd.InputOptional) {
    Usage(std::cerr);
    return false;
  }
  return true;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  auto Own = [&](const std::string &Arg, int &I) {
    if (Arg == "--plan")
      return taken(takeValue(Argc, Argv, I, Arg, Opts.OnlyPlan));
    if (Arg == "--dot-lts")
      return taken(takeValue(Argc, Argv, I, Arg, Opts.DotLts));
    if (Arg == "--bisim")
      return taken(takeValue(Argc, Argv, I, Arg, Opts.BisimA) &&
                   takeValue(Argc, Argv, I, Arg, Opts.BisimB));
    if (Arg == "--jobs")
      return taken(takeCount(Argc, Argv, I, Arg, Opts.Jobs, 1, MaxJobs));
    if (uint64_t *Field = budgetField(Arg, Opts.Budget))
      return taken(takeCount(Argc, Argv, I, Arg, *Field));
    if (Arg == "--max-states")
      return taken(
          takeCount(Argc, Argv, I, Arg, Opts.MaxExploreStates, /*Min=*/1));
    if (Arg.rfind("--diag-format=", 0) == 0)
      return taken(parseDiagFormat(Arg, Opts.Format));
    if (Arg == "--cost") {
      Opts.Cost = true;
    } else if (Arg == "--explore") {
      Opts.Explore = true;
    } else if (Arg == "--run") {
      Opts.Run = true;
    } else if (Arg == "--trace") {
      Opts.Trace = true;
    } else if (Arg == "--dot-policies") {
      Opts.DotPolicies = true;
    } else if (Arg == "--no-enumerate") {
      Opts.Enumerate = false;
    } else {
      return Flag::NotMine;
    }
    return Flag::Taken;
  };
  return parseFileCommand(Argc, Argv, /*First=*/1, Opts, printUsage, Own);
}

/// Reads and parses \p Path into a session. On failure prints why (parse
/// diagnostics in \p Format to \p DiagOS) and returns null.
std::unique_ptr<core::Session>
openSession(const std::string &Path, uint64_t Jobs,
            std::shared_ptr<ResourceGovernor> Governor, DiagFormat Format,
            std::ostream &DiagOS) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "susc: cannot open '" << Path << "'\n";
    return nullptr;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Err;
  std::unique_ptr<core::Session> S =
      core::Session::create(Buffer.str(), Path, static_cast<unsigned>(Jobs),
                            std::move(Governor), Format, Err);
  if (!S)
    DiagOS << Err;
  return S;
}

int runTool(const CliOptions &Opts) {
  // Arm the governor first thing, so --deadline-ms covers the whole run
  // (parsing included), not just the verification loops.
  std::shared_ptr<ResourceGovernor> Governor = Opts.Budget.governor();
  std::unique_ptr<core::Session> S = openSession(
      Opts.InputPath, Opts.Jobs, Governor, Opts.Format, std::cerr);
  if (!S)
    return 2;
  hist::HistContext &Ctx = S->context();
  const syntax::SusFile &File = S->file();

  // Resolve a declared behaviour by name (services first, then clients).
  auto FindBehavior = [&](const std::string &Name) -> const hist::Expr * {
    Symbol Sym = Ctx.interner().lookup(Name);
    if (!Sym.isValid())
      return nullptr;
    if (const hist::Expr *E = File.Repo.find(Sym))
      return E;
    return File.findClient(Sym);
  };

  if (!Opts.DotLts.empty()) {
    const hist::Expr *E = FindBehavior(Opts.DotLts);
    if (!E) {
      std::cerr << "susc: no service or client named '" << Opts.DotLts
                << "'\n";
      return 2;
    }
    hist::TransitionSystem Ts(Ctx, E);
    hist::printDot(Ctx, Ts, std::cout, Opts.DotLts);
    return 0;
  }

  if (!Opts.BisimA.empty()) {
    const hist::Expr *A = FindBehavior(Opts.BisimA);
    const hist::Expr *B = FindBehavior(Opts.BisimB);
    if (!A || !B) {
      std::cerr << "susc: unknown behaviour name\n";
      return 2;
    }
    bool Equal = hist::bisimilar(Ctx, A, B);
    std::cout << Opts.BisimA << (Equal ? " ~ " : " !~ ") << Opts.BisimB
              << "\n";
    return Equal ? 0 : 1;
  }

  if (Opts.Explore) {
    // Assemble the network from each client's first declared plan.
    std::vector<net::NetworkComponent> Components;
    for (const auto &[Name, Client] : File.Clients) {
      const syntax::PlanDecl *Found = nullptr;
      for (const syntax::PlanDecl &Decl : File.Plans)
        if (Decl.Client == Name) {
          Found = &Decl;
          break;
        }
      if (!Found) {
        std::cerr << "susc: client '" << Ctx.interner().text(Name)
                  << "' has no declared plan; --explore needs one\n";
        return 2;
      }
      Components.push_back({Name, Client, Found->Pi});
    }
    net::ExplorerOptions EOpts;
    if (Opts.MaxExploreStates != CliOptions::NoLimit)
      EOpts.MaxStates = static_cast<size_t>(Opts.MaxExploreStates);
    net::ExplorationResult R =
        net::exploreNetwork(Ctx, File.Repo, Components, EOpts);
    std::cout << "explored " << R.States << " network states"
              << (R.Exhaustive ? "" : " (truncated)") << "\n";
    std::cout << "all components can complete: "
              << (R.CanComplete ? "yes" : "NO") << "\n";
    std::cout << "deadlock reachable: "
              << (R.DeadlockReachable ? "YES" : "no") << "\n";
    for (const std::string &Line : R.DeadlockTrace)
      std::cout << "  --> " << Line << "\n";
    if (!R.Exhaustive) {
      // A truncated search proves nothing either way: its "no deadlock"
      // would be silently unsound, so report it loudly and distinctly.
      std::cerr << "susc: exploration truncated at " << R.States
                << " states; pass --max-states to raise the bound\n";
      return 3;
    }
    return (R.CanComplete && !R.DeadlockReachable) ? 0 : 1;
  }

  if (Opts.Cost) {
    // Uniform model: every access event costs 1 (worst-case event count).
    validity::CostModel Model;
    Model.DefaultCost = 1;
    auto Show = [&](Symbol Name, const hist::Expr *E) {
      validity::CostResult R = validity::maxEventCost(Ctx, E, Model);
      std::cout << Ctx.interner().text(Name) << ": ";
      if (R.Bounded)
        std::cout << "worst-case " << R.MaxCost << " event(s)\n";
      else
        std::cout << "unbounded (a costly loop is reachable)\n";
    };
    for (const auto &[Loc, Service] : File.Repo.services())
      Show(Loc, Service);
    for (const auto &[Name, Client] : File.Clients)
      Show(Name, Client);
    return 0;
  }

  if (Opts.DotPolicies) {
    // There is no registry iteration API by design (policies are looked
    // up by name); print the ones referenced by clients instead.
    for (const auto &[Name, Client] : File.Clients) {
      (void)Name;
      for (const plan::RequestSite &Site : plan::extractRequests(Client)) {
        if (Site.policy().isTrivial())
          continue;
        if (const policy::UsageAutomaton *A =
                File.Registry.find(Site.policy().Name))
          A->printDot(Ctx.interner(), std::cout);
      }
    }
  }

  core::RunTally Tally;
  for (const auto &[Name, Client] : File.Clients) {
    std::optional<plan::Plan> FirstValid = S->verifyClient(
        Name, Client, Opts.OnlyPlan, Opts.Enumerate, std::cout, Tally);
    if (!FirstValid || !Opts.Run)
      continue;

    net::Interpreter Interp(Ctx, File.Repo, File.Registry,
                            {{Name, Client, *FirstValid}});
    net::RunStats Stats = Interp.run(/*Seed=*/1);
    std::cout << "run: " << Stats.StepsTaken << " steps, "
              << (Stats.AllCompleted ? "completed" : "stuck")
              << ", history: " << Interp.history(0).str(Ctx.interner())
              << "\n";
    if (Opts.Trace)
      for (const std::string &Line : Interp.trace())
        std::cout << "  " << Line << "\n";
  }
  return Tally.exitCode();
}

//===----------------------------------------------------------------------===//
// susc lint
//===----------------------------------------------------------------------===//

struct LintCliOptions : FileCommand {
  analysis::LintOptions Lint;
  DiagFormat Format = DiagFormat::Text;
  bool ListPasses = false;
};

bool parseLintArgs(int Argc, char **Argv, LintCliOptions &Opts) {
  auto Own = [&](const std::string &Arg, int &) {
    if (Arg.rfind("--diag-format=", 0) == 0)
      return taken(parseDiagFormat(Arg, Opts.Format));
    if (Arg == "-Werror")
      Opts.Lint.WarningsAsErrors = true;
    else if (Arg.rfind("-Werror=", 0) == 0)
      Opts.Lint.ErrorIds.insert(Arg.substr(std::string("-Werror=").size()));
    else if (Arg.rfind("--disable=", 0) == 0)
      Opts.Lint.DisabledIds.insert(
          Arg.substr(std::string("--disable=").size()));
    else if (Arg == "--list-passes")
      Opts.ListPasses = Opts.InputOptional = true;
    else
      return Flag::NotMine;
    return Flag::Taken;
  };
  // Argv[1] is the "lint" subcommand itself.
  return parseFileCommand(Argc, Argv, /*First=*/2, Opts, printLintUsage, Own);
}

int runLint(const LintCliOptions &Opts) {
  if (Opts.ListPasses) {
    for (const analysis::LintPass *Pass : analysis::allLintPasses())
      std::cout << Pass->id() << "  [" << Pass->category() << "]  "
                << Pass->description() << "\n";
    return 0;
  }

  std::unique_ptr<core::Session> S =
      openSession(Opts.InputPath, /*Jobs=*/1, /*Governor=*/nullptr,
                  Opts.Format, std::cout);
  if (!S)
    return 2;
  return S->lint(Opts.Lint, Opts.Format, std::cout);
}

//===----------------------------------------------------------------------===//
// susc plan
//===----------------------------------------------------------------------===//

struct PlanCliOptions : FileCommand {
  uint64_t Jobs = 1;
  uint64_t ChurnRounds = 0;
  uint64_t Seed = 1;
  TenantBudget Budget; ///< --deadline-ms / --max-*-states
};

bool parsePlanArgs(int Argc, char **Argv, PlanCliOptions &Opts) {
  auto Own = [&](const std::string &Arg, int &I) {
    if (Arg == "--churn")
      return taken(
          takeCount(Argc, Argv, I, Arg, Opts.ChurnRounds, /*Min=*/1));
    if (Arg == "--seed")
      return taken(takeCount(Argc, Argv, I, Arg, Opts.Seed));
    if (Arg == "--jobs")
      return taken(takeCount(Argc, Argv, I, Arg, Opts.Jobs, 1, MaxJobs));
    if (uint64_t *Field = budgetField(Arg, Opts.Budget))
      return taken(takeCount(Argc, Argv, I, Arg, *Field));
    return Flag::NotMine;
  };
  // Argv[1] is the "plan" subcommand itself.
  return parseFileCommand(Argc, Argv, /*First=*/2, Opts, printPlanUsage, Own);
}

int runPlan(const PlanCliOptions &Opts) {
  std::unique_ptr<core::Session> S =
      openSession(Opts.InputPath, Opts.Jobs, Opts.Budget.governor(),
                  DiagFormat::Text, std::cerr);
  if (!S)
    return 2;
  std::string Err;
  int Code = S->planReport(Opts.ChurnRounds, Opts.Seed, std::cout, Err);
  if (!Err.empty())
    std::cerr << "susc: " << Err << "\n";
  return Code;
}

//===----------------------------------------------------------------------===//
// susc fuzz
//===----------------------------------------------------------------------===//

struct FuzzCliOptions {
  bool Help = false; ///< --help/-h: print usage, exit 0 (see FileCommand).
  uint64_t Seeds = 100;
  uint64_t BaseSeed = 0;
  bool SeedSet = false; ///< --seed was given explicitly.
  bool Replay = false;
  bool NoChaos = false;
  uint64_t Depth = 4;
  uint64_t Alphabet = 3;
  uint64_t Policies = 2;
  uint64_t Services = 3;
  uint64_t Clients = 2;
  uint64_t Width = 2;
  uint64_t TraceLen = 48;
};

void printFuzzUsage(std::ostream &OS) {
  OS << "usage: susc fuzz [options]\n"
        "  --seeds N        sweep N consecutive seeds (default 100)\n"
        "  --seed N         first (or, with --replay, only) seed\n"
        "  --replay         re-run just --seed (which must be given\n"
        "                   explicitly), printing the generated program\n"
        "                   and every oracle verdict\n"
        "  --no-chaos       skip the governor chaos soak\n"
        "  --depth N / --alphabet N / --policies N / --services N /\n"
        "  --clients N / --width N   generator difficulty knobs\n"
        "  --trace-len N    labels fed to the monitor pair (default 48)\n"
        "exit codes: 0 every seed clean, 1 divergence or parser-battery\n"
        "            failure, 2 usage error\n";
}

bool parseFuzzArgs(int Argc, char **Argv, FuzzCliOptions &Opts) {
  // The sweep length and the generator knobs: counts of at least 1.
  const std::pair<std::string, uint64_t *> Counts[] = {
      {"--seeds", &Opts.Seeds},       {"--depth", &Opts.Depth},
      {"--alphabet", &Opts.Alphabet}, {"--policies", &Opts.Policies},
      {"--services", &Opts.Services}, {"--clients", &Opts.Clients},
      {"--width", &Opts.Width},       {"--trace-len", &Opts.TraceLen}};
  // Argv[1] is the "fuzz" subcommand itself.
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Count = std::find_if(std::begin(Counts), std::end(Counts),
                              [&](const auto &C) { return C.first == Arg; });
    if (Count != std::end(Counts)) {
      if (!takeCount(Argc, Argv, I, Arg, *Count->second, /*Min=*/1))
        return false;
    } else if (Arg == "--seed") {
      if (!takeCount(Argc, Argv, I, Arg, Opts.BaseSeed))
        return false;
      Opts.SeedSet = true;
    } else if (Arg == "--replay") {
      Opts.Replay = true;
    } else if (Arg == "--no-chaos") {
      Opts.NoChaos = true;
    } else if (Arg == "--help" || Arg == "-h") {
      Opts.Help = true;
      return true;
    } else {
      std::cerr << "susc: unknown option '" << Arg
                << "' (susc fuzz takes no input file)\n";
      printFuzzUsage(std::cerr);
      return false;
    }
  }
  // --replay without --seed used to silently replay the default seed 0 —
  // almost never what a bug report meant. Demand the seed explicitly.
  if (Opts.Replay && !Opts.SeedSet) {
    std::cerr << "susc: --replay requires an explicit --seed "
                 "(the failing seed printed by the sweep)\n";
    return false;
  }
  return true;
}

fuzz::FuzzOptions fuzzOptions(const FuzzCliOptions &Opts) {
  fuzz::FuzzOptions O;
  O.Gen.Depth = static_cast<unsigned>(Opts.Depth);
  O.Gen.AlphabetSize = static_cast<unsigned>(Opts.Alphabet);
  O.Gen.NumPolicies = static_cast<unsigned>(Opts.Policies);
  O.Gen.NumServices = static_cast<unsigned>(Opts.Services);
  O.Gen.NumClients = static_cast<unsigned>(Opts.Clients);
  O.Gen.ChoiceWidth = static_cast<unsigned>(Opts.Width);
  O.MonitorTraceLen = static_cast<unsigned>(Opts.TraceLen);
  O.Chaos = !Opts.NoChaos;
  return O;
}

void printDivergences(const std::vector<fuzz::Divergence> &Ds) {
  for (const fuzz::Divergence &D : Ds)
    std::cout << "  [" << D.Check << "] " << D.Detail << "\n";
}

int runFuzz(const FuzzCliOptions &Opts) {
  // The deterministic adversarial battery runs once per invocation: it is
  // what demonstrably catches the lexer-overflow and parser-depth bugs if
  // their fixes regress.
  std::vector<fuzz::Divergence> Battery = fuzz::parserTorture();
  if (!Battery.empty()) {
    std::cout << "fuzz: parser torture battery FAILED ("
              << Battery.size() << " finding(s)):\n";
    printDivergences(Battery);
    return 1;
  }

  fuzz::FuzzOptions O = fuzzOptions(Opts);

  if (Opts.Replay) {
    fuzz::SeedReport R = fuzz::runSeed(Opts.BaseSeed, O);
    std::cout << "=== seed " << R.Seed << " program ===\n"
              << R.Program.source() << "=== oracles ===\n";
    if (R.clean()) {
      std::cout << "seed " << R.Seed << ": all oracles agree\n";
      return 0;
    }
    std::cout << R.Divergences.size() << " divergence(s):\n";
    printDivergences(R.Divergences);
    std::cout << "=== minimized reproducer ===\n" << R.MinimizedSource;
    return 1;
  }

  for (uint64_t S = Opts.BaseSeed; S < Opts.BaseSeed + Opts.Seeds; ++S) {
    fuzz::SeedReport R = fuzz::runSeed(S, O);
    if (!R.clean()) {
      std::cout << "fuzz: seed " << S << " FAILED with "
                << R.Divergences.size() << " divergence(s):\n";
      printDivergences(R.Divergences);
      std::cout << "=== minimized reproducer ===\n"
                << R.MinimizedSource
                << "replay with: susc fuzz --seed " << S << " --replay\n";
      return 1;
    }
  }
  std::cout << "fuzz: " << Opts.Seeds << " seed(s) starting at "
            << Opts.BaseSeed << ", parser battery + differential oracles"
            << (O.Chaos ? " + chaos soak" : "") << ": all clean\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// Observability plumbing
//===----------------------------------------------------------------------===//

/// Writes the trace/metrics files after the tool ran. Returns false (with a
/// diagnostic) if an output file cannot be written.
bool writeObservability(const std::string &TraceOut,
                        const std::string &MetricsOut) {
  bool Ok = true;
  auto WriteTo = [&Ok](const std::string &Path, auto &&Emit) {
    std::ofstream Out(Path);
    if (!Out) {
      std::cerr << "susc: cannot write '" << Path << "'\n";
      Ok = false;
      return;
    }
    Emit(Out);
    if (!Out.good()) {
      std::cerr << "susc: error writing '" << Path << "'\n";
      Ok = false;
    }
  };
  if (!TraceOut.empty())
    WriteTo(TraceOut, [](std::ostream &OS) { trace::writeChromeTrace(OS); });
  if (!MetricsOut.empty())
    WriteTo(MetricsOut, [](std::ostream &OS) { metrics::writeJson(OS); });
  return Ok;
}

/// Parses and runs one file-taking mode. The tracer and registry are
/// switched on only when their output flag was given: with both absent
/// every instrumentation point in the pipeline stays a single atomic
/// load. An output file that cannot be written turns exit 0 into 2.
template <typename Options>
int runFileCommand(int Argc, char **Argv,
                   bool (*Parse)(int, char **, Options &),
                   void (*Usage)(std::ostream &),
                   int (*Run)(const Options &)) {
  Options Opts;
  if (!Parse(Argc, Argv, Opts))
    return 2;
  if (Opts.Help) {
    Usage(std::cout);
    return 0;
  }
  if (!Opts.TraceOut.empty())
    trace::enable();
  if (!Opts.MetricsOut.empty())
    metrics::enable();
  int Code = Run(Opts);
  if (!writeObservability(Opts.TraceOut, Opts.MetricsOut) && Code == 0)
    Code = 2;
  return Code;
}

//===----------------------------------------------------------------------===//
// susc --connect (daemon client mode)
//===----------------------------------------------------------------------===//

/// Ceiling on a daemon response payload the client will buffer. Far above
/// any real report; a garbage header cannot balloon the client.
constexpr uint64_t MaxResponsePayload = uint64_t(1) << 30;

void printConnectUsage(std::ostream &OS) {
  OS << "usage: susc --connect SOCKET VERB [key=value]...\n"
        "  sends one request to a listening susd and exits with the code\n"
        "  the daemon returns (the plain susc exit contract)\n"
        "  verbs: ping, stats, verify, lint, churn, snapshot, shutdown\n"
        "  common keys: client=NAME plan=NAME tenant=NAME deadline_ms=N\n"
        "               max_product_states=N\n"
        "               rounds=N seed=N file=PATH enumerate=0\n";
}

int runConnect(int Argc, char **Argv) {
  if (Argc >= 3 && (std::string(Argv[2]) == "--help" ||
                    std::string(Argv[2]) == "-h")) {
    printConnectUsage(std::cout);
    return 0;
  }
  if (Argc < 4) {
    printConnectUsage(std::cerr);
    return 2;
  }
  std::string SocketPath = Argv[2];
  daemon::Request Req;
  Req.Verb = Argv[3];
  for (int I = 4; I < Argc; ++I) {
    std::string Arg = Argv[I];
    size_t Eq = Arg.find('=');
    if (Eq == std::string::npos || Eq == 0) {
      std::cerr << "susc: request parameter '" << Arg
                << "' is not key=value\n";
      return 2;
    }
    Req.Params[Arg.substr(0, Eq)] = Arg.substr(Eq + 1);
  }

  std::string Err;
  int Fd = daemon::connectTo(SocketPath, Err);
  if (Fd < 0) {
    std::cerr << "susc: " << Err << "\n";
    return 2;
  }
  int Code = 2;
  std::string Header, Body;
  int Exit = 2;
  uint64_t PayloadLen = 0;
  if (!daemon::writeAll(Fd, daemon::formatRequest(Req) + "\n", Err) ||
      !daemon::readLine(Fd, Header, /*MaxLen=*/4096, Err)) {
    std::cerr << "susc: " << Err << "\n";
  } else if (!daemon::parseResponseHeader(Header, Exit, PayloadLen, Err)) {
    std::cerr << "susc: " << Err << "\n";
  } else if (PayloadLen > MaxResponsePayload) {
    std::cerr << "susc: response payload of " << PayloadLen
              << " bytes exceeds the client cap\n";
  } else if (!daemon::readExact(Fd, PayloadLen, Body, Err)) {
    std::cerr << "susc: " << Err << "\n";
  } else {
    std::cout << Body;
    Code = Exit;
  }
  daemon::closeFd(Fd);
  return Code;
}

/// True when \p Arg was almost certainly meant as a subcommand, not an
/// input path: no option prefix, no path separator or extension, and no
/// file of that name exists. Keeps `susc plna file.sus` a crisp
/// "unknown subcommand" instead of "cannot open 'plna'", while
/// extensionless-but-real input files still verify.
bool looksLikeSubcommand(const std::string &Arg) {
  if (Arg.empty() || Arg[0] == '-')
    return false;
  if (Arg.find('/') != std::string::npos ||
      Arg.find('.') != std::string::npos)
    return false;
  return !std::ifstream(Arg).good();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::string(Argv[1]) == "--connect")
    return runConnect(Argc, Argv);
  if (Argc > 1 && std::string(Argv[1]) == "plan")
    return runFileCommand(Argc, Argv, parsePlanArgs, printPlanUsage, runPlan);
  if (Argc > 1 && std::string(Argv[1]) == "lint")
    return runFileCommand(Argc, Argv, parseLintArgs, printLintUsage, runLint);
  if (Argc > 1 && std::string(Argv[1]) == "fuzz") {
    FuzzCliOptions Opts;
    if (!parseFuzzArgs(Argc, Argv, Opts))
      return 2;
    if (Opts.Help) {
      printFuzzUsage(std::cout);
      return 0;
    }
    return runFuzz(Opts);
  }
  if (Argc > 1 && looksLikeSubcommand(Argv[1])) {
    std::cerr << "susc: unknown subcommand '" << Argv[1]
              << "'; valid subcommands are 'fuzz', 'lint' and 'plan' (or "
                 "pass a .sus file to verify)\n";
    return 2;
  }
  return runFileCommand(Argc, Argv, parseArgs, printUsage, runTool);
}
