//===- tools/susd.cpp - The resident SUS verification daemon --------------===//
///
/// \file
/// susd — keep one parsed .sus session resident (repository, compiled
/// policy DFAs, ServiceIndex, VerifierCache) and serve verify/lint/churn
/// requests over a local AF_UNIX socket, so repeat verifications pay
/// memo-table lookups instead of cold re-analysis.
///
///   susd --listen /tmp/susd.sock file.sus      serve until shutdown
///   susd --warm file.sus                       one-shot verify (cold)
///   susd --snapshot s.bin --warm file.sus      one-shot verify (warm)
///   susd --warm --save-snapshot s.bin file.sus cut a snapshot
///
/// Every report comes from the same core::Session `susc` runs, so
/// `susd --warm FILE` prints exactly what `susc FILE` prints.
///
/// Clients talk to a listening daemon with `susc --connect SOCKET VERB
/// [key=value]...` and exit with the code the request earned (the plain
/// susc contract: 0 ok, 1 refuted, 2 usage/parse error, 3 inconclusive).
///
/// Exit codes for susd itself: the one-shot --warm verify code, 0 for a
/// clean daemon shutdown, and 2 on usage errors, unparsable input or a
/// rejected snapshot (wrong version, corrupt, or cut from a different
/// repository — never loaded partially).
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "support/ParseInt.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace sus;

namespace {

struct DaemonCliOptions {
  bool Help = false;
  std::string InputPath;
  std::string ListenPath;      ///< --listen: empty = one-shot mode.
  std::string SnapshotIn;      ///< --snapshot: load at startup.
  std::string SnapshotOut;     ///< --save-snapshot: write before exit/serve.
  bool Warm = false;           ///< --warm: verify every client at startup.
  uint64_t Jobs = 1;
  uint64_t Workers = 2;        ///< Connection-handling threads.
  std::vector<std::string> TenantSpecs;
};

constexpr uint64_t MaxJobs = 256;

void printUsage(std::ostream &OS) {
  OS << "usage: susd [options] file.sus\n"
        "  --listen PATH       serve requests on an AF_UNIX socket at PATH\n"
        "                      until a shutdown request arrives; without\n"
        "                      --listen susd runs one-shot and exits\n"
        "  --warm              verify every client at startup (fills the\n"
        "                      memo tables; the one-shot exit code is the\n"
        "                      verify verdict)\n"
        "  --snapshot FILE     load a persistent cache snapshot before\n"
        "                      anything else; a wrong-version, corrupt or\n"
        "                      mismatched snapshot is rejected (exit 2)\n"
        "  --save-snapshot FILE\n"
        "                      write the cache snapshot after warming\n"
        "                      (one-shot) / before serving (daemon)\n"
        "  --jobs N            verifier worker threads (1..256)\n"
        "  --workers N         connection-handling threads (default 2)\n"
        "  --tenant SPEC       per-tenant budget NAME:DL_MS:PROD\n"
        "                      (empty fields = no limit; NAME '*' sets the\n"
        "                      default; repeatable)\n"
        "exit codes: one-shot verify verdict (0/1/3), 0 on clean daemon\n"
        "            shutdown, 2 on usage/parse/snapshot errors\n";
}

bool parseArgs(int Argc, char **Argv, DaemonCliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Consumes the operand of Arg, diagnosing a missing one.
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc) {
        std::cerr << "susd: missing value for '" << Arg << "'\n";
        return false;
      }
      Out = Argv[++I];
      return true;
    };
    // Consumes a thread count (1..MaxJobs).
    auto Threads = [&](uint64_t &Out) {
      std::string Text, Err;
      if (!Value(Text))
        return false;
      if (!parseInteger(Arg, Text, Out, Err, /*Min=*/1, MaxJobs)) {
        std::cerr << "susd: " << Err << "\n";
        return false;
      }
      return true;
    };
    if (Arg == "--listen") {
      if (!Value(Opts.ListenPath))
        return false;
    } else if (Arg == "--snapshot") {
      if (!Value(Opts.SnapshotIn))
        return false;
    } else if (Arg == "--save-snapshot") {
      if (!Value(Opts.SnapshotOut))
        return false;
    } else if (Arg == "--warm") {
      Opts.Warm = true;
    } else if (Arg == "--jobs") {
      if (!Threads(Opts.Jobs))
        return false;
    } else if (Arg == "--workers") {
      if (!Threads(Opts.Workers))
        return false;
    } else if (Arg == "--tenant") {
      if (!Value(Opts.TenantSpecs.emplace_back()))
        return false;
    } else if (Arg == "--help" || Arg == "-h") {
      Opts.Help = true;
      return true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "susd: unknown option '" << Arg << "'\n";
      printUsage(std::cerr);
      return false;
    } else if (Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::cerr << "susd: multiple input files\n";
      return false;
    }
  }
  if (Opts.InputPath.empty()) {
    printUsage(std::cerr);
    return false;
  }
  return true;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonCliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;
  if (Opts.Help) {
    printUsage(std::cout);
    return 0;
  }

  daemon::EngineOptions EOpts;
  for (const std::string &Spec : Opts.TenantSpecs) {
    std::string Err;
    if (!EOpts.Tenants.addSpec(Spec, Err)) {
      std::cerr << "susd: " << Err << "\n";
      return 2;
    }
  }

  std::string Source;
  if (!readFile(Opts.InputPath, Source)) {
    std::cerr << "susd: cannot open '" << Opts.InputPath << "'\n";
    return 2;
  }

  std::string Err;
  std::unique_ptr<core::Session> Session = core::Session::create(
      std::move(Source), Opts.InputPath, static_cast<unsigned>(Opts.Jobs),
      /*Governor=*/nullptr, DiagFormat::Text, Err);
  if (!Session) {
    std::cerr << Err;
    return 2;
  }

  if (!Opts.SnapshotIn.empty()) {
    std::string Bytes;
    if (!readFile(Opts.SnapshotIn, Bytes)) {
      std::cerr << "susd: cannot open snapshot '" << Opts.SnapshotIn
                << "'\n";
      return 2;
    }
    core::SnapshotStats Stats;
    if (!Session->loadSnapshot(Bytes, Err, &Stats)) {
      // The rejection contract: a bad snapshot is a clean exit 2 with a
      // diagnostic, never a partial load (CI asserts on this).
      std::cerr << "susd: snapshot rejected: " << Err << "\n";
      return 2;
    }
    std::cerr << "susd: snapshot loaded (" << Stats.Compliances
              << " compliances, " << Stats.Validities << " validities, "
              << Stats.IndexEntries << " index entries)\n";
  }

  int WarmCode = 0;
  if (Opts.Warm)
    WarmCode = Session->verifyAll(std::cout);

  if (!Opts.SnapshotOut.empty()) {
    core::SnapshotStats Stats;
    if (!Session->saveSnapshot(Opts.SnapshotOut, Err, &Stats)) {
      std::cerr << "susd: " << Err << "\n";
      return 2;
    }
    std::cerr << "susd: snapshot saved (" << Stats.Bytes << " bytes)\n";
  }

  if (Opts.ListenPath.empty())
    return WarmCode;

  daemon::Engine Engine(std::move(Session), std::move(EOpts));
  daemon::ServeOptions SOpts;
  SOpts.SocketPath = Opts.ListenPath;
  SOpts.Workers = static_cast<unsigned>(Opts.Workers);
  SOpts.Log = &std::cout;
  return daemon::serve(Engine, SOpts);
}
