//===- daemon/Daemon.cpp - The resident verification engine ---------------===//

#include "daemon/Daemon.h"

#include "analysis/Lint.h"
#include "daemon/Socket.h"
#include "plan/ServiceIndex.h"
#include "support/ParseInt.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

using namespace sus;
using namespace sus::daemon;

namespace {

Response errorResponse(const std::string &Msg) {
  Response Resp;
  Resp.Exit = 2;
  Resp.Body = "susd: " + Msg + "\n";
  return Resp;
}

/// Reads the integer parameter \p Key into \p Out when present (else
/// leaves it alone).
bool countParam(const Request &R, const std::string &Key, uint64_t &Out,
                std::string &Err, uint64_t Min = 0) {
  return !R.has(Key) ||
         parseInteger("parameter '" + Key + "'", R.param(Key), Out, Err, Min);
}

} // namespace

std::unique_ptr<Engine> Engine::create(std::string Source,
                                       std::string FileName,
                                       EngineOptions Opts, std::string &Err) {
  std::unique_ptr<core::Session> S =
      core::Session::create(std::move(Source), std::move(FileName), Opts.Jobs,
                            /*Governor=*/nullptr, DiagFormat::Text, Err);
  if (!S)
    return nullptr;
  return std::make_unique<Engine>(std::move(S), std::move(Opts));
}

int Engine::warmAll(std::ostream &OS) {
  MutexLock Lock(M);
  return S->verifyAll(OS);
}

Response Engine::handle(const Request &R) {
  Response Resp;
  // A health check touches no session state: answer it without waiting
  // behind the request that holds the session lock.
  if (R.Verb == "ping") {
    Resp.Body = "pong\n";
    return Resp;
  }

  MutexLock Lock(M);
  if (R.Verb == "shutdown") {
    Shutdown.store(true, std::memory_order_relaxed);
    Resp.Body = "bye\n";
    return Resp;
  }
  if (R.Verb == "stats")
    return stats();
  if (R.Verb == "snapshot")
    return snapshot(R);

  if (R.Verb == "verify" || R.Verb == "lint" || R.Verb == "churn") {
    // Arm this request's governor: its tenant's budget, tightened (never
    // loosened) by the request's own overrides.
    TenantBudget Override;
    std::string Err;
    if (!countParam(R, "deadline_ms", Override.DeadlineMs, Err) ||
        !countParam(R, "max_product_states", Override.MaxProductStates,
                    Err) ||
        !countParam(R, "max_subset_states", Override.MaxSubsetStates, Err))
      return errorResponse(Err);
    S->setGovernor(
        Opts.Tenants.governorFor(R.param("tenant", "*"), Override));
    if (R.Verb == "verify") {
      Resp = verify(R);
    } else if (R.Verb == "lint") {
      std::ostringstream OS;
      Resp.Exit = S->lint(analysis::LintOptions(), DiagFormat::Text, OS);
      Resp.Body = OS.str();
    } else {
      Resp = churn(R);
    }
    S->setGovernor(nullptr); // Disarm: the next request re-arms its own.
    return Resp;
  }

  return errorResponse("unknown verb '" + R.Verb +
                       "' (valid: ping, stats, verify, lint, churn, "
                       "snapshot, shutdown)");
}

Response Engine::verify(const Request &R) {
  std::string OnlyPlan = R.param("plan");
  bool Enumerate = R.param("enumerate", "1") != "0";
  Response Resp;
  std::ostringstream OS;

  std::string Only = R.param("client");
  if (Only.empty()) {
    Resp.Exit = S->verifyAll(OS, OnlyPlan, Enumerate);
  } else {
    Symbol Name = S->context().interner().lookup(Only);
    const hist::Expr *Client =
        Name.isValid() ? S->file().findClient(Name) : nullptr;
    if (!Client)
      return errorResponse("no client named '" + Only + "'");
    core::RunTally Tally;
    S->verifyClient(Name, Client, OnlyPlan, Enumerate, OS, Tally);
    Resp.Exit = Tally.exitCode();
  }
  Resp.Body = OS.str();
  return Resp;
}

Response Engine::churn(const Request &R) {
  uint64_t Rounds = 1, Seed = 1;
  std::string Err;
  if (!countParam(R, "rounds", Rounds, Err, /*Min=*/1) ||
      !countParam(R, "seed", Seed, Err))
    return errorResponse(Err);
  Response Resp;
  std::ostringstream OS;
  Resp.Exit = S->planReport(Rounds, Seed, OS, Err);
  if (!Err.empty())
    return errorResponse(Err);
  Resp.Body = OS.str();
  return Resp;
}

Response Engine::snapshot(const Request &R) {
  std::string Path = R.param("file");
  if (Path.empty())
    return errorResponse("snapshot needs file=PATH");
  core::SnapshotStats Stats;
  std::string Err;
  if (!S->saveSnapshot(Path, Err, &Stats))
    return errorResponse(Err);

  Response Resp;
  std::ostringstream OS;
  OS << "snapshot: " << Stats.Bytes << " bytes to '" << Path << "' ("
     << Stats.Projections << " projections, " << Stats.Compliances
     << " compliances, " << Stats.Validities << " validities, "
     << Stats.IndexEntries << " index entries)\n";
  Resp.Body = OS.str();
  return Resp;
}

Response Engine::stats() {
  Response Resp;
  std::ostringstream OS;
  core::Verifier &V = S->verifier();
  core::VerifierStats VS = V.stats();
  OS << "cache: compliance " << VS.ComplianceHits << "/"
     << VS.ComplianceLookups << " hits, projection " << VS.ProjectionHits
     << "/" << VS.ProjectionLookups << " hits, validity " << VS.ValidityHits
     << "/" << VS.ValidityLookups << " hits\n";
  if (const plan::ServiceIndex *Index = V.index()) {
    plan::IndexStats IStats = Index->stats();
    OS << "index: " << Index->size() << " services, " << IStats.Lookups
       << " lookups (" << IStats.Hits << " memo hits)\n";
  }
  OS << "repository: " << S->file().Repo.size() << " services, "
     << S->file().Clients.size() << " clients\n";
  Resp.Body = OS.str();
  return Resp;
}

//===----------------------------------------------------------------------===//
// The accept loop
//===----------------------------------------------------------------------===//

namespace {

/// Serves one connection end to end: one request line in, one response
/// out. Runs on a pool worker; Engine::handle serializes internally.
void serveConnection(Engine &E, int Fd) {
  std::string Err;
  std::string Line;
  Response Resp;
  if (!readLine(Fd, Line, MaxRequestLine, Err, RequestLineDeadlineMs)) {
    Resp = errorResponse(Err);
  } else {
    Request Req;
    if (!parseRequest(Line, Req, Err))
      Resp = errorResponse(Err);
    else
      Resp = E.handle(Req);
  }
  std::string Wire = formatResponseHeader(Resp) + "\n" + Resp.Body;
  std::string WriteErr;
  (void)writeAll(Fd, Wire, WriteErr); // Peer may hang up; nothing to do.
  closeFd(Fd);
}

} // namespace

int daemon::serve(Engine &E, const ServeOptions &Opts) {
  std::ostream &Log = Opts.Log ? *Opts.Log : std::cerr;
  std::string Err;
  int ListenFd = listenOn(Opts.SocketPath, Err);
  if (ListenFd < 0) {
    Log << "susd: " << Err << "\n";
    return 2;
  }
  Log << "susd: listening on " << Opts.SocketPath << "\n";
  Log.flush();

  {
    ThreadPool Pool(std::max(1u, Opts.Workers));
    while (!E.shutdownRequested()) {
      int Fd = acceptClient(ListenFd, /*TimeoutMs=*/200, Err);
      if (Fd == -2) {
        Log << "susd: " << Err << "\n";
        break;
      }
      if (Fd < 0)
        continue; // Timeout: re-check the shutdown flag.
      Pool.submit([&E, Fd](unsigned) { serveConnection(E, Fd); });
    }
    // Pool destructor drains in-flight connections before we unlink.
  }

  closeFd(ListenFd);
  std::remove(Opts.SocketPath.c_str());
  Log << "susd: shut down\n";
  return 0;
}
