//===- daemon/Daemon.h - The resident verification engine -------*- C++ -*-===//
///
/// \file
/// susd's core: an Engine keeps one core::Session resident — the parsed
/// file, shared VerifierCache, ServiceIndex and Verifier — and serves
/// protocol requests against it, so repeat verifications pay memo-table
/// lookups instead of re-parsing and re-exploring (DESIGN.md §13). The
/// Engine adds only the session lock, verb dispatch, tenant budgets and
/// the stats verb; every report comes from the Session, byte for byte
/// what susc prints.
///
/// Concurrency model: connections are accepted on the main thread and
/// handed to a ThreadPool; each request then takes the Engine's session
/// lock for its whole handling. The HistContext is single-threaded by
/// design, so requests serialize at the engine while socket I/O overlaps;
/// parallelism *within* a verification comes from the Verifier's own
/// worker shards (--jobs).
///
/// Per-request resource governance: each request names a tenant and may
/// ask for its own deadline/budgets; the TenantBudgetTable min-combines
/// them and a fresh governor is armed on the resident verifier for just
/// that request (trips are Inconclusive exit 3, never cached).
///
//===----------------------------------------------------------------------===//

#ifndef SUS_DAEMON_DAEMON_H
#define SUS_DAEMON_DAEMON_H

#include "core/Session.h"
#include "daemon/Protocol.h"
#include "support/Sync.h"
#include "support/TenantBudget.h"

#include <atomic>
#include <memory>
#include <ostream>
#include <string>

namespace sus {
namespace daemon {

struct EngineOptions {
  unsigned Jobs = 1;
  TenantBudgetTable Tenants;
};

/// The resident session. Create once, then handle() any number of
/// requests (thread-safe; requests serialize on the session lock).
class Engine {
public:
  /// Parses \p Source and builds the resident session. Null (with the
  /// diagnostics in \p Err) when the file does not parse.
  static std::unique_ptr<Engine> create(std::string Source,
                                        std::string FileName,
                                        EngineOptions Opts, std::string &Err);

  /// Serves \p S, a session the caller may already have warmed or loaded
  /// a snapshot into. Opts.Jobs is not consulted: \p S has its workers.
  Engine(std::unique_ptr<core::Session> S, EngineOptions Opts)
      : Opts(std::move(Opts)), S(std::move(S)) {}

  /// Serves one request. Never throws; unknown verbs and bad parameters
  /// come back as exit-2 responses.
  Response handle(const Request &R);

  /// Verifies every client (the susc verify report), warming the memo
  /// tables. Returns the susc exit code (0/1/3).
  int warmAll(std::ostream &OS);

  /// True once a shutdown request was served: the accept loop exits.
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_relaxed);
  }

private:
  Response verify(const Request &R) SUS_REQUIRES(M);
  Response churn(const Request &R) SUS_REQUIRES(M);
  Response snapshot(const Request &R) SUS_REQUIRES(M);
  Response stats() SUS_REQUIRES(M);

  const EngineOptions Opts;
  std::atomic<bool> Shutdown{false};

  /// Session lock: the HistContext (and everything interned in it) is
  /// single-threaded, so one request at a time touches the session.
  Mutex M;
  std::unique_ptr<core::Session> S SUS_GUARDED_BY(M);
};

struct ServeOptions {
  std::string SocketPath;
  unsigned Workers = 2; ///< Connection-handling threads.
  std::ostream *Log = nullptr;
};

/// Binds \p Path and serves requests until a shutdown request arrives.
/// Returns 0 on clean shutdown, 2 when the socket cannot be bound.
int serve(Engine &E, const ServeOptions &Opts);

} // namespace daemon
} // namespace sus

#endif // SUS_DAEMON_DAEMON_H
