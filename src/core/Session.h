//===- core/Session.h - One parsed file behind every front end --*- C++ -*-===//
///
/// \file
/// The engine both front ends drive: `susc` opens one Session per command,
/// `susd` keeps one resident and serves requests against it. A Session
/// owns the parsed file, its HistContext and the indexed Verifier (with
/// the shared VerifierCache and the current request's governor), and it is
/// the only code that renders a front end's verify report, plan summary
/// and churn replay, and lint findings. So `susc FILE`, `susd --warm FILE`
/// and a daemon `verify` request print the same bytes by construction
/// (DESIGN.md §13). A Session is single-threaded, like its HistContext;
/// susd serializes requests on its own lock.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_CORE_SESSION_H
#define SUS_CORE_SESSION_H

#include "core/Snapshot.h"
#include "core/Verifier.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace sus {
namespace analysis {
struct LintOptions;
} // namespace analysis

namespace core {

/// How a verify or plan run went across its clients.
struct RunTally {
  bool AllOk = true;
  bool AnyInconclusive = false;

  /// 0 when every client has a valid plan, 1 when some client
  /// conclusively has none, 3 when any verdict is Inconclusive(resource):
  /// a missing plan under a tripped budget is not a refutation.
  int exitCode() const { return AnyInconclusive ? 3 : (AllOk ? 0 : 1); }
};

class Session {
public:
  /// Parses \p Source (diagnostics stamped with \p FileName) and builds
  /// the verifier with \p Jobs workers under \p Governor (null =
  /// ungoverned). Null on a parse error, with the diagnostics rendered in
  /// \p Format into \p Err.
  static std::unique_ptr<Session>
  create(std::string Source, std::string FileName, unsigned Jobs,
         std::shared_ptr<ResourceGovernor> Governor, DiagFormat Format,
         std::string &Err);

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Verifies one client into \p OS: its declared plans (only \p OnlyPlan
  /// when non-empty), then, with \p Enumerate and no \p OnlyPlan, the
  /// enumerated candidates. Folds the outcome into \p Tally and returns
  /// the first valid plan, declared ones first.
  std::optional<plan::Plan> verifyClient(Symbol Name,
                                         const hist::Expr *Client,
                                         const std::string &OnlyPlan,
                                         bool Enumerate, std::ostream &OS,
                                         RunTally &Tally);

  /// verifyClient over every client. Returns the exit code.
  int verifyAll(std::ostream &OS, const std::string &OnlyPlan = "",
                bool Enumerate = true);

  /// Per client, the candidate and valid-plan counts and the index
  /// counters; with \p ChurnRounds > 0, also a churn replay whose rounds
  /// each remove and re-publish one service picked by a generator seeded
  /// with \p Seed, repairing the report incrementally. Returns the exit
  /// code, or 2 with \p Err set when churn is asked of an empty
  /// repository.
  int planReport(uint64_t ChurnRounds, uint64_t Seed, std::ostream &OS,
                 std::string &Err);

  /// Runs the lint passes and renders their findings in \p Format (plus a
  /// summary line in text). Returns 1 when anything was found, else 0.
  int lint(const analysis::LintOptions &Opts, DiagFormat Format,
           std::ostream &OS);

  /// Absorbs a snapshot into the cache and warm-starts the index from its
  /// summaries. False with a diagnostic in \p Err on a corrupt,
  /// wrong-version or mismatched snapshot; the cache is then untouched.
  bool loadSnapshot(std::string_view Bytes, std::string &Err,
                    SnapshotStats *Stats = nullptr);

  /// Serializes the cache and the index (built first if need be).
  std::string snapshot(SnapshotStats *Stats = nullptr);

  /// Writes snapshot() to \p Path atomically: a crash mid-save leaves the
  /// previous file whole. False with a diagnostic in \p Err on I/O error.
  bool saveSnapshot(const std::string &Path, std::string &Err,
                    SnapshotStats *Stats = nullptr);

  /// Replaces the governor for subsequent checks; null disarms.
  void setGovernor(std::shared_ptr<ResourceGovernor> Governor) {
    V->setGovernor(std::move(Governor));
  }

  hist::HistContext &context() { return Ctx; }
  const syntax::SusFile &file() const { return *File; }
  Verifier &verifier() { return *V; }

private:
  Session(std::string Source, std::string FileName)
      : Source(std::move(Source)), FileName(std::move(FileName)) {}

  /// Diagnostics keep views of both strings: they never move.
  std::string Source;
  std::string FileName;
  hist::HistContext Ctx;
  std::optional<syntax::SusFile> File;
  std::unique_ptr<Verifier> V;
};

} // namespace core
} // namespace sus

#endif // SUS_CORE_SESSION_H
