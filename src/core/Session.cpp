//===- core/Session.cpp - One parsed file behind every front end ----------===//

#include "core/Session.h"

#include "analysis/Lint.h"
#include "core/Repair.h"
#include "plan/RepositoryDelta.h"
#include "plan/ServiceIndex.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <vector>

using namespace sus;
using namespace sus::core;

namespace {

/// A percentile over recorded repair latencies (rounded-down index, the
/// same convention as the benchmarks).
int64_t percentileUs(std::vector<int64_t> Sorted, size_t Pct) {
  if (Sorted.empty())
    return 0;
  std::sort(Sorted.begin(), Sorted.end());
  return Sorted[std::min(Sorted.size() - 1, Sorted.size() * Pct / 100)];
}

/// Writes \p Bytes to \p Path so that a crash leaves either the old file
/// or the new one whole, never a torn mix: the bytes go to a fresh file in
/// the target's directory, are fsynced, and that file is renamed over the
/// target; the directory is then fsynced so the rename is durable too.
bool writeFileAtomically(const std::string &Path, std::string_view Bytes,
                         std::string &Err) {
  static std::atomic<unsigned> Counter{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(Counter.fetch_add(1));
  int Fd =
      ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  int Errno = Fd < 0 ? errno : 0;
  for (size_t Done = 0; !Errno && Done < Bytes.size();) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N > 0)
      Done += static_cast<size_t>(N);
    else if (N == 0 || errno != EINTR)
      Errno = N == 0 ? EIO : errno;
  }
  if (Fd >= 0) {
    if (!Errno && ::fsync(Fd) != 0)
      Errno = errno;
    if (::close(Fd) != 0 && !Errno)
      Errno = errno;
    if (!Errno && ::rename(Tmp.c_str(), Path.c_str()) != 0)
      Errno = errno;
    if (Errno)
      ::unlink(Tmp.c_str());
  }
  if (Errno) {
    Err = "cannot write snapshot to '" + Path + "': " + std::strerror(Errno);
    return false;
  }

  size_t Slash = Path.rfind('/');
  std::string Dir =
      Slash == std::string::npos ? "." : Path.substr(0, Slash + 1);
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  return true;
}

} // namespace

std::unique_ptr<Session>
Session::create(std::string Source, std::string FileName, unsigned Jobs,
                std::shared_ptr<ResourceGovernor> Governor, DiagFormat Format,
                std::string &Err) {
  std::unique_ptr<Session> S(
      new Session(std::move(Source), std::move(FileName)));
  DiagnosticEngine Diags;
  S->File = syntax::parseSusFile(S->Ctx, S->Source, Diags, S->FileName);
  if (!S->File) {
    std::ostringstream OS;
    Diags.print(OS, Format);
    Err = OS.str();
    if (Err.empty())
      Err = "cannot parse '" + S->FileName + "'\n";
    return nullptr;
  }
  VerifierOptions VOpts;
  VOpts.Jobs = Jobs;
  VOpts.Governor = std::move(Governor);
  S->V = std::make_unique<Verifier>(S->Ctx, S->File->Repo,
                                    S->File->Registry, VOpts);
  return S;
}

std::optional<plan::Plan>
Session::verifyClient(Symbol Name, const hist::Expr *Client,
                      const std::string &OnlyPlan, bool Enumerate,
                      std::ostream &OS, RunTally &Tally) {
  OS << "== client " << Ctx.interner().text(Name) << " ==\n";
  std::optional<plan::Plan> FirstValid;

  for (const syntax::PlanDecl &Decl : File->Plans) {
    if (Decl.Client != Name)
      continue;
    std::string PlanName(Ctx.interner().text(Decl.Name));
    if (!OnlyPlan.empty() && PlanName != OnlyPlan)
      continue;
    PlanVerdict Verdict = V->checkPlan(Client, Name, Decl.Pi);
    OS << "plan " << PlanName << " " << Decl.Pi.str(Ctx.interner()) << ": ";
    if (Verdict.inconclusive()) {
      std::optional<ResourceExhausted> E = Verdict.exhaustedReason();
      OS << "Inconclusive(resource: "
         << (E ? resourceKindName(E->Which) : "unknown") << ")\n";
      Tally.AnyInconclusive = true;
      continue;
    }
    OS << (Verdict.isValid() ? "VALID" : "invalid") << "\n";
    for (const RequestCheck &C : Verdict.RequestChecks)
      if (!C.Compliant && !C.Exhausted) {
        OS << "  request " << C.Request << ": not compliant";
        if (C.Witness)
          OS << " (" << C.Witness->str(Ctx) << ")";
        OS << "\n";
      }
    if (!Verdict.Security.Valid &&
        Verdict.Security.Failure != validity::PlanFailureKind::None &&
        Verdict.Security.Failure !=
            validity::PlanFailureKind::ResourceExhausted) {
      OS << "  security: failed";
      if (Verdict.Security.Policy)
        OS << " (policy " << Verdict.Security.Policy->str(Ctx.interner())
           << ")";
      if (!Verdict.Security.Trace.empty()) {
        OS << " via";
        for (const std::string &L : Verdict.Security.Trace)
          OS << " " << L;
      }
      OS << "\n";
    }
    if (Verdict.isValid() && !FirstValid)
      FirstValid = Decl.Pi;
  }

  if (Enumerate && OnlyPlan.empty()) {
    VerificationReport Report = V->verifyClient(Client, Name);
    printReport(Report, Ctx, OS);
    if (Report.anyInconclusive())
      Tally.AnyInconclusive = true;
    if (!FirstValid) {
      std::vector<plan::Plan> Valid = Report.validPlans();
      if (!Valid.empty())
        FirstValid = Valid.front();
    }
  }

  if (!FirstValid)
    Tally.AllOk = false;
  return FirstValid;
}

int Session::verifyAll(std::ostream &OS, const std::string &OnlyPlan,
                       bool Enumerate) {
  RunTally Tally;
  for (const auto &[Name, Client] : File->Clients)
    verifyClient(Name, Client, OnlyPlan, Enumerate, OS, Tally);
  return Tally.exitCode();
}

int Session::planReport(uint64_t ChurnRounds, uint64_t Seed,
                        std::ostream &OS, std::string &Err) {
  std::vector<plan::Loc> Locs = File->Repo.locations();
  if (ChurnRounds > 0 && Locs.empty()) {
    Err = "churn needs a non-empty repository";
    return 2;
  }

  // Deterministic churn picks: a tiny LCG (constants from Numerical
  // Recipes) so replays are reproducible across runs and platforms.
  uint64_t Rng = Seed;
  auto NextRand = [&Rng]() {
    Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return Rng >> 33;
  };

  RunTally Tally;
  for (const auto &[Name, Client] : File->Clients) {
    OS << "== client " << Ctx.interner().text(Name) << " ==\n";

    RepairSession Repair(*V, Client, Name);
    const VerificationReport &Baseline = Repair.verify();
    printReportSummary(Baseline, OS);
    OS << "valid plans: " << Baseline.validPlans().size() << "\n";
    if (const plan::ServiceIndex *Index = V->index()) {
      plan::IndexStats IStats = Index->stats();
      OS << "index: " << Index->size() << " services, " << IStats.Lookups
         << " lookups (" << IStats.Hits << " memo hits), "
         << IStats.Candidates
         << " candidates, prescreen rejects: " << IStats.AlphabetRejects
         << " alphabet + " << IStats.FirstStepRejects << " first-step\n";
    }

    if (ChurnRounds > 0) {
      size_t Kept = 0, Dropped = 0, Reverified = 0, Repairs = 0;
      std::vector<int64_t> LatenciesUs;
      bool Tripped = false;
      for (uint64_t Round = 0; Round < ChurnRounds && !Tripped; ++Round) {
        plan::Loc L = Locs[NextRand() % Locs.size()];
        const hist::Expr *Service = File->Repo.find(L);
        unsigned Capacity = File->Repo.capacity(L);
        // One round = remove + re-publish: the repository ends the round
        // unchanged, and both delta directions get exercised.
        for (int Phase = 0; Phase < 2; ++Phase) {
          plan::RepositoryDelta Delta;
          Delta.Changes.push_back(
              Phase == 0
                  ? plan::applyRemove(File->Repo, L)
                  : plan::applyPublish(File->Repo, L, Service, Capacity));
          auto Start = std::chrono::steady_clock::now();
          Outcome<RepairStats> Stats = Repair.applyDelta(Delta);
          auto End = std::chrono::steady_clock::now();
          LatenciesUs.push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(End -
                                                                    Start)
                  .count());
          ++Repairs;
          if (!Stats.ok()) {
            OS << "churn: round " << Round << " Inconclusive(resource: "
               << resourceKindName(Stats.exhausted().Which) << ")\n";
            Tally.AnyInconclusive = true;
            Tripped = true;
            break;
          }
          Kept += Stats.value().PlansKept;
          Dropped += Stats.value().PlansDropped;
          Reverified += Stats.value().PlansReverified;
        }
      }
      OS << "churn: " << Repairs << " repairs over " << ChurnRounds
         << " round(s), plans kept " << Kept << ", dropped " << Dropped
         << ", reverified " << Reverified << "\n";
      OS << "repair latency: p50 " << percentileUs(LatenciesUs, 50)
         << " us, p99 " << percentileUs(LatenciesUs, 99) << " us\n";
      OS << "valid plans after churn: "
         << Repair.report().validPlans().size() << "\n";
    }

    const VerificationReport &Final = Repair.report();
    if (Final.anyInconclusive())
      Tally.AnyInconclusive = true;
    if (Final.validPlans().empty())
      Tally.AllOk = false;
  }
  return Tally.exitCode();
}

int Session::lint(const analysis::LintOptions &Opts, DiagFormat Format,
                  std::ostream &OS) {
  DiagnosticEngine Diags;
  analysis::LintContext LC(Ctx, *File, FileName, Opts, Diags);
  unsigned Findings = analysis::runLintPasses(LC);
  Diags.print(OS, Format);
  if (Format == DiagFormat::Text)
    OS << FileName << ": " << Findings << " finding(s)\n";
  return Findings ? 1 : 0;
}

bool Session::loadSnapshot(std::string_view Bytes, std::string &Err,
                           SnapshotStats *Stats) {
  SnapshotLoadResult R =
      core::loadSnapshot(Bytes, Ctx, File->Repo, *V->cache());
  if (!R.Ok) {
    Err = R.Error;
    return false;
  }
  if (Stats)
    *Stats = R.Stats;
  if (!R.IndexEntries.empty())
    V->adoptIndex(std::make_unique<plan::ServiceIndex>(Ctx, File->Repo,
                                                       R.IndexEntries));
  return true;
}

std::string Session::snapshot(SnapshotStats *Stats) {
  return core::saveSnapshot(Ctx, File->Repo, *V->cache(), V->index(), Stats);
}

bool Session::saveSnapshot(const std::string &Path, std::string &Err,
                           SnapshotStats *Stats) {
  return writeFileAtomically(Path, snapshot(Stats), Err);
}
