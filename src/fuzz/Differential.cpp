//===- fuzz/Differential.cpp - Differential fuzzing oracles ---------------===//

#include "fuzz/Differential.h"

#include "bpa/Bpa.h"
#include "bpa/FromHist.h"
#include "contract/Compliance.h"
#include "contract/Project.h"
#include "core/Session.h"
#include "fuzz/Chaos.h"
#include "hist/Derive.h"
#include "hist/HistContext.h"
#include "hist/Printer.h"
#include "hist/TraceEquiv.h"
#include "monitor/Fused.h"
#include "monitor/SessionMonitor.h"
#include "plan/RequestExtract.h"
#include "policy/Compile.h"
#include "policy/Validity.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"

#include <memory>
#include <random>
#include <set>
#include <sstream>

using namespace sus;
using namespace sus::fuzz;

namespace {

/// Parses \p Source into a fresh session; null with the rendered
/// diagnostics in \p Err when it does not parse.
std::unique_ptr<core::Session> openSession(const std::string &Source,
                                           std::string &Err) {
  return core::Session::create(Source, "fuzz.sus", /*Jobs=*/1,
                               /*Governor=*/nullptr, DiagFormat::Text, Err);
}

/// All behaviors of a parsed file: services first (repository order),
/// then clients (declaration order).
std::vector<const hist::Expr *> allBehaviors(const syntax::SusFile &File) {
  std::vector<const hist::Expr *> Out;
  for (plan::Loc L : File.Repo.locations())
    Out.push_back(File.Repo.find(L));
  for (const auto &[Name, E] : File.Clients)
    Out.push_back(E);
  return Out;
}

/// Oracle 1: the product-automaton compliance checker (Thm. 1) and the
/// literal Def. 4 ready-set procedure must return the same verdict for
/// every request-body/service pair (Lemma 1 says they coincide).
void complianceOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                      std::vector<Divergence> &Out) {
  constexpr size_t MaxPairs = 128;
  size_t Pairs = 0;
  std::vector<plan::Loc> Locs = File.Repo.locations();
  for (const auto &[ClientName, Client] : File.Clients) {
    for (const plan::RequestSite &Site : plan::extractRequests(Client)) {
      for (plan::Loc L : Locs) {
        if (++Pairs > MaxPairs)
          return;
        const hist::Expr *Service = File.Repo.find(L);
        contract::ComplianceResult Product =
            contract::checkServiceCompliance(Ctx, Site.body(), Service);
        bool Direct = contract::checkComplianceDirect(
            Ctx, contract::project(Ctx, Site.body()),
            contract::project(Ctx, Service));
        if (Product.Exhausted)
          continue; // Ungoverned runs should never trip, but an
                    // inconclusive product verdict is not a divergence.
        if (Product.Compliant != Direct) {
          std::ostringstream OS;
          OS << "request " << Site.id() << " of "
             << Ctx.interner().text(ClientName) << " vs "
             << Ctx.interner().text(L) << ": product says "
             << (Product.Compliant ? "compliant" : "non-compliant")
             << ", ready-set procedure says the opposite";
          Out.push_back({"compliance", OS.str()});
        }
      }
    }
  }
}

/// Depth-bounded prefix-closed trace set of a history expression under
/// hist::derive.
void histTracesInto(hist::HistContext &Ctx, const hist::Expr *E,
                    unsigned Depth, std::vector<std::string> &Prefix,
                    std::set<std::vector<std::string>> &Out) {
  if (Depth == 0)
    return;
  for (const hist::Transition &T : hist::derive(Ctx, E)) {
    Prefix.push_back(T.L.str(Ctx.interner()));
    Out.insert(Prefix);
    histTracesInto(Ctx, T.Target, Depth - 1, Prefix, Out);
    Prefix.pop_back();
  }
}

/// The same under the BPA operational semantics; also samples full-depth
/// label words for the canPerform cross-check.
void bpaTracesInto(bpa::BpaContext &Bpa, const StringInterner &Interner,
                   const bpa::Term *T, unsigned Depth,
                   std::vector<std::string> &Prefix,
                   std::vector<hist::Label> &Labels,
                   std::set<std::vector<std::string>> &Out,
                   std::vector<std::vector<hist::Label>> &Words) {
  if (Depth == 0) {
    if (!Labels.empty() && Words.size() < 16)
      Words.push_back(Labels);
    return;
  }
  for (const bpa::BpaTransition &Tr : bpa::deriveBpa(Bpa, T)) {
    Prefix.push_back(Tr.L.str(Interner));
    Labels.push_back(Tr.L);
    Out.insert(Prefix);
    bpaTracesInto(Bpa, Interner, Tr.Target, Depth - 1, Prefix, Labels, Out,
                  Words);
    Labels.pop_back();
    Prefix.pop_back();
  }
}

/// Oracle 2: hist::derive and the BPA translation must generate the same
/// depth-bounded trace prefixes, and every sampled BPA word must be
/// performable by the original expression (subset-walk canPerform).
void bpaOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
               unsigned Depth, std::vector<Divergence> &Out) {
  unsigned Index = 0;
  for (const hist::Expr *E : allBehaviors(File)) {
    ++Index;
    std::set<std::vector<std::string>> FromDerive;
    std::vector<std::string> Prefix;
    histTracesInto(Ctx, E, Depth, Prefix, FromDerive);

    bpa::BpaContext Bpa;
    const bpa::Term *Root = bpa::fromHist(Bpa, Ctx, E);
    std::set<std::vector<std::string>> FromBpa;
    std::vector<hist::Label> Labels;
    std::vector<std::vector<hist::Label>> Words;
    bpaTracesInto(Bpa, Ctx.interner(), Root, Depth, Prefix, Labels, FromBpa,
                  Words);

    if (FromDerive != FromBpa) {
      std::ostringstream OS;
      OS << "behavior #" << Index << " (" << hist::print(Ctx, E)
         << "): derive yields " << FromDerive.size()
         << " trace prefixes at depth " << Depth << ", BPA yields "
         << FromBpa.size() << ", and the sets differ";
      Out.push_back({"bpa", OS.str()});
      continue;
    }
    for (const std::vector<hist::Label> &W : Words) {
      if (!hist::canPerform(Ctx, E, W)) {
        std::ostringstream OS;
        OS << "behavior #" << Index
           << ": BPA admits a word of length " << W.size()
           << " that canPerform rejects";
        Out.push_back({"bpa", OS.str()});
        break;
      }
    }
  }
}

/// Oracle 3: the fused-DFA session monitor and the legacy per-policy
/// validity probe must agree on every label of a random trace — both on
/// the would-admit probes and on the committed verdicts.
void monitorOracle(hist::HistContext &Ctx, const syntax::SusFile &File,
                   uint64_t Seed, unsigned TraceLen,
                   std::vector<Divergence> &Out) {
  std::vector<const hist::Expr *> Behaviors = allBehaviors(File);
  std::vector<hist::PolicyRef> Refs = monitor::collectPolicyRefs(Behaviors);
  std::vector<hist::Event> Universe = policy::eventUniverse(Behaviors);
  if (Refs.empty() || Universe.empty())
    return;

  Outcome<monitor::FusedPolicyAutomaton> Fused =
      monitor::fusePolicies(File.Registry, Ctx.interner(), Refs, Universe);
  if (!Fused.ok())
    return; // Refusal (width/budget) is a capacity decision, not a bug.

  // Pool of framing refs to open/close mid-trace: every collected ref,
  // one "ghost" naming an undeclared policy, and one trivial ref.
  std::vector<hist::PolicyRef> OpenPool = Refs;
  hist::PolicyRef Ghost;
  Ghost.Name = Ctx.symbol("ghost_policy");
  Ghost.Args.push_back({Value::integer(1)});
  OpenPool.push_back(Ghost);
  OpenPool.push_back(hist::PolicyRef());

  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 1);
  monitor::SessionMonitor Monitor(Fused.value());
  policy::ValidityChecker Legacy(File.Registry, Ctx.interner());

  for (unsigned I = 0; I < TraceLen; ++I) {
    hist::Label L = [&] {
      unsigned Roll = Rng() % 10;
      if (Roll < 6)
        return hist::Label::event(Universe[Rng() % Universe.size()]);
      const hist::PolicyRef &Ref = OpenPool[Rng() % OpenPool.size()];
      return Roll < 8 ? hist::Label::frameOpen(Ref)
                      : hist::Label::frameClose(Ref);
    }();

    bool LegacyProbe = Legacy.wouldRemainValid(L);
    bool FusedProbe = Monitor.wouldAdmit(L);
    if (LegacyProbe != FusedProbe) {
      Out.push_back({"monitor",
                     "probe disagreement at step " + std::to_string(I) +
                         " on " + L.str(Ctx.interner()) + ": legacy says " +
                         (LegacyProbe ? "admit" : "reject") +
                         ", fused says the opposite"});
      return;
    }

    Legacy.append(L);
    Monitor.advance(L);
    if (Legacy.isValid() != !Monitor.isViolated()) {
      Out.push_back({"monitor",
                     "verdict disagreement after step " + std::to_string(I) +
                         " (" + L.str(Ctx.interner()) + "): legacy " +
                         (Legacy.isValid() ? "valid" : "violated") +
                         ", fused the opposite"});
      return;
    }
  }

  // Chunked probe: the multi-label lookahead must agree too.
  std::vector<hist::Label> Chunk;
  for (unsigned I = 0; I < 6; ++I)
    Chunk.push_back(hist::Label::event(Universe[Rng() % Universe.size()]));
  if (Legacy.wouldRemainValidAll(Chunk) != Monitor.wouldAdmitAll(Chunk))
    Out.push_back(
        {"monitor", "chunked probe disagreement on a 6-label lookahead"});
}

/// Oracle 4: persistence. A snapshot cut after a cold verification must
/// reload into a *fresh* session (simulating a restarted process) and the
/// warm session must reproduce the cold report stream — what `susd --warm`
/// prints — byte for byte (DESIGN.md §13). Then a seeded corruption
/// battery — single-bit flips and truncations of the blob — must be
/// rejected cleanly every time: loadSnapshot returns !Ok with a
/// diagnostic, never crashes, never absorbs a partial load.
void snapshotOracle(core::Session &Cold, const std::string &Source,
                    uint64_t Seed, const FuzzOptions &Opts,
                    std::vector<Divergence> &Out) {
  std::ostringstream ColdText;
  Cold.verifyAll(ColdText);
  std::string Bytes = Cold.snapshot();
  if (Bytes.empty()) {
    Out.push_back({"snapshot", "saveSnapshot produced an empty blob"});
    return;
  }

  std::string Err;
  std::unique_ptr<core::Session> Warm = openSession(Source, Err);
  if (!Warm) {
    Out.push_back({"snapshot", "re-parse failed: " + Err});
    return;
  }
  if (!Warm->loadSnapshot(Bytes, Err)) {
    Out.push_back({"snapshot", "round trip rejected: " + Err});
    return;
  }
  std::ostringstream WarmText;
  Warm->verifyAll(WarmText);
  if (WarmText.str() != ColdText.str()) {
    Out.push_back({"snapshot",
                   "warm-restart verdicts differ from the cold run (cold " +
                       std::to_string(ColdText.str().size()) +
                       " bytes, warm " + std::to_string(WarmText.str().size()) +
                       " bytes)"});
    return;
  }

  // Corruption battery. Every mutant targets a scratch cache so a buggy
  // partial absorb cannot poison later probes.
  auto mustReject = [&](const std::string &Mutant, const std::string &What) {
    core::VerifierCache Scratch;
    core::SnapshotLoadResult C = core::loadSnapshot(
        Mutant, Warm->context(), Warm->file().Repo, Scratch);
    if (C.Ok)
      Out.push_back({"snapshot", "corrupt blob accepted: " + What});
    else if (C.Error.empty())
      Out.push_back(
          {"snapshot", "corrupt blob rejected without a diagnostic: " + What});
  };

  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 7);
  for (unsigned I = 0; I < Opts.SnapshotFlips; ++I) {
    std::string Mutant = Bytes;
    size_t Pos = Rng() % Mutant.size();
    Mutant[Pos] = static_cast<char>(
        static_cast<unsigned char>(Mutant[Pos]) ^ (1u << (Rng() % 8)));
    mustReject(Mutant, "bit flip at offset " + std::to_string(Pos));
  }
  for (unsigned I = 0; I < Opts.SnapshotCuts; ++I) {
    size_t Len = Rng() % Bytes.size();
    mustReject(Bytes.substr(0, Len),
               "truncation to " + std::to_string(Len) + " bytes");
  }
  mustReject(Bytes + std::string(1, '\0'), "one trailing garbage byte");

  // The pristine blob must still load after all that (rejections are
  // side-effect free), including into the cache that already absorbed it.
  if (!Warm->loadSnapshot(Bytes, Err))
    Out.push_back({"snapshot", "pristine blob no longer loads: " + Err});
}

} // namespace

bool sus::fuzz::checkSource(const std::string &Source, uint64_t Seed,
                            const FuzzOptions &Opts,
                            std::vector<Divergence> &Out) {
  std::string Err;
  std::unique_ptr<core::Session> S = openSession(Source, Err);
  if (!S) {
    Out.push_back({"parse", Err});
    return false;
  }

  complianceOracle(S->context(), S->file(), Out);
  bpaOracle(S->context(), S->file(), Opts.BpaTraceDepth, Out);
  monitorOracle(S->context(), S->file(), Seed, Opts.MonitorTraceLen, Out);
  if (Opts.Snapshot)
    snapshotOracle(*S, Source, Seed, Opts, Out);
  if (Opts.Chaos)
    chaosSoak(S->context(), S->file(), Seed, Opts.ChaosRounds, Out);
  return true;
}

SeedReport sus::fuzz::runSeed(uint64_t Seed, const FuzzOptions &Opts) {
  SeedReport R;
  R.Seed = Seed;
  R.Program = generateProgram(Seed, Opts.Gen);
  checkSource(R.Program.source(), Seed, Opts, R.Divergences);
  if (!R.Divergences.empty()) {
    auto StillFails = [&](const std::vector<std::string> &Decls) {
      std::vector<Divergence> D;
      checkSource(joinDecls(Decls), Seed, Opts, D);
      return !D.empty();
    };
    R.MinimizedSource = joinDecls(minimizeDecls(R.Program.Decls, StillFails));
  }
  return R;
}

std::vector<std::string> sus::fuzz::minimizeDecls(
    std::vector<std::string> Decls,
    const std::function<bool(const std::vector<std::string> &)> &StillFails) {
  bool Progress = true;
  while (Progress && Decls.size() > 1) {
    Progress = false;
    for (size_t I = 0; I < Decls.size(); ++I) {
      std::vector<std::string> Candidate;
      Candidate.reserve(Decls.size() - 1);
      for (size_t J = 0; J < Decls.size(); ++J)
        if (J != I)
          Candidate.push_back(Decls[J]);
      if (StillFails(Candidate)) {
        Decls = std::move(Candidate);
        Progress = true;
        break;
      }
    }
  }
  return Decls;
}
