//===- tests/DaemonTest.cpp - susd protocol, budgets and engine -----------===//
///
/// \file
/// Unit tests for the resident daemon below the socket layer: the
/// percent-escaped wire protocol (framing survives arbitrary bytes, the
/// line cap and malformed frames are clean errors), the per-tenant
/// budget table (spec parsing, min-combination, governor arming), and
/// the Engine itself driven in-process through the same handle() path a
/// connection uses — verify/lint/churn verdicts, snapshot save/load
/// (atomic on disk), per-request deadlines and the shutdown handshake.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "daemon/Protocol.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace sus;
using namespace sus::daemon;

namespace {

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, EscapeRoundTripsArbitraryBytes) {
  std::string Nasty;
  for (int C = 0; C < 256; ++C)
    Nasty.push_back(static_cast<char>(C));
  std::string Escaped = escape(Nasty);
  // The framing bytes never appear raw in an escaped token.
  EXPECT_EQ(Escaped.find(' '), std::string::npos);
  EXPECT_EQ(Escaped.find('='), std::string::npos);
  EXPECT_EQ(Escaped.find('\n'), std::string::npos);
  std::string Back;
  ASSERT_TRUE(unescape(Escaped, Back));
  EXPECT_EQ(Back, Nasty);
}

TEST(Protocol, UnescapeRejectsMalformedEscapes) {
  std::string Out;
  EXPECT_FALSE(unescape("%", Out));   // Truncated.
  EXPECT_FALSE(unescape("%4", Out));  // Truncated.
  EXPECT_FALSE(unescape("%zz", Out)); // Non-hex.
}

TEST(Protocol, RequestRoundTripsWithHostileParams) {
  Request R;
  R.Verb = "verify";
  R.Params["client"] = "c 1=weird\nname%";
  R.Params["plan"] = "pi1";
  Request Back;
  std::string Err;
  ASSERT_TRUE(parseRequest(formatRequest(R), Back, Err)) << Err;
  EXPECT_EQ(Back.Verb, "verify");
  EXPECT_EQ(Back.Params, R.Params);
}

TEST(Protocol, ParseRequestRejectsBadFrames) {
  Request R;
  std::string Err;
  EXPECT_FALSE(parseRequest("", R, Err));
  EXPECT_FALSE(parseRequest("sus/1", R, Err));         // No verb.
  EXPECT_FALSE(parseRequest("sus/2 ping", R, Err));    // Wrong proto.
  EXPECT_FALSE(parseRequest("ping", R, Err));          // Missing prefix.
  EXPECT_FALSE(parseRequest("sus/1 ping a=1 a=2", R, Err)); // Dup key.
  EXPECT_FALSE(parseRequest("sus/1 ping noequals", R, Err));
  EXPECT_FALSE(
      parseRequest("sus/1 ping " + std::string(MaxRequestLine, 'a'), R, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Protocol, ResponseHeaderRoundTrips) {
  Response Resp;
  Resp.Exit = 3;
  Resp.Body = "twelve bytes";
  int Exit = 0;
  uint64_t Len = 0;
  std::string Err;
  // formatResponseHeader renders the bare line; the wire adds the '\n'.
  std::string Header = formatResponseHeader(Resp);
  ASSERT_TRUE(parseResponseHeader(Header, Exit, Len, Err)) << Err;
  EXPECT_EQ(Exit, 3);
  EXPECT_EQ(Len, Resp.Body.size());
  EXPECT_FALSE(parseResponseHeader("sus/1 0 5 extra", Exit, Len, Err));
  EXPECT_FALSE(parseResponseHeader("sus/1 999 5", Exit, Len, Err));
  EXPECT_FALSE(parseResponseHeader("sus/1 0", Exit, Len, Err));
}

//===----------------------------------------------------------------------===//
// Tenant budgets
//===----------------------------------------------------------------------===//

TEST(TenantBudgets, SpecsParseAndDefaultApplies) {
  TenantBudgetTable T;
  std::string Err;
  ASSERT_TRUE(T.addSpec("web:100::", Err)) << Err;
  ASSERT_TRUE(T.addSpec("batch::50000:4096", Err)) << Err;
  ASSERT_TRUE(T.addSpec("*:5000::", Err)) << Err;
  EXPECT_EQ(T.lookup("web").DeadlineMs, 100u);
  EXPECT_EQ(T.lookup("web").MaxProductStates, TenantBudget::NoLimit);
  EXPECT_EQ(T.lookup("batch").MaxProductStates, 50000u);
  EXPECT_EQ(T.lookup("batch").MaxSubsetStates, 4096u);
  // Unlisted tenants inherit the "*" default.
  EXPECT_EQ(T.lookup("someone-else").DeadlineMs, 5000u);
}

TEST(TenantBudgets, MalformedSpecsAreDiagnosed) {
  TenantBudgetTable T;
  std::string Err;
  EXPECT_FALSE(T.addSpec("", Err));
  EXPECT_FALSE(T.addSpec("web:100", Err));        // Too few fields.
  EXPECT_FALSE(T.addSpec("web:100:::extra", Err)); // Too many fields.
  EXPECT_FALSE(T.addSpec("web:abc::", Err));      // Non-numeric.
  EXPECT_FALSE(T.addSpec(":100::", Err));         // Empty name.
  ASSERT_TRUE(T.addSpec("web:100::", Err)) << Err;
  EXPECT_FALSE(T.addSpec("web:200::", Err));      // Duplicate tenant.
  EXPECT_FALSE(Err.empty());
}

TEST(TenantBudgets, OverridesCombineByMinimum) {
  TenantBudget Tenant;
  Tenant.DeadlineMs = 100;
  TenantBudget Override;
  Override.DeadlineMs = 10000; // Cannot raise the tenant cap...
  Override.MaxProductStates = 7;
  TenantBudget Combined = Tenant.min(Override);
  EXPECT_EQ(Combined.DeadlineMs, 100u);
  EXPECT_EQ(Combined.MaxProductStates, 7u); // ...but can add a new one.
  EXPECT_EQ(Combined.MaxSubsetStates, TenantBudget::NoLimit);

  Override.DeadlineMs = 5; // A tighter request wins.
  EXPECT_EQ(Tenant.min(Override).DeadlineMs, 5u);
}

TEST(TenantBudgets, GovernorOnlyArmsWhenLimited) {
  TenantBudgetTable T;
  std::string Err;
  ASSERT_TRUE(T.addSpec("web:100::", Err)) << Err;
  EXPECT_EQ(T.governorFor("anyone", TenantBudget()), nullptr);
  EXPECT_NE(T.governorFor("web", TenantBudget()), nullptr);
  TenantBudget Override;
  Override.MaxProductStates = 9;
  EXPECT_NE(T.governorFor("anyone", Override), nullptr);
}

//===----------------------------------------------------------------------===//
// The engine, driven in-process
//===----------------------------------------------------------------------===//

std::string exampleSource(const char *Name) {
  std::ifstream In(std::string(SUS_EXAMPLES_DIR "/") + Name);
  EXPECT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::unique_ptr<core::Session> makeSession(const char *Name = "hotel.sus") {
  std::string Err;
  std::unique_ptr<core::Session> S = core::Session::create(
      exampleSource(Name), Name, /*Jobs=*/1, /*Governor=*/nullptr,
      DiagFormat::Text, Err);
  EXPECT_NE(S, nullptr) << Err;
  return S;
}

std::unique_ptr<Engine> makeEngine(const char *Name = "hotel.sus",
                                   EngineOptions Opts = {}) {
  std::string Err;
  std::unique_ptr<Engine> E =
      Engine::create(exampleSource(Name), Name, std::move(Opts), Err);
  EXPECT_NE(E, nullptr) << Err;
  return E;
}

Request req(const char *Verb) {
  Request R;
  R.Verb = Verb;
  return R;
}

TEST(Engine, RejectsUnparsableSource) {
  std::string Err;
  EXPECT_EQ(Engine::create("service { nope", "bad.sus", {}, Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(Engine, PingStatsAndUnknownVerbs) {
  auto E = makeEngine();
  EXPECT_EQ(E->handle(req("ping")).Exit, 0);
  EXPECT_EQ(E->handle(req("ping")).Body, "pong\n");
  Response Stats = E->handle(req("stats"));
  EXPECT_EQ(Stats.Exit, 0);
  EXPECT_NE(Stats.Body.find("compliance"), std::string::npos);
  Response Bad = E->handle(req("frobnicate"));
  EXPECT_EQ(Bad.Exit, 2);
  EXPECT_NE(Bad.Body.find("frobnicate"), std::string::npos);
}

TEST(Engine, VerifyMatchesWarmAllByteForByte) {
  auto E = makeEngine();
  std::ostringstream Warm;
  int WarmCode = E->warmAll(Warm);
  Response R = E->handle(req("verify"));
  EXPECT_EQ(R.Exit, WarmCode);
  EXPECT_EQ(R.Body, Warm.str());

  Request One = req("verify");
  One.Params["client"] = "c1";
  Response ROne = E->handle(One);
  EXPECT_EQ(ROne.Exit, 0);
  EXPECT_NE(ROne.Body.find("client c1"), std::string::npos);

  Request Missing = req("verify");
  Missing.Params["client"] = "nobody";
  EXPECT_EQ(E->handle(Missing).Exit, 2);
}

TEST(Engine, LintRunsCleanOnTheExamples) {
  auto E = makeEngine();
  Response R = E->handle(req("lint"));
  EXPECT_EQ(R.Exit, 0) << R.Body;
}

TEST(Engine, ChurnRepairsDeterministically) {
  auto E = makeEngine();
  Request Churn = req("churn");
  Churn.Params["rounds"] = "2";
  Churn.Params["seed"] = "7";
  Response A = E->handle(Churn);
  EXPECT_EQ(A.Exit, 0) << A.Body;
  EXPECT_NE(A.Body.find("repairs"), std::string::npos);
}

TEST(Engine, PerRequestDeadlineTripsToInconclusive) {
  auto E = makeEngine("marketplace.sus");
  Request R = req("verify");
  R.Params["deadline_ms"] = "0"; // Trips at the first governor poll.
  EXPECT_EQ(E->handle(R).Exit, 3);
  // And the armed governor did not leak into the next request.
  EXPECT_EQ(E->handle(req("verify")).Exit, 0);
}

TEST(Engine, SnapshotBytesRoundTripThroughAFreshEngine) {
  std::unique_ptr<core::Session> Cold = makeSession();
  std::ostringstream ColdOut;
  Cold->verifyAll(ColdOut);
  core::SnapshotStats SaveStats;
  std::string Bytes = Cold->snapshot(&SaveStats);
  EXPECT_EQ(SaveStats.Bytes, Bytes.size());
  EXPECT_GT(SaveStats.Compliances, 0u);

  std::unique_ptr<core::Session> Fresh = makeSession();
  std::string Err;
  core::SnapshotStats LoadStats;
  ASSERT_TRUE(Fresh->loadSnapshot(Bytes, Err, &LoadStats)) << Err;
  EXPECT_EQ(LoadStats.Compliances, SaveStats.Compliances);
  Engine Warm(std::move(Fresh), {});
  std::ostringstream WarmOut;
  EXPECT_EQ(Warm.warmAll(WarmOut), 0);
  EXPECT_EQ(WarmOut.str(), ColdOut.str());

  // Corrupt bytes are rejected with a diagnostic, never absorbed.
  std::string Bad = Bytes;
  Bad[Bytes.size() / 2] = static_cast<char>(Bad[Bytes.size() / 2] ^ 0x10);
  std::unique_ptr<core::Session> Victim = makeSession();
  EXPECT_FALSE(Victim->loadSnapshot(Bad, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Engine, SnapshotVerbReplacesTheFileAtomically) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / "sus-snapshot-XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(Dir.data()), nullptr);
  std::string Path = Dir + "/cache.snap";
  auto E = makeEngine();
  Request Save = req("snapshot");
  Save.Params["file"] = Path;
  ASSERT_EQ(E->handle(Save).Exit, 0);
  std::string Before = readAll(Path);
  ASSERT_FALSE(Before.empty());

  // A reader holding the old snapshot open across the next save must
  // still see every original byte: the save replaces the file, it never
  // rewrites it in place. The verify in between grows the cache, so the
  // second snapshot differs from the first.
  std::ifstream Held(Path, std::ios::binary);
  ASSERT_TRUE(Held.good());
  ASSERT_EQ(E->handle(req("verify")).Exit, 0);
  ASSERT_EQ(E->handle(Save).Exit, 0);
  EXPECT_TRUE(readAll(Path) != Before) << "the second snapshot is the same";
  std::stringstream HeldBytes;
  HeldBytes << Held.rdbuf();
  EXPECT_TRUE(HeldBytes.str() == Before)
      << "the snapshot held open changed under its reader";

  // Nothing but the snapshot is left in the directory.
  std::vector<std::string> Left;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Left.push_back(Entry.path().filename().string());
  EXPECT_EQ(Left, std::vector<std::string>{"cache.snap"});

  // An unwritable target is a clean exit-2 response.
  Save.Params["file"] = Dir + "/missing/cache.snap";
  EXPECT_EQ(E->handle(Save).Exit, 2);
  std::filesystem::remove_all(Dir);
}

TEST(Engine, ShutdownVerbFlipsTheFlag) {
  auto E = makeEngine();
  EXPECT_FALSE(E->shutdownRequested());
  Response R = E->handle(req("shutdown"));
  EXPECT_EQ(R.Exit, 0);
  EXPECT_TRUE(E->shutdownRequested());
}

} // namespace
