//===- tests/SerializeTest.cpp - Snapshot byte layer and codecs -----------===//
///
/// \file
/// Unit tests for the serialize/ layer under the persistent cache
/// snapshot (DESIGN.md §13): explicit little-endian primitive layout,
/// the sticky-error Reader contract, the tagged-section container's
/// strictness (magic, version, checksums, duplicate/unknown tags,
/// truncation, trailing bytes — every one a clean diagnostic), and the
/// string-table / expression-pool codecs that re-establish hash-consed
/// identity in a fresh HistContext.
///
//===----------------------------------------------------------------------===//

#include "serialize/Serialize.h"
#include "serialize/Snapshot.h"

#include "hist/HistContext.h"

#include <gtest/gtest.h>

using namespace sus;
using namespace sus::serialize;

namespace {

//===----------------------------------------------------------------------===//
// Writer / Reader primitives
//===----------------------------------------------------------------------===//

TEST(SerializeWriter, EmitsLittleEndianBytes) {
  Writer W;
  W.putU32(0x01020304u);
  std::string B = W.take();
  ASSERT_EQ(B.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(B[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(B[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(B[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(B[3]), 0x01);
}

TEST(SerializeWriter, PrimitivesRoundTrip) {
  Writer W;
  W.putU8(0xab);
  W.putU16(0xbeef);
  W.putU32(0xdeadbeefu);
  W.putU64(0x0123456789abcdefull);
  W.putI64(-42);
  W.putString("hello");
  W.putString("");
  std::string B = W.take();

  Reader R(B);
  EXPECT_EQ(R.getU8(), 0xab);
  EXPECT_EQ(R.getU16(), 0xbeef);
  EXPECT_EQ(R.getU32(), 0xdeadbeefu);
  EXPECT_EQ(R.getU64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.getI64(), -42);
  EXPECT_EQ(R.getString(), "hello");
  EXPECT_EQ(R.getString(), "");
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.failed());
}

TEST(SerializeReader, UnderrunIsStickyAndZero) {
  std::string Two("\x01\x02", 2);
  Reader R(Two);
  EXPECT_EQ(R.getU32(), 0u); // Underrun: 4 > 2.
  EXPECT_TRUE(R.failed());
  EXPECT_FALSE(R.error().empty());
  // Every subsequent read stays zero/empty — no partial interpretation.
  EXPECT_EQ(R.getU8(), 0u);
  EXPECT_EQ(R.getU64(), 0u);
  EXPECT_TRUE(R.getString().empty());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(SerializeReader, StringLengthBeyondInputFails) {
  Writer W;
  W.putU32(1000); // Claims 1000 bytes, provides 3.
  W.putBytes("abc");
  Reader R(W.bytes());
  EXPECT_TRUE(R.getString().empty());
  EXPECT_TRUE(R.failed());
}

TEST(SerializeReader, CheckCountRejectsOversizedCounts) {
  std::string Small(16, '\0');
  Reader R(Small);
  EXPECT_TRUE(R.checkCount(2, 8, "record"));
  EXPECT_FALSE(R.failed());
  EXPECT_FALSE(R.checkCount(3, 8, "record")); // 24 bytes cannot fit in 16.
  EXPECT_TRUE(R.failed());
  EXPECT_NE(R.error().find("record"), std::string::npos);
}

TEST(SerializeReader, ExplicitFailWins) {
  Reader R("abcd");
  R.fail("first");
  R.fail("second");
  EXPECT_EQ(R.error(), "first");
}

//===----------------------------------------------------------------------===//
// Section container
//===----------------------------------------------------------------------===//

std::string twoSectionSnapshot() {
  SectionWriter W;
  W.addSection(SectionTag::Strings, "alpha");
  W.addSection(SectionTag::Exprs, "beta-payload");
  return W.finish();
}

TEST(SectionContainer, RoundTripsAndReportsMissingSections) {
  std::string B = twoSectionSnapshot();
  SectionReader R(B);
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_TRUE(R.section(SectionTag::Strings).has_value());
  EXPECT_EQ(*R.section(SectionTag::Strings), "alpha");
  EXPECT_EQ(*R.section(SectionTag::Exprs), "beta-payload");
  EXPECT_FALSE(R.section(SectionTag::Index).has_value());
}

TEST(SectionContainer, RejectsBadMagic) {
  std::string B = twoSectionSnapshot();
  B[0] = 'X';
  SectionReader R(B);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.error().empty());
}

TEST(SectionContainer, RejectsWrongVersionNamingBothVersions) {
  // A newer writer's blob, and one an older build (before ExploredStates
  // counted fused-monitor configurations) left on disk.
  for (uint32_t Version : {FormatVersion + 1, FormatVersion - 1}) {
    std::string B = twoSectionSnapshot();
    B[8] = static_cast<char>(Version); // Version u32 little-endian.
    SectionReader R(B);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.error().find("version " + std::to_string(Version)),
              std::string::npos)
        << R.error();
    EXPECT_NE(R.error().find("version " + std::to_string(FormatVersion)),
              std::string::npos)
        << R.error();
  }
}

TEST(SectionContainer, RejectsEveryTruncation) {
  std::string B = twoSectionSnapshot();
  for (size_t Len = 0; Len < B.size(); ++Len) {
    SectionReader R(std::string_view(B).substr(0, Len));
    EXPECT_FALSE(R.ok()) << "truncation to " << Len << " bytes accepted";
    EXPECT_FALSE(R.error().empty());
  }
}

TEST(SectionContainer, RejectsTrailingBytes) {
  std::string B = twoSectionSnapshot() + std::string(1, '\0');
  SectionReader R(B);
  EXPECT_FALSE(R.ok());
}

TEST(SectionContainer, RejectsPayloadCorruptionViaChecksum) {
  std::string B = twoSectionSnapshot();
  // Flip one bit in the last payload byte ("beta-payload" trails the blob).
  B[B.size() - 1] = static_cast<char>(B[B.size() - 1] ^ 0x01);
  SectionReader R(B);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("checksum"), std::string::npos) << R.error();
}

TEST(SectionContainer, RejectsDuplicateAndUnknownTags) {
  SectionWriter Dup;
  Dup.addSection(SectionTag::Strings, "one");
  Dup.addSection(SectionTag::Strings, "two");
  SectionReader RDup(Dup.finish());
  EXPECT_FALSE(RDup.ok());

  SectionWriter Unknown;
  Unknown.addSection(static_cast<SectionTag>(999), "zap");
  SectionReader RUnknown(Unknown.finish());
  EXPECT_FALSE(RUnknown.ok());
}

TEST(SectionContainer, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

//===----------------------------------------------------------------------===//
// Symbol table and expression pool codecs
//===----------------------------------------------------------------------===//

TEST(SnapshotCodecs, SymbolTableRoundTripsThroughAFreshInterner) {
  hist::HistContext Src;
  SymbolTable Table(Src.interner());
  Symbol A = Src.symbol("alpha"), B = Src.symbol("beta");
  uint32_t IdA = Table.idOf(A);
  uint32_t IdB = Table.idOf(B);
  EXPECT_NE(IdA, IdB);
  EXPECT_EQ(Table.idOf(A), IdA); // Registration is idempotent.
  EXPECT_EQ(Table.idOf(Symbol()), NoId);

  hist::HistContext Dst;
  std::string Payload = Table.payload(); // Reader views, does not copy.
  Reader R(Payload);
  SymbolDecoder Dec(R, Dst.interner());
  ASSERT_FALSE(R.failed()) << R.error();
  EXPECT_EQ(Dec.size(), 2u);
  EXPECT_EQ(Dst.interner().text(Dec.symbol(IdA, R)), "alpha");
  EXPECT_EQ(Dst.interner().text(Dec.symbol(IdB, R)), "beta");
  EXPECT_FALSE(Dec.symbol(NoId, R).isValid());
  EXPECT_FALSE(R.failed());
  Dec.symbol(17, R); // Out-of-range id fails the reader.
  EXPECT_TRUE(R.failed());
}

TEST(SnapshotCodecs, ExprPoolReestablishesHashConsedIdentity) {
  hist::HistContext Src;
  const hist::Expr *Body = Src.seq(Src.event("book", 1), Src.empty());
  const hist::Expr *Loop = Src.mu("h", Src.seq(Src.event("pay"),
                                               Src.var("h")));

  SymbolTable Strings(Src.interner());
  ExprEncoder Enc(Strings);
  uint32_t BodyId = Enc.idOf(Body);
  uint32_t LoopId = Enc.idOf(Loop);
  EXPECT_EQ(Enc.idOf(Body), BodyId);
  EXPECT_EQ(Enc.idOf(nullptr), NoId);

  // Render the pool *before* the string table: encoding registers
  // symbols lazily, and the decoder reads strings first.
  std::string ExprBytes = Enc.payload();
  std::string StringBytes = Strings.payload();

  hist::HistContext Dst;
  Reader SR(StringBytes);
  SymbolDecoder SDec(SR, Dst.interner());
  ASSERT_FALSE(SR.failed()) << SR.error();
  Reader ER(ExprBytes);
  ExprDecoder EDec(ER, SDec, Dst);
  ASSERT_FALSE(ER.failed()) << ER.error();

  // Identity is re-established through the factories: decoding must land
  // on exactly the pointer the target context's own factories produce.
  EXPECT_EQ(EDec.expr(BodyId, ER),
            Dst.seq(Dst.event("book", 1), Dst.empty()));
  EXPECT_EQ(EDec.expr(LoopId, ER),
            Dst.mu("h", Dst.seq(Dst.event("pay"), Dst.var("h"))));
  EXPECT_EQ(EDec.expr(NoId, ER), nullptr);
  EXPECT_FALSE(ER.failed());

  // A corrupted pool must fail the reader, never reach a factory assert.
  for (size_t Pos = 0; Pos < ExprBytes.size(); ++Pos) {
    std::string Bad = ExprBytes;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x40);
    hist::HistContext Scratch;
    Reader SR2(StringBytes);
    SymbolDecoder SDec2(SR2, Scratch.interner());
    Reader BR(Bad);
    ExprDecoder BadDec(BR, SDec2, Scratch);
    // Either the decode failed, or the flip produced a different (but
    // well-formed) pool — both are fine; crashing is not.
    (void)BadDec;
  }
}

} // namespace
