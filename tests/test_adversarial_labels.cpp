//===- tests/test_adversarial_labels.cpp - Hostile label round-trips -------===//
//
// String constants mined from real commits are not tame identifiers:
// transformation strings can carry quotes, backslashes, non-ASCII bytes,
// or be empty. These tests push such labels through the interned data
// model and out through ReportWriter (JSON), checking that
//
//   * pathString(Id) stays byte-identical to pathToString(materialize),
//   * the JSON is well-formed with every special escaped.
//
//===----------------------------------------------------------------------===//

#include "core/ReportWriter.h"

#include "oracles/UsageOracle.h"
#include "support/Interner.h"
#include "support/JsonWriter.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::usage;

namespace {

support::Interner &table() {
  static support::Interner Table;
  return Table;
}

FeaturePath pathFor(const char *Algo) {
  return {NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(Algo))};
}

UsageChange changeFor(const char *From, const char *To) {
  return UsageChange::intern(table(), "Cipher", {pathFor(From)},
                             {pathFor(To)}, "adv@c0");
}

/// The hostile vocabulary: embedded quotes, backslashes, JSON/DOT
/// metacharacters, non-ASCII, control characters, and the empty string.
const char *Hostile[] = {
    "AES\"CBC\"",         // embedded double quotes
    "AES\\ECB\\NoPad",    // backslashes
    "{\"mode\": [1,2]}",  // JSON-shaped content
    "ключ-π-鍵",          // non-ASCII (UTF-8 passes through)
    "",                   // empty string constant
    "line1\nline2",       // newline
    "tab\there",          // tab
};

bool balancedJson(const std::string &Json) {
  long Depth = 0;
  bool InString = false, Escaped = false;
  for (char C : Json) {
    if (Escaped) {
      Escaped = false;
      continue;
    }
    if (C == '\\') {
      Escaped = true;
      continue;
    }
    if (C == '"') {
      InString = !InString;
      continue;
    }
    if (InString)
      continue;
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      --Depth;
    if (Depth < 0)
      return false;
  }
  return Depth == 0 && !InString;
}

} // namespace

TEST(AdversarialLabels, PathStringRoundTripsEveryHostileConstant) {
  for (const char *Algo : Hostile) {
    FeaturePath Path = pathFor(Algo);
    support::PathId Id = table().path(Path);
    EXPECT_EQ(table().pathString(Id), pathToString(Path)) << Algo;
    FeaturePath Back = materialize(table(), Id);
    ASSERT_EQ(Back.size(), Path.size());
    for (std::size_t I = 0; I < Back.size(); ++I)
      EXPECT_TRUE(Back[I] == Path[I]) << Algo;
  }
}

TEST(AdversarialLabels, EmptyStringConstantStaysDistinct) {
  // arg1:"" and a bare arg1 value must not collapse — ValueIsString is
  // part of structural identity.
  support::LabelId Empty =
      table().label(NodeLabel::arg(1, AbstractValue::strConst("")));
  EXPECT_EQ(table().labelAt(Empty).Text, "");
  EXPECT_TRUE(table().labelAt(Empty).ValueIsString);
  // Its unit vector is just the "arg1" atom — zero character units.
  EXPECT_EQ(table().unitsOf(Empty), std::vector<std::string>{"arg1"});
}

TEST(AdversarialLabels, UsageChangeJsonIsWellFormedAndEscaped) {
  for (const char *Algo : Hostile) {
    UsageChange Change = changeFor(Algo, "AES/GCM/NoPadding");
    std::string Json = core::usageChangeToJson(Change);
    EXPECT_TRUE(balancedJson(Json)) << Json;
    // Raw specials never appear unescaped inside the document.
    EXPECT_EQ(Json.find('\n'), std::string::npos) << Algo;
    EXPECT_EQ(Json.find('\t'), std::string::npos) << Algo;
  }
  // Spot-check the exact escapes for the quote and backslash labels.
  EXPECT_NE(core::usageChangeToJson(changeFor("AES\"CBC\"", "x"))
                .find("arg1:AES\\\"CBC\\\""),
            std::string::npos);
  EXPECT_NE(core::usageChangeToJson(changeFor("AES\\ECB\\NoPad", "x"))
                .find("arg1:AES\\\\ECB\\\\NoPad"),
            std::string::npos);
  // UTF-8 passes through verbatim.
  EXPECT_NE(core::usageChangeToJson(changeFor("ключ-π-鍵", "x"))
                .find("ключ-π-鍵"),
            std::string::npos);
}

TEST(AdversarialLabels, JsonRoundTripPreservesRenderedPaths) {
  // The JSON "removed" entry for a hostile label, unescaped again, is
  // exactly the interner's rendered path.
  UsageChange Change = changeFor("{\"mode\": [1,2]}", "AES");
  std::string Json = core::usageChangeToJson(Change);
  std::string Rendered = Change.pathString(Change.Removed[0]);
  EXPECT_EQ(JsonWriter::escape(Rendered),
            Json.substr(Json.find("\"removed\":[\"") + 12,
                        JsonWriter::escape(Rendered).size()));
}
