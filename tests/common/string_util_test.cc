#include "common/string_util.h"

#include <gtest/gtest.h>

namespace scube {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("solo", ';'), (std::vector<std::string>{"solo"}));
}

TEST(JoinTest, RoundTripsSplit) {
  std::vector<std::string> parts{"sex=F", "age=young", "region=north"};
  EXPECT_EQ(Join(parts, ","), "sex=F,age=young,region=north");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(TrimTest, RemovesAsciiWhitespace) {
  EXPECT_EQ(Trim("  hello "), "hello");
  EXPECT_EQ(Trim("\t\r\nx\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(CaseTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("GeNdEr"), "gender");
  EXPECT_EQ(ToLower("ABC-123"), "abc-123");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("sex=female", "sex="));
  EXPECT_FALSE(StartsWith("sex", "sex="));
  EXPECT_TRUE(EndsWith("cube.xlsx", ".xlsx"));
  EXPECT_FALSE(EndsWith("cube.xls", ".xlsx"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(ParseInt64Test, ValidInputs) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("  123 ").value(), 123);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(ParseInt64Test, InvalidInputs) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("0.5bad").ok());
  // Finite values only.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                          "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad).ok()) << bad;
  }
}

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("hello world"), "hello world");
  EXPECT_EQ(JsonQuote("sector=IT"), "\"sector=IT\"");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\path\\to"), "C:\\\\path\\\\to");
  EXPECT_EQ(JsonQuote("\""), "\"\\\"\"");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape("a\bb"), "a\\bb");
  EXPECT_EQ(JsonEscape("a\fb"), "a\\fb");
  EXPECT_EQ(JsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(JsonEscape(std::string("\x1f", 1)), "\\u001f");
}

TEST(JsonEscapeTest, Utf8SurvivesVerbatim) {
  // Multi-byte sequences are above 0x1f per byte: no mangling.
  EXPECT_EQ(JsonEscape("città"), "città");
  EXPECT_EQ(JsonEscape("北京"), "北京");
}

TEST(ParseHexU64Test, ParsesAndRejects) {
  EXPECT_EQ(ParseHexU64("0").value(), 0u);
  EXPECT_EQ(ParseHexU64("ff").value(), 255u);
  EXPECT_EQ(ParseHexU64("DEADbeef").value(), 0xdeadbeefu);
  EXPECT_EQ(ParseHexU64("ffffffffffffffff").value(), UINT64_MAX);
  EXPECT_FALSE(ParseHexU64("").ok());
  EXPECT_FALSE(ParseHexU64("0x10").ok());
  EXPECT_FALSE(ParseHexU64("zz").ok());
  EXPECT_FALSE(ParseHexU64("10000000000000000").ok());  // 2^64: overflow
}

TEST(Base64Test, EncodesKnownVectors) {
  // RFC 4648 test vectors.
  EXPECT_EQ(Base64Encode(""), "");
  EXPECT_EQ(Base64Encode("f"), "Zg==");
  EXPECT_EQ(Base64Encode("fo"), "Zm8=");
  EXPECT_EQ(Base64Encode("foo"), "Zm9v");
  EXPECT_EQ(Base64Encode("foob"), "Zm9vYg==");
  EXPECT_EQ(Base64Encode("fooba"), "Zm9vYmE=");
  EXPECT_EQ(Base64Encode("foobar"), "Zm9vYmFy");
}

TEST(Base64Test, RoundTripsBinary) {
  std::string all;
  for (int i = 0; i < 256; ++i) all += static_cast<char>(i);
  auto decoded = Base64Decode(Base64Encode(all));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, all);
}

TEST(Base64Test, RejectsMalformedInput) {
  EXPECT_FALSE(Base64Decode("abc").ok());     // not a multiple of 4
  EXPECT_FALSE(Base64Decode("ab!=").ok());    // invalid character
  EXPECT_FALSE(Base64Decode("=abc").ok());    // padding up front
  EXPECT_FALSE(Base64Decode("a=bc").ok());    // data after padding
  EXPECT_FALSE(Base64Decode("ab==cdef").ok());  // padding mid-stream
  EXPECT_TRUE(Base64Decode("").ok());
}

TEST(FormatTest, DoubleAndCommas) {
  EXPECT_EQ(FormatDouble(0.78125, 2), "0.78");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(3600000), "3,600,000");
  EXPECT_EQ(FormatWithCommas(-2150000), "-2,150,000");
}

}  // namespace
}  // namespace scube
