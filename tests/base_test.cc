#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/base/result.h"
#include "src/base/status.h"
#include "src/base/string_util.h"
#include "src/cr/ids.h"

namespace crsat {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(OkStatus().ok());
}

TEST(StatusTest, ErrorFactoriesSetCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ParseError("x").code(), StatusCode::kParseError);
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << NotFoundError("missing");
  EXPECT_EQ(os.str(), "NotFound: missing");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return InternalError("boom"); };
  auto passes = []() -> Status { return OkStatus(); };
  auto wrapper = [&](bool fail) -> Status {
    CRSAT_RETURN_IF_ERROR(passes());
    if (fail) {
      CRSAT_RETURN_IF_ERROR(fails());
    }
    return OkStatus();
  };
  EXPECT_TRUE(wrapper(false).ok());
  EXPECT_EQ(wrapper(true).code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(NotFoundError("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "payload");
}

// The rvalue overload returns by value, so a range-for over `f().value()`
// owns its range instead of reading the destroyed temporary `Result`.
static_assert(
    std::is_same_v<decltype(std::declval<Result<std::string>>().value()),
                   std::string>);

TEST(ResultTest, RangeForOverTemporaryValueOwnsItsRange) {
  auto make = [] { return Result<std::vector<int>>(std::vector<int>{1, 2}); };
  int sum = 0;
  for (int x : make().value()) {
    sum += x;
  }
  EXPECT_EQ(sum, 3);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto source = [](bool ok) -> Result<int> {
    if (ok) {
      return 7;
    }
    return UnavailableError("later");
  };
  auto wrapper = [&](bool ok) -> Result<int> {
    CRSAT_ASSIGN_OR_RETURN(int value, source(ok));
    return value * 2;
  };
  EXPECT_EQ(wrapper(true).value(), 14);
  EXPECT_EQ(wrapper(false).status().code(), StatusCode::kUnavailable);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"a", "", "c"}, "-"), "a--c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("\t\n hi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_TRUE(StartsWith("hello", "hello"));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_FALSE(StartsWith("hello", "el"));
}

TEST(IdsTest, DefaultIsInvalid) {
  ClassId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value, -1);
  EXPECT_TRUE(ClassId(0).valid());
}

TEST(IdsTest, ComparisonAndHash) {
  ClassId a(1);
  ClassId b(1);
  ClassId c(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(std::hash<ClassId>()(a), std::hash<ClassId>()(b));
}

TEST(IdsTest, DistinctTagTypesDoNotMix) {
  // Compile-time property: ClassId and RoleId are different types. This
  // test documents it; the static_assert is the actual check.
  static_assert(!std::is_same_v<ClassId, RoleId>);
  static_assert(!std::is_same_v<ClassId, RelationshipId>);
  SUCCEED();
}

TEST(IdsTest, StreamInsertion) {
  std::ostringstream os;
  os << ClassId(5);
  EXPECT_EQ(os.str(), "5");
}


TEST(JsonEscapeTest, EscapesQuotesBackslashesAndEveryControlByte) {
  struct Case {
    std::string input;
    std::string escaped;
  };
  const Case cases[] = {
      {"", ""},
      {"plain text", "plain text"},
      {"say \"hi\"", "say \\\"hi\\\""},
      {"C:\\dir", "C:\\\\dir"},
      {"a\nb", "a\\nb"},
      {"a\rb", "a\\rb"},
      {"a\tb", "a\\tb"},
      {std::string("nul\0byte", 8), "nul\\u0000byte"},
      {"\x01\x1f", "\\u0001\\u001f"},
      {"\x1b[0m", "\\u001b[0m"},
      {"\x7f", "\x7f"},              // DEL is not a control byte in JSON.
      {"caf\xc3\xa9", "caf\xc3\xa9"},  // UTF-8 passes through.
  };
  for (const Case& c : cases) {
    EXPECT_EQ(JsonEscape(c.input), c.escaped) << c.escaped;
  }
}

}  // namespace
}  // namespace crsat
