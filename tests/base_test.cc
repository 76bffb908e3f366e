// Unit tests for base: Status/Result, string helpers, endian helpers.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "base/endian.h"
#include "base/file.h"
#include "base/fnv.h"
#include "base/status.h"
#include "base/strings.h"

namespace ks {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = NotFound("no symbol 'foo'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_EQ(st.message(), "no symbol 'foo'");
  EXPECT_EQ(st.ToString(), "not_found: no symbol 'foo'");
}

TEST(StatusTest, WithContextPrepends) {
  Status st = InvalidArgument("bad magic");
  st.WithContext("parsing module");
  EXPECT_EQ(st.message(), "parsing module: bad magic");
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  Status st;
  st.WithContext("anything");
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.message(), "");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(ErrorCodeName(ErrorCode::kOk), "ok");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kNotFound), "not_found");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kAlreadyExists), "already_exists");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kFailedPrecondition),
            "failed_precondition");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kAborted), "aborted");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kUnimplemented), "unimplemented");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kInternal), "internal");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kResourceExhausted),
            "resource_exhausted");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Half(int v) {
  if (v % 2 != 0) {
    return InvalidArgument("odd");
  }
  return v / 2;
}

Result<int> Quarter(int v) {
  KS_ASSIGN_OR_RETURN(int h, Half(v));
  KS_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);

  Result<int> err = Quarter(6);  // 6/2=3, 3 is odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kInvalidArgument);
}

Status NeedsEven(int v) {
  KS_RETURN_IF_ERROR(Half(v).status());
  return OkStatus();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(NeedsEven(4).ok());
  EXPECT_FALSE(NeedsEven(5).ok());
}

TEST(StringsTest, StrPrintfFormats) {
  EXPECT_EQ(StrPrintf("x=%d y=%s", 7, "z"), "x=7 y=z");
  EXPECT_EQ(StrPrintf("%s", ""), "");
  // Long output exceeding any small static buffer.
  std::string big(500, 'a');
  EXPECT_EQ(StrPrintf("%s", big.c_str()).size(), 500u);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitLinesDropsTrailingNewline) {
  EXPECT_EQ(SplitLines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines("a\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines("\n"), (std::vector<std::string>{""}));
  EXPECT_TRUE(SplitLines("").empty());
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith(".text.foo", ".text."));
  EXPECT_FALSE(StartsWith(".tex", ".text"));
  EXPECT_TRUE(EndsWith("file.kc", ".kc"));
  EXPECT_FALSE(EndsWith("kc", ".kc"));
}

TEST(StringsTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  a b \t\r\n"), "a b");
  EXPECT_EQ(Trim("\t \n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, Hex32) {
  EXPECT_EQ(Hex32(0), "0x00000000");
  EXPECT_EQ(Hex32(0xf0111107u), "0xf0111107");
}

TEST(EndianTest, RoundTrip32) {
  uint8_t buf[4];
  WriteLe32(buf, 0x12345678u);
  EXPECT_EQ(buf[0], 0x78);
  EXPECT_EQ(buf[3], 0x12);
  EXPECT_EQ(ReadLe32(buf), 0x12345678u);
}

TEST(EndianTest, RoundTrip16And64) {
  uint8_t buf[8];
  WriteLe16(buf, 0xbeef);
  EXPECT_EQ(ReadLe16(buf), 0xbeef);
  WriteLe64(buf, 0x0102030405060708ull);
  EXPECT_EQ(ReadLe64(buf), 0x0102030405060708ull);
  EXPECT_EQ(buf[0], 0x08);
}

TEST(FnvTest, StandardVectors) {
  EXPECT_EQ(Fnv1a32(""), 0x811c9dc5u);
  EXPECT_EQ(Fnv1a32("a"), 0xe40c292cu);
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  // The byte and string overloads hash the same bytes.
  const std::vector<uint8_t> a = {'a'};
  EXPECT_EQ(Fnv1a32(a), Fnv1a32("a"));
  EXPECT_EQ(Fnv1a64(a), Fnv1a64("a"));
}

TEST(FnvTest, PinsPackageHeaderChecksum) {
  // The bytes a .kspl header checksum covers (everything after the
  // checksum field) for a package with id "pinned", no objects, and one
  // target kernel/sys.kc:sys_prctl in .text.sys_prctl. Packages on disk
  // carry this value, so it must never change.
  std::vector<uint8_t> payload;
  auto put_u32 = [&payload](uint32_t v) {
    payload.resize(payload.size() + 4);
    WriteLe32(payload.data() + payload.size() - 4, v);
  };
  auto put_str = [&](std::string_view text) {
    put_u32(static_cast<uint32_t>(text.size()));
    payload.insert(payload.end(), text.begin(), text.end());
  };
  put_str("pinned");
  put_u32(0);  // helper objects
  put_u32(0);  // primary objects
  put_u32(1);  // targets
  put_str("kernel/sys.kc");
  put_str("sys_prctl");
  put_str(".text.sys_prctl");
  ASSERT_EQ(payload.size(), 71u);
  EXPECT_EQ(Fnv1a32(payload), 0x58ea9c2fu);
}

TEST(FileTest, WriteCreatesParentsAndReadRoundTrips) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(testing::TempDir()) / "ks_file_test";
  fs::remove_all(root);
  fs::path nested = root / "a" / "b" / "out.json";
  ASSERT_TRUE(WriteFile(nested, "{}\n").ok());
  Result<std::string> read = ReadFile(nested);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "{}\n");
  EXPECT_FALSE(ReadFile(root / "missing").ok());

  // A regular file where a directory must go is an error, not a throw.
  EXPECT_FALSE(WriteFile(nested / "under_a_file.json", "x").ok());
  fs::remove_all(root);
}

}  // namespace
}  // namespace ks
