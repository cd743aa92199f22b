// Tests for the shared LEB128 layer (core/varint.h): round trips across
// every width, zigzag, and the bounded decoder's two errors — truncation
// mid-value at every prefix of a mixed-width run, and encodings carrying
// more than 64 payload bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/varint.h"

namespace ups::core {
namespace {

struct varint_test_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using bytes = std::vector<std::uint8_t>;

TEST(varint, scalar_round_trip_width_sweep) {
  std::vector<std::uint64_t> vals = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000};
  for (int bits = 15; bits < 64; ++bits) {
    vals.push_back((1ull << bits) - 1);
    vals.push_back(1ull << bits);
  }
  vals.push_back(~0ull);
  for (const std::uint64_t v : vals) {
    bytes buf;
    put_varint(buf, v);
    ASSERT_LE(buf.size(), 10u);
    const std::uint8_t* p = buf.data();
    EXPECT_EQ(get_varint_checked<varint_test_error>(
                  p, buf.data() + buf.size(), "t"),
              v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(varint, zigzag_round_trip) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63},
        std::int64_t{-64}, std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  // Small magnitudes map to small codes — the property the columns rely on.
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

// Encodes `n` values of random width (1..64 bits) into `buf`; returns them
// with the end offset of each encoding.
std::vector<std::uint64_t> mixed_run(std::uint64_t seed, std::size_t n,
                                     bytes& buf,
                                     std::vector<std::size_t>& ends) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> vals;
  for (std::size_t i = 0; i < n; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 64);
    const std::uint64_t mask = bits == 64 ? ~0ull : ((1ull << bits) - 1);
    vals.push_back(rng() & mask);
    put_varint(buf, vals.back());
    ends.push_back(buf.size());
  }
  return vals;
}

TEST(varint, every_truncated_prefix_throws_after_its_complete_values) {
  // Decoding the whole run from any strict prefix returns exactly the
  // values whose encodings fit, then throws the truncation error — never a
  // value assembled from a partial encoding.
  bytes buf;
  std::vector<std::size_t> ends;
  const auto vals = mixed_run(99, 40, buf, ends);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const bytes prefix(buf.begin(), buf.begin() + static_cast<long>(cut));
    const std::uint8_t* p = prefix.data();
    const std::uint8_t* end = prefix.data() + prefix.size();
    std::size_t decoded = 0;
    std::string error;
    try {
      for (; decoded < vals.size(); ++decoded) {
        ASSERT_EQ(get_varint_checked<varint_test_error>(p, end, "t"),
                  vals[decoded])
            << "cut=" << cut << " value " << decoded;
      }
    } catch (const varint_test_error& e) {
      error = e.what();
    }
    EXPECT_EQ(error, "t: truncated varint") << "cut=" << cut;
    std::size_t fit = 0;
    while (ends[fit] <= cut) ++fit;
    EXPECT_EQ(decoded, fit) << "cut=" << cut;
  }
  // The whole buffer decodes every value and consumes every byte.
  const std::uint8_t* p = buf.data();
  for (const std::uint64_t v : vals) {
    ASSERT_EQ(get_varint_checked<varint_test_error>(
                  p, buf.data() + buf.size(), "t"),
              v);
  }
  EXPECT_EQ(p, buf.data() + buf.size());
}

TEST(varint, overlong_encodings_throw) {
  // 10+ continuation bytes (never terminates within the 64-bit budget) and
  // 10-byte encodings whose final byte carries payload past bit 63.
  for (const bytes& bad :
       {bytes(12, 0x80),
        bytes{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02},
        bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}}) {
    const std::uint8_t* p = bad.data();
    try {
      (void)get_varint_checked<varint_test_error>(p, bad.data() + bad.size(),
                                                  "t");
      ADD_FAILURE() << "overlong encoding decoded";
    } catch (const varint_test_error& e) {
      EXPECT_STREQ(e.what(), "t: varint overflows 64 bits");
    }
  }
  // The canonical 10-byte maximum is legal, and so is a non-canonical but
  // in-range encoding (0x80 0x00 is zero).
  for (const auto& [enc, want] :
       {std::pair{bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                        0x01},
                  ~0ull},
        std::pair{bytes{0x80, 0x00}, 0ull}}) {
    const std::uint8_t* p = enc.data();
    EXPECT_EQ(get_varint_checked<varint_test_error>(
                  p, enc.data() + enc.size(), "t"),
              want);
    EXPECT_EQ(p, enc.data() + enc.size());
  }
}

}  // namespace
}  // namespace ups::core
