// LEB128 varints: the one encode/decode implementation shared by every
// byte-stream in the codebase (v3 trace columns, the replay-result codec,
// the dispatch wire protocol). Each consumer throws its own typed error on
// structural damage, so the decoders are templated on the exception type —
// a corrupt stream fails as trace_format_error / codec_error / wire_error
// exactly as before the deduplication, never as a generic runtime_error.
//
// Layout: little-endian base-128, 7 payload bits per byte, the high bit a
// continuation flag. A 64-bit value is at most 10 bytes; decoders reject
// encodings whose payload exceeds 64 bits ("overlong" in the structural
// sense — non-canonical but in-range encodings like 0x80 0x00 decode to
// the same value a canonical encoding would, matching the historical
// per-caller loops).
//
// On top of the scalar pair, get_varints() decodes a whole run of values
// with a SWAR fast path: load an 8-byte word, find the varint boundaries
// via the continuation-bit mask (~w & 0x8080808080808080), and decode
// every short varint inside the word with branch-free 7-bit compaction —
// the shape the v3 block decoder feeds whole columns through. The scalar
// bounds-checked loop remains the reference tail (and the error path), so
// batch and scalar decodes are byte-for-byte and error-for-error
// identical.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ups::core {

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (0 - (v & 1)));
}

// Bounded scalar decode — the reference implementation every fast path
// defers to at buffer tails and on malformed input. Truncation mid-value
// and encodings carrying more than 64 payload bits throw Error; `what`
// names the stream for the message (e.g. "trace v3").
template <typename Error>
[[nodiscard]] inline std::uint64_t get_varint_checked(
    const std::uint8_t*& p, const std::uint8_t* end, const char* what) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (p == end) {
      throw Error(std::string(what) + ": truncated varint");
    }
    const std::uint8_t b = *p++;
    if (shift == 63 && b > 1) {
      throw Error(std::string(what) + ": varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift >= 64) {
      throw Error(std::string(what) + ": varint overflows 64 bits");
    }
  }
}

namespace varint_detail {

inline constexpr std::uint64_t kMsb8 = 0x8080808080808080ull;

[[nodiscard]] inline std::uint64_t load_word(const std::uint8_t* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));  // callers assert a little-endian host
  return w;
}

// Compacts the low 7 bits of each byte of `x` (high bytes already masked
// off) into one integer, low byte first — the branch-free core of the SWAR
// decode. Three shift-mask rounds merge 8 x 7-bit groups into 56 bits.
[[nodiscard]] inline std::uint64_t compact7(std::uint64_t x) noexcept {
  x &= 0x7f7f7f7f7f7f7f7full;
  x = (x & 0x007f007f007f007full) | ((x & 0x7f007f007f007f00ull) >> 1);
  x = (x & 0x00003fff00003fffull) | ((x & 0x3fff00003fff0000ull) >> 2);
  x = (x & 0x000000000fffffffull) | ((x & 0x0fffffff00000000ull) >> 4);
  return x;
}

// The continuation bits of a word as one byte: bit j set iff byte j of `w`
// has its high bit set. (w & kMsb8) leaves one bit per byte at position
// 8j+7; the multiply is a parallel shift-and-sum landing bit j of the
// result at position 56+j.
[[nodiscard]] inline unsigned cont_mask(std::uint64_t w) noexcept {
  return static_cast<unsigned>(((w & kMsb8) * 0x0002040810204081ull) >> 56);
}

// Varint boundaries of a word, precomputed per continuation-bit mask: how
// many varints COMPLETE inside the word (k), the bytes they span (total),
// and each one's offset + length in 7-bit payload units. Indexing this
// table by cont_mask(w) turns boundary finding into one load — no per-value
// branch chain, which is what makes mixed-width columns decode branch-free
// (the only data-dependent branch left is the extraction loop's trip
// count). Offsets/lengths are premultiplied by 7 because extraction happens
// on the compact7() image of the word: one compaction per word, then each
// value is a shift + mask — two ops — off the 56-bit payload.
struct word_bounds {
  std::uint8_t k = 0;           // varints completing inside the word
  std::uint8_t total = 0;       // bytes those k varints span
  std::uint8_t shift7[8] = {};  // 7 * (value j's first byte)
  std::uint8_t bytes7[8] = {};  // 7 * (value j's byte length)
};

inline constexpr std::array<word_bounds, 256> kWordBounds = [] {
  std::array<word_bounds, 256> t{};
  for (unsigned m = 0; m < 256; ++m) {
    word_bounds e;
    unsigned pos = 0;
    while (pos < 8) {
      unsigned last = pos;  // first byte at/after pos with continuation clear
      while (last < 8 && ((m >> last) & 1) != 0) ++last;
      if (last == 8) break;  // value runs past the word
      e.shift7[e.k] = static_cast<std::uint8_t>(7 * pos);
      e.bytes7[e.k] = static_cast<std::uint8_t>(7 * (last - pos + 1));
      ++e.k;
      pos = last + 1;
    }
    e.total = static_cast<std::uint8_t>(pos);
    t[m] = e;
  }
  return t;
}();

// One pass of the word-at-a-time sweep: decodes complete varints from
// [p, end) into out[0..count) while at least 8 output slots and a full
// word plus slack (10 bytes) of input remain. Returns how many values it
// wrote; `p` advances past their bytes. Extraction always writes slots
// 0..3 of the current word (and 4..7 when the word completes that many
// values) regardless of how many varints the word really holds — slots
// past e.k receive garbage and are overwritten by the next iteration,
// which keeps the extraction free of data-dependent branches (a variable
// trip count mispredicts once per word on mixed-width columns). Stops
// without consuming at a word whose first varint does not complete inside
// it (a 9+-byte encoding): the caller's bounds-checked scalar loop owns
// that case and every error path, so the sweep itself never throws.
inline std::size_t sweep_words(const std::uint8_t*& p, const std::uint8_t* end,
                               std::uint64_t* out,
                               std::size_t count) noexcept {
  std::size_t i = 0;
  while (count - i >= 8 && end - p >= 10) {
    const std::uint64_t w = load_word(p);
    const unsigned m = cont_mask(w);
    if (m == 0) [[likely]] {
      // Eight complete one-byte values in one load.
      for (std::size_t j = 0; j < 8; ++j) {
        out[i + j] = (w >> (8 * j)) & 0x7f;
      }
      p += 8;
      i += 8;
      continue;
    }
    const word_bounds& e = kWordBounds[m];
    if (e.k == 0) break;
    const std::uint64_t y = compact7(w);  // one compaction serves every value
    for (unsigned j = 0; j < 4; ++j) {
      out[i + j] = (y >> e.shift7[j]) & ((1ull << e.bytes7[j]) - 1);
    }
    if (e.k > 4) {
      // Only words of mostly one-byte values get here, so the branch tracks
      // the column's shape and stays predicted.
      for (unsigned j = 4; j < 8; ++j) {
        out[i + j] = (y >> e.shift7[j]) & ((1ull << e.bytes7[j]) - 1);
      }
    }
    p += e.total;
    i += e.k;
  }
  return i;
}

}  // namespace varint_detail

// True when [p, p + n) is exactly n one-byte varints (no continuation bit
// anywhere) — the all-short-column fast path a caller can detect from byte
// counts alone (n values in n bytes leaves no room for a longer encoding).
[[nodiscard]] inline bool all_one_byte_varints(const std::uint8_t* p,
                                               std::size_t n) noexcept {
  using varint_detail::kMsb8;
  using varint_detail::load_word;
  std::uint64_t acc = 0;
  while (n >= 8) {
    acc |= load_word(p);
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n) acc |= *p++;
  return (acc & kMsb8) == 0;
}

// Decodes exactly `count` varints from [p, end) into out[0..count), SWAR
// word-at-a-time where at least a full word of slack remains, the scalar
// checked loop on the tail. Identical values and identical Error throws to
// `count` successive get_varint_checked calls; `p` ends one past the last
// consumed byte.
template <typename Error>
inline void get_varints(const std::uint8_t*& p, const std::uint8_t* end,
                        std::uint64_t* out, std::size_t count,
                        const char* what) {
  std::size_t i = 0;
  // Column-shape specialization: byte count == value count means every
  // value is one byte; one pass of widening stores, no boundary search.
  // (If a continuation bit shows up anyway the stream is malformed — the
  // scalar loop below reproduces the exact truncation error.)
  if (static_cast<std::size_t>(end - p) == count &&
      all_one_byte_varints(p, count)) {
    for (; i < count; ++i) out[i] = p[i];
    p += count;
    return;
  }
  // Word-at-a-time main loop: one boundary-table load per word, then every
  // value inside the word extracts independently off one 7-bit compaction
  // of the word (all <= 8-byte varints carry <= 56 payload bits, so
  // extraction is overflow-free). The sweep returns early only at a
  // 9+-byte encoding — decode it with the scalar loop (which owns the
  // 64-bit overflow check) and resume sweeping. The last <= 7 values go
  // through the scalar tail below.
  for (;;) {
    i += varint_detail::sweep_words(p, end, out + i, count - i);
    if (count - i < 8 || end - p < 10) break;
    out[i++] = get_varint_checked<Error>(p, end, what);
  }
  for (; i < count; ++i) {
    out[i] = get_varint_checked<Error>(p, end, what);
  }
}

}  // namespace ups::core
