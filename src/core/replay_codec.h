// Compact wire codec for replay_result — the serialization boundary the
// multi-process dispatch fabric ships results across (exp/dispatch).
//
// The encoding is a single versioned byte stream of LEB128 varints: the
// aggregate counters, then the outcome vector as delta columns keyed on the
// packet-id order the engine already guarantees (outcomes are sorted by id,
// ids strictly increase, and replay/original output times are strongly
// correlated — so ids delta-code unsigned, original_out delta-codes zigzag
// against its predecessor, and replay_out codes as the zigzag lateness
// against the same record's original_out). A 60k-packet outcome vector that
// is 2.4 MB in memory wires at ~10 B/outcome.
//
// Round-trip is exact for every field an identity gate compares (counters,
// threshold, per-outcome times) AND the informational residency peaks, so a
// result that crossed a process boundary is indistinguishable from one
// computed locally. Truncated or garbled input throws codec_error — typed,
// never UB — which the dispatch coordinator maps to a protocol failure.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/replay.h"

namespace ups::core {

// Structural damage in an encoded replay_result (truncation, a varint that
// overruns the buffer, an unknown version byte).
class codec_error : public std::runtime_error {
 public:
  explicit codec_error(const std::string& what) : std::runtime_error(what) {}
};

// v2 added the replay-under-loss `dropped` counter, v3 the kernel `events`
// count. The codec only ever crosses a pipe between two processes of the
// same binary, so no back-compat decode path is kept.
inline constexpr std::uint8_t kReplayCodecVersion = 3;

// Appends the encoding of `r` to `out` (the buffer is not cleared, so a
// caller can pack several results into one frame).
void encode_replay_result(const replay_result& r,
                          std::vector<std::uint8_t>& out);

// Decodes one result starting at `*p`, advancing `*p` past it; bytes after
// the result are left for the caller (frames can carry trailing fields).
// Throws codec_error on any structural damage.
[[nodiscard]] replay_result decode_replay_result(const std::uint8_t*& p,
                                                 const std::uint8_t* end);

}  // namespace ups::core
