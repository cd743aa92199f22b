#include "core/replay_codec.h"

#include "core/varint.h"

namespace ups::core {
namespace {

// The shared scalar decoder, bound to this codec's typed error.
[[nodiscard]] std::uint64_t get_varint(const std::uint8_t*& p,
                                       const std::uint8_t* end) {
  return get_varint_checked<codec_error>(p, end, "replay_result codec");
}

}  // namespace

void encode_replay_result(const replay_result& r,
                          std::vector<std::uint8_t>& out) {
  out.push_back(kReplayCodecVersion);
  put_varint(out, r.total);
  put_varint(out, r.overdue);
  put_varint(out, r.overdue_beyond_T);
  put_varint(out, r.dropped);
  put_varint(out, zigzag(r.threshold_T));
  put_varint(out, r.peak_pool_packets);
  put_varint(out, r.peak_event_slots);
  put_varint(out, r.events);
  put_varint(out, r.outcomes.size());
  std::uint64_t prev_id = 0;
  sim::time_ps prev_orig_out = 0;
  for (const replay_outcome& o : r.outcomes) {
    // Ids are strictly increasing (sorted, deduplicated by construction),
    // so the unsigned delta is exact and usually one byte.
    put_varint(out, o.id - prev_id);
    put_varint(out, zigzag(o.original_out - prev_orig_out));
    put_varint(out, zigzag(o.replay_out - o.original_out));
    put_varint(out, zigzag(o.original_queueing));
    put_varint(out, zigzag(o.replay_queueing - o.original_queueing));
    prev_id = o.id;
    prev_orig_out = o.original_out;
  }
}

replay_result decode_replay_result(const std::uint8_t*& p,
                                   const std::uint8_t* end) {
  if (p == end) throw codec_error("replay_result codec: empty input");
  const std::uint8_t version = *p++;
  if (version != kReplayCodecVersion) {
    throw codec_error("replay_result codec: unknown version " +
                      std::to_string(version));
  }
  replay_result r;
  r.total = get_varint(p, end);
  r.overdue = get_varint(p, end);
  r.overdue_beyond_T = get_varint(p, end);
  r.dropped = get_varint(p, end);
  r.threshold_T = unzigzag(get_varint(p, end));
  r.peak_pool_packets = get_varint(p, end);
  r.peak_event_slots = get_varint(p, end);
  r.events = get_varint(p, end);
  const std::uint64_t n = get_varint(p, end);
  // A garbled count would otherwise drive a multi-GB reserve before the
  // per-outcome reads hit the truncation check: each outcome costs >= 5
  // bytes on the wire, so the remaining bytes bound the plausible count.
  if (n > static_cast<std::uint64_t>(end - p)) {
    throw codec_error("replay_result codec: outcome count overruns buffer");
  }
  r.outcomes.resize(n);
  std::uint64_t prev_id = 0;
  sim::time_ps prev_orig_out = 0;
  for (replay_outcome& o : r.outcomes) {
    o.id = prev_id + get_varint(p, end);
    o.original_out = prev_orig_out + unzigzag(get_varint(p, end));
    o.replay_out = o.original_out + unzigzag(get_varint(p, end));
    o.original_queueing = unzigzag(get_varint(p, end));
    o.replay_queueing = o.original_queueing + unzigzag(get_varint(p, end));
    prev_id = o.id;
    prev_orig_out = o.original_out;
  }
  return r;
}

}  // namespace ups::core
