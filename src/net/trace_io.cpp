#include "net/trace_io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/trace_binary.h"

namespace ups::net {

namespace {

constexpr const char* kMagic = "ups-trace v1";

// Parses one packet line into `r`, reusing its vector capacity. Shared by
// the batch loader and the streaming reader so the format lives in one place.
void read_record(std::istream& is, packet_record& r) {
  // Reset the optional drop suffix first: `r` is reused across records by
  // the streaming reader, and delivered records carry no suffix to
  // overwrite a stale one.
  r.drop_hop = -1;
  r.dropped_kind = drop_kind::buffer;
  r.drop_time = -1;
  r.stall_hop = -1;
  r.stall_count = 0;
  r.stall_time = 0;
  std::size_t path_len = 0;
  is >> r.id >> r.flow_id >> r.seq_in_flow >> r.size_bytes >> r.src_host >>
      r.dst_host >> r.ingress_time >> r.egress_time >> r.queueing_delay >>
      r.flow_size_bytes >> path_len;
  r.path.resize(path_len);
  for (auto& h : r.path) is >> h;
  std::size_t departs = 0;
  is >> departs;
  r.hop_departs.resize(departs);
  for (auto& d : r.hop_departs) is >> d;
  if (!is) throw trace_format_error("trace: truncated record");
  // Optional drop suffix "D <hop> <kind> <time>" — unambiguous because
  // every other token on a record line is numeric.
  is >> std::ws;
  if (is.peek() == 'D') {
    is.get();
    int kind = 0;
    is >> r.drop_hop >> kind >> r.drop_time;
    if (!is) throw trace_format_error("trace: truncated drop record");
    if (r.drop_hop < 0 ||
        static_cast<std::size_t>(r.drop_hop) >= r.path.size() ||
        (kind != 0 && kind != 1)) {
      throw trace_format_error("trace: malformed drop record");
    }
    r.dropped_kind = static_cast<drop_kind>(kind);
  }
  // Optional stall suffix "S <hop> <count> <time>", after the drop suffix
  // when both are present.
  is >> std::ws;
  if (is.peek() == 'S') {
    is.get();
    is >> r.stall_hop >> r.stall_count >> r.stall_time;
    if (!is) throw trace_format_error("trace: truncated stall record");
    if (r.stall_hop < 0 ||
        static_cast<std::size_t>(r.stall_hop) >= r.path.size() ||
        r.stall_count == 0 || r.stall_time < 0) {
      throw trace_format_error("trace: malformed stall record");
    }
  }
}

void read_magic(std::istream& is) {
  std::string magic;
  std::getline(is, magic);
  if (magic != kMagic) {
    throw trace_format_error("trace: bad magic line '" + magic + "'");
  }
}

// The declared-count integrity check shared by both text readers: after the
// declared records, nothing but whitespace may remain. A file holding more
// records than its header promises replays differently depending on which
// reader consumed it — that is corruption, not slack to ignore.
void expect_clean_end(std::istream& is) {
  is >> std::ws;
  if (is.peek() != std::istream::traits_type::eof()) {
    throw trace_format_error(
        "trace: file holds more records than the declared count");
  }
}

}  // namespace

void write_trace_header(std::ostream& os, std::size_t record_count) {
  os << kMagic << "\n" << record_count << "\n";
}

void write_trace_record(std::ostream& os, const packet_record& r) {
  os << r.id << ' ' << r.flow_id << ' ' << r.seq_in_flow << ' '
     << r.size_bytes << ' ' << r.src_host << ' ' << r.dst_host << ' '
     << r.ingress_time << ' ' << r.egress_time << ' ' << r.queueing_delay
     << ' ' << r.flow_size_bytes << ' ' << r.path.size();
  for (const auto n : r.path) os << ' ' << n;
  os << ' ' << r.hop_departs.size();
  for (const auto d : r.hop_departs) os << ' ' << d;
  if (r.dropped()) {
    os << " D " << r.drop_hop << ' ' << static_cast<int>(r.dropped_kind)
       << ' ' << r.drop_time;
  }
  if (r.stalled()) {
    os << " S " << r.stall_hop << ' ' << r.stall_count << ' ' << r.stall_time;
  }
  os << '\n';
}

void write_trace(std::ostream& os, const trace& t) {
  write_trace_header(os, t.packets.size());
  for (const auto& r : t.packets) write_trace_record(os, r);
}

trace read_trace(std::istream& is) {
  read_magic(is);
  std::size_t n = 0;
  is >> n;
  trace t;
  t.packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    packet_record r;
    read_record(is, r);
    t.packets.push_back(std::move(r));
  }
  expect_clean_end(is);
  return t;
}

trace_stream_reader::trace_stream_reader(std::istream& is) : is_(&is) {
  read_header();
}

trace_stream_reader::trace_stream_reader(const std::string& path)
    : owned_(path), is_(&owned_) {
  if (!owned_) throw std::runtime_error("trace: cannot open " + path);
  read_header();
}

void trace_stream_reader::read_header() {
  read_magic(*is_);
  *is_ >> declared_;
  if (!*is_) throw trace_format_error("trace: truncated header");
}

bool trace_stream_reader::fill_lookahead() {
  if (has_lookahead_) return true;
  if (parsed_ >= declared_) {
    if (!checked_trailing_) {
      checked_trailing_ = true;
      expect_clean_end(*is_);
    }
    return false;
  }
  read_record(*is_, lookahead_);
  ++parsed_;
  has_lookahead_ = true;
  return true;
}

const packet_record* trace_stream_reader::next() {
  if (!fill_lookahead()) return nullptr;
  // Swap rather than copy: both records keep their warmed vector capacity,
  // so the steady-state parse loop never allocates.
  std::swap(rec_, lookahead_);
  has_lookahead_ = false;
  ++read_;
  return &rec_;
}

std::size_t trace_stream_reader::next_run(
    std::vector<const packet_record*>& out) {
  if (!fill_lookahead()) return 0;
  const sim::time_ps t = lookahead_.ingress_time;
  std::size_t n = 0;
  do {
    if (n == slots_.size()) slots_.emplace_back();
    std::swap(slots_[n], lookahead_);
    has_lookahead_ = false;
    ++read_;
    ++n;
  } while (fill_lookahead() && lookahead_.ingress_time == t);
  // Publish pointers only after the run is complete: growing slots_ above
  // may reallocate and would dangle anything pushed earlier.
  for (std::size_t i = 0; i < n; ++i) out.push_back(&slots_[i]);
  return n;
}

void save_trace(const std::string& path, const trace& t) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace: cannot open " + path);
  write_trace(os, t);
}

trace load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  return read_trace(is);
}

std::unique_ptr<trace_cursor> open_trace_cursor(const std::string& path,
                                                trace_access access) {
  if (is_trace_v3_file(path)) {
    return std::make_unique<trace_v3_cursor>(path, access);
  }
  // Not v3: hand it to the text reader, whose magic check produces the
  // error for anything that is not a trace at all.
  return std::make_unique<trace_stream_reader>(path);
}

bool trace_file_has_drop_records(const std::string& path) {
  if (is_trace_v3_file(path)) {
    // v3 answers off the header: only wide-column files can hold drops.
    trace_v3_cursor cur(path, trace_access::random);
    return cur.column_count() >= kTraceV3DropColumnCount;
  }
  auto cur = open_trace_cursor(path);
  while (const packet_record* r = cur->next()) {
    if (r->dropped()) return true;
  }
  return false;
}

bool trace_file_has_stall_records(const std::string& path) {
  if (is_trace_v3_file(path)) {
    trace_v3_cursor cur(path, trace_access::random);
    return cur.column_count() >= kTraceV3StallColumnCount;
  }
  auto cur = open_trace_cursor(path);
  while (const packet_record* r = cur->next()) {
    if (r->stalled()) return true;
  }
  return false;
}

}  // namespace ups::net
