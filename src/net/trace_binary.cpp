#include "net/trace_binary.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>

#include "core/varint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define UPS_TRACE_HAVE_MMAP 1
#endif

namespace ups::net {

namespace {

static_assert(std::endian::native == std::endian::little,
              "binary trace I/O assumes a little-endian host; add "
              "byte-swapping load/store helpers before porting to a "
              "big-endian target");

template <typename T>
[[nodiscard]] T load_le(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));  // unaligned-safe; LE host asserted above
  return v;
}

template <typename T>
void store_le(std::uint8_t* p, T v) noexcept {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  const std::size_t n = buf.size();
  buf.resize(n + sizeof(T));
  store_le(buf.data() + n, v);
}

#if !UPS_TRACE_HAVE_MMAP
// One sized read into a pre-sized buffer — istreambuf_iterator would pull
// the file a character at a time through virtual calls, hopeless at the
// GB/s this format targets.
std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  const std::streamoff size = is.tellg();
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!is) throw std::runtime_error("trace: read failed for " + path);
  return bytes;
}
#endif

// Maps `path` read-only (falling back to an owned buffer without mmap)
// with front-to-back page-cache advice.
struct file_image {
  void* mapping = nullptr;  // non-null when mmap owns the bytes
  std::size_t mapping_size = 0;
  std::vector<std::uint8_t> owned;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

file_image map_trace_file(const std::string& path) {
  file_image img;
#if UPS_TRACE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("trace: cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("trace: cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw trace_format_error("trace: file shorter than a trace header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    throw std::runtime_error("trace: mmap failed for " + path);
  }
  // Advice only — a failure costs readahead tuning, never correctness.
  // Readers drain front to back, so ask for aggressive readahead and start
  // the fetch now: the first blocks stream in behind the header/index
  // validation pass.
#if defined(MADV_SEQUENTIAL)
  (void)::madvise(map, size, MADV_SEQUENTIAL);
#endif
#if defined(MADV_WILLNEED)
  (void)::madvise(map, size, MADV_WILLNEED);
#endif
  img.mapping = map;
  img.mapping_size = size;
  img.data = static_cast<const std::uint8_t*>(map);
  img.size = size;
#else
  // No mmap on this platform: fall back to reading the file into an owned
  // buffer (still one parse-free image; just not shared across processes).
  img.owned = slurp(path);
  img.data = img.owned.data();
  img.size = img.owned.size();
#endif
  return img;
}

[[nodiscard]] bool file_starts_with(const std::string& path,
                                    const char (&magic)[8]) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  char head[8] = {};
  is.read(head, sizeof(head));
  return is.gcount() == sizeof(head) &&
         std::memcmp(head, magic, sizeof(head)) == 0;
}

// --- v3 primitives -----------------------------------------------------------

// LEB128 + zigzag come from the shared core implementation.
using core::put_varint;
using core::unzigzag;
using core::zigzag;

// Wrapping u64 difference cast to signed: round-trips every (a, b) pair
// exactly (the decoder applies the inverse wrap), while keeping the common
// small-difference case one varint byte. Avoids the signed-overflow UB a
// plain i64 subtraction would hit on extreme operands.
[[nodiscard]] constexpr std::int64_t wrap_diff(std::int64_t a,
                                               std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] constexpr std::int64_t wrap_add(std::int64_t base,
                                              std::int64_t delta) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(base) +
                                   static_cast<std::uint64_t>(delta));
}

[[nodiscard]] std::uint32_t narrow_u32(std::uint64_t v, const char* what) {
  if (v > UINT32_MAX) {
    throw trace_format_error(std::string("trace v3: ") + what +
                             " overflows 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

[[nodiscard]] node_id narrow_node(std::int64_t v, const char* what) {
  if (v < INT32_MIN || v > INT32_MAX) {
    throw trace_format_error(std::string("trace v3: ") + what +
                             " overflows a node id");
  }
  return static_cast<node_id>(v);
}

// Column order (see kTraceV3ColumnNames): the numeric indices below are the
// single source of truth for both encoder and decoder.
enum v3_col : std::size_t {
  kColIngress = 0,
  kColEgress = 1,
  kColId = 2,
  kColFlow = 3,
  kColSeq = 4,
  kColSize = 5,
  kColSrc = 6,
  kColDst = 7,
  kColQdelay = 8,
  kColFlowSize = 9,
  kColPathLen = 10,
  kColPath = 11,
  kColDepartsLen = 12,
  kColDeparts = 13,
  // 16-column (lossy) files only:
  kColDropInfo = 14,
  kColDropTime = 15,
  // 18-column (backpressured) files only:
  kColStallInfo = 16,
  kColStallTime = 17,
};

struct v3_header_fields {
  std::uint64_t record_count = 0;
  std::uint64_t block_count = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t index_capacity = 0;
  std::uint32_t records_per_block = 0;
  std::uint32_t column_count = 0;  // normalized: 0 -> kTraceV3ColumnCount
};

v3_header_fields check_v3_header(const std::uint8_t* data, std::size_t size) {
  if (size < kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: file shorter than the header");
  }
  if (std::memcmp(data, kTraceV3Magic, sizeof(kTraceV3Magic)) != 0) {
    throw trace_format_error("trace v3: bad magic");
  }
  const std::uint32_t version = load_le<std::uint32_t>(data + 8);
  if (version != kTraceV3Version) {
    throw trace_format_error("trace v3: unsupported version " +
                             std::to_string(version));
  }
  const std::uint32_t header_bytes = load_le<std::uint32_t>(data + 12);
  if (header_bytes != kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: unexpected header size");
  }
  v3_header_fields h;
  h.record_count = load_le<std::uint64_t>(data + 16);
  h.block_count = load_le<std::uint64_t>(data + 24);
  h.data_offset = load_le<std::uint64_t>(data + 32);
  h.index_capacity = load_le<std::uint64_t>(data + 40);
  h.records_per_block = load_le<std::uint32_t>(data + 48);
  if (h.records_per_block == 0) {
    throw trace_format_error("trace v3: zero records per block");
  }
  h.column_count = load_le<std::uint32_t>(data + 52);
  if (h.column_count == 0) h.column_count = kTraceV3ColumnCount;
  if (h.column_count != kTraceV3ColumnCount &&
      h.column_count != kTraceV3DropColumnCount &&
      h.column_count != kTraceV3StallColumnCount) {
    throw trace_format_error("trace v3: unsupported column count " +
                             std::to_string(h.column_count));
  }
  // Division-form bound first so the multiplication below cannot overflow.
  if (h.index_capacity >
      (size - kTraceV3HeaderBytes) / kTraceV3IndexEntryBytes) {
    throw trace_format_error("trace v3: index region out of bounds");
  }
  if (h.data_offset != kTraceV3HeaderBytes +
                           kTraceV3IndexEntryBytes * h.index_capacity) {
    throw trace_format_error(
        "trace v3: data offset disagrees with index capacity");
  }
  if (h.block_count > h.index_capacity) {
    throw trace_format_error("trace v3: block count exceeds index capacity");
  }
  return h;
}

}  // namespace

bool is_trace_v3_file(const std::string& path) {
  return file_starts_with(path, kTraceV3Magic);
}

// --- v3 writer ---------------------------------------------------------------

trace_v3_writer::trace_v3_writer(std::ostream& os,
                                 std::uint64_t record_capacity,
                                 std::uint32_t records_per_block,
                                 bool with_drops, bool with_stalls)
    : os_(&os),
      records_per_block_(records_per_block),
      ncols_(with_stalls ? kTraceV3StallColumnCount
             : with_drops ? kTraceV3DropColumnCount
                          : kTraceV3ColumnCount) {
  if (records_per_block_ == 0) {
    throw std::logic_error("trace_v3_writer: records_per_block must be > 0");
  }
  index_capacity_ =
      (record_capacity + records_per_block_ - 1) / records_per_block_;
  data_offset_ = kTraceV3HeaderBytes +
                 static_cast<std::uint64_t>(kTraceV3IndexEntryBytes) *
                     index_capacity_;
  offset_ = data_offset_;
  std::uint8_t header[kTraceV3HeaderBytes] = {};
  std::memcpy(header, kTraceV3Magic, sizeof(kTraceV3Magic));
  store_le<std::uint32_t>(header + 8, kTraceV3Version);
  store_le<std::uint32_t>(header + 12, kTraceV3HeaderBytes);
  // record_count / block_count at 16/24 stay zero until finish() patches.
  store_le<std::uint64_t>(header + 32, data_offset_);
  store_le<std::uint64_t>(header + 40, index_capacity_);
  store_le<std::uint32_t>(header + 48, records_per_block_);
  // Zero-loss files leave column_count 0 (legacy spelling of the 14 base
  // columns) so their bytes stay identical to pre-drop-support output.
  if (ncols_ != kTraceV3ColumnCount) {
    store_le<std::uint32_t>(header + 52, ncols_);
  }
  os_->write(reinterpret_cast<const char*>(header), sizeof(header));
  // Reserve the index region as zeros; finish() seeks back and fills it.
  static constexpr std::size_t kChunk = 1 << 16;
  std::uint8_t zeros[kChunk] = {};
  std::uint64_t left =
      static_cast<std::uint64_t>(kTraceV3IndexEntryBytes) * index_capacity_;
  while (left > 0) {
    const std::size_t step =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunk));
    os_->write(reinterpret_cast<const char*>(zeros),
               static_cast<std::streamsize>(step));
    left -= step;
  }
  if (!*os_) throw trace_format_error("trace v3: header write failed");
  index_.reserve(index_capacity_);
}

void trace_v3_writer::append(const packet_record& r) {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: append after finish");
  }
  if (r.ingress_time < last_ingress_) {
    throw trace_format_error(
        "trace v3: records must be appended in ingress order");
  }
  last_ingress_ = r.ingress_time;
  if (in_block_ == 0) {
    block_base_ = r.ingress_time;
    prev_ingress_ = r.ingress_time;
    prev_id_ = 0;
    prev_flow_ = 0;
  }
  put_varint(cols_[kColIngress],
             static_cast<std::uint64_t>(r.ingress_time) -
                 static_cast<std::uint64_t>(prev_ingress_));
  prev_ingress_ = r.ingress_time;
  put_varint(cols_[kColEgress],
             zigzag(wrap_diff(r.egress_time, r.ingress_time)));
  put_varint(cols_[kColId],
             zigzag(static_cast<std::int64_t>(r.id - prev_id_)));
  prev_id_ = r.id;
  put_varint(cols_[kColFlow],
             zigzag(static_cast<std::int64_t>(r.flow_id - prev_flow_)));
  prev_flow_ = r.flow_id;
  put_varint(cols_[kColSeq], r.seq_in_flow);
  put_varint(cols_[kColSize], r.size_bytes);
  put_varint(cols_[kColSrc], zigzag(r.src_host));
  put_varint(cols_[kColDst], zigzag(r.dst_host));
  put_varint(cols_[kColQdelay], zigzag(r.queueing_delay));
  put_varint(cols_[kColFlowSize], r.flow_size_bytes);
  put_varint(cols_[kColPathLen], r.path.size());
  for (const node_id n : r.path) put_varint(cols_[kColPath], zigzag(n));
  put_varint(cols_[kColDepartsLen], r.hop_departs.size());
  sim::time_ps prev_depart = r.ingress_time;
  for (const sim::time_ps d : r.hop_departs) {
    put_varint(cols_[kColDeparts], zigzag(wrap_diff(d, prev_depart)));
    prev_depart = d;
  }
  if (ncols_ >= kTraceV3DropColumnCount) {
    const std::uint64_t info =
        r.dropped() ? ((static_cast<std::uint64_t>(r.drop_hop) + 1) << 2) |
                          static_cast<std::uint64_t>(r.dropped_kind)
                    : 0;
    put_varint(cols_[kColDropInfo], info);
    put_varint(cols_[kColDropTime],
               r.dropped() ? zigzag(wrap_diff(r.drop_time, r.ingress_time))
                           : 0);
  } else if (r.dropped()) {
    throw trace_format_error(
        "trace v3: dropped record appended to a writer without drop "
        "columns");
  }
  if (ncols_ >= kTraceV3StallColumnCount) {
    const std::uint64_t sinfo =
        r.stalled() ? (static_cast<std::uint64_t>(r.stall_count) << 16) |
                          (static_cast<std::uint64_t>(r.stall_hop) + 1)
                    : 0;
    put_varint(cols_[kColStallInfo], sinfo);
    put_varint(cols_[kColStallTime],
               r.stalled() ? static_cast<std::uint64_t>(r.stall_time) : 0);
  } else if (r.stalled()) {
    throw trace_format_error(
        "trace v3: stalled record appended to a writer without stall "
        "columns");
  }
  ++in_block_;
  ++written_;
  if (in_block_ == records_per_block_) flush_block();
}

void trace_v3_writer::flush_block() {
  if (in_block_ == 0) return;
  if (index_.size() == index_capacity_) {
    throw trace_format_error(
        "trace v3: writer exceeded its declared record capacity");
  }
  const std::uint32_t header_bytes = trace_v3_block_header_bytes(ncols_);
  std::uint64_t bytes = header_bytes;
  for (std::size_t c = 0; c < ncols_; ++c) bytes += cols_[c].size();
  if (bytes > UINT32_MAX) {
    throw trace_format_error("trace v3: block exceeds 4 GiB");
  }
  block_buf_.clear();
  block_buf_.resize(header_bytes);
  std::uint8_t* h = block_buf_.data();
  store_le<std::uint32_t>(h, in_block_);
  store_le<std::uint32_t>(h + 4, static_cast<std::uint32_t>(bytes));
  store_le<std::int64_t>(h + 8, block_base_);
  store_le<std::int64_t>(h + 16, prev_ingress_);  // block max ingress
  for (std::size_t c = 0; c < ncols_; ++c) {
    store_le<std::uint32_t>(h + 24 + 4 * c,
                            static_cast<std::uint32_t>(cols_[c].size()));
  }
  for (std::size_t c = 0; c < ncols_; ++c) {
    block_buf_.insert(block_buf_.end(), cols_[c].begin(), cols_[c].end());
    cols_[c].clear();
  }
  os_->write(reinterpret_cast<const char*>(block_buf_.data()),
             static_cast<std::streamsize>(block_buf_.size()));
  if (!*os_) throw trace_format_error("trace v3: block write failed");
  index_.push_back({offset_, bytes, block_base_, prev_ingress_});
  offset_ += bytes;
  in_block_ = 0;
}

void trace_v3_writer::finish() {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: finish called twice");
  }
  flush_block();
  finished_ = true;
  block_buf_.clear();
  for (const auto& e : index_) {
    append_le<std::uint64_t>(block_buf_, e.offset);
    append_le<std::uint64_t>(block_buf_, e.bytes);
    append_le<std::int64_t>(block_buf_, e.min_ingress);
    append_le<std::int64_t>(block_buf_, e.max_ingress);
  }
  os_->seekp(kTraceV3HeaderBytes);
  os_->write(reinterpret_cast<const char*>(block_buf_.data()),
             static_cast<std::streamsize>(block_buf_.size()));
  os_->seekp(16);
  block_buf_.clear();
  append_le<std::uint64_t>(block_buf_, written_);
  append_le<std::uint64_t>(block_buf_, index_.size());
  os_->write(reinterpret_cast<const char*>(block_buf_.data()), 16);
  os_->seekp(0, std::ios::end);
  os_->flush();
  if (!*os_) throw trace_format_error("trace v3: index write failed");
}

void write_trace_v3(std::ostream& os, const trace& t) {
  // Emit in (ingress, position) order — the stable tie-break
  // trace_ingress_cursor uses — so any input order produces the same file
  // and the same replay as the v1 path.
  std::vector<std::uint32_t> order(t.packets.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return t.packets[a].ingress_time <
                            t.packets[b].ingress_time;
                   });
  bool any_dropped = false;
  bool any_stalled = false;
  for (const auto& r : t.packets) {
    if (r.dropped()) any_dropped = true;
    if (r.stalled()) any_stalled = true;
    if (any_dropped && any_stalled) break;
  }
  trace_v3_writer w(os, t.packets.size(), kTraceV3BlockRecords, any_dropped,
                    any_stalled);
  for (const std::uint32_t i : order) w.append(t.packets[i]);
  w.finish();
}

void save_trace_v3(const std::string& path, const trace& t) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("trace: cannot open " + path);
  write_trace_v3(os, t);
}

trace read_trace_v3(const std::uint8_t* data, std::size_t size) {
  trace_v3_cursor cur(data, size);
  trace t;
  t.packets.reserve(cur.size_hint());
  while (const packet_record* r = cur.next()) t.packets.push_back(*r);
  return t;
}

trace load_trace_v3(const std::string& path) {
  trace_v3_cursor cur(path);
  trace t;
  t.packets.reserve(cur.size_hint());
  while (const packet_record* r = cur.next()) t.packets.push_back(*r);
  return t;
}

// --- v3 cursor ---------------------------------------------------------------

trace_v3_cursor::trace_v3_cursor(const std::string& path) {
  file_image img = map_trace_file(path);
  mapping_ = img.mapping;
  mapping_size_ = img.mapping_size;
  owned_bytes_ = std::move(img.owned);
  data_ = mapping_ != nullptr ? img.data : owned_bytes_.data();
  size_ = img.size;
  validate_header_and_index();
}

trace_v3_cursor::trace_v3_cursor(const std::uint8_t* data, std::size_t size)
    : data_(data), size_(size) {
  validate_header_and_index();
}

trace_v3_cursor::~trace_v3_cursor() {
#if UPS_TRACE_HAVE_MMAP
  if (mapping_ != nullptr) ::munmap(mapping_, mapping_size_);
#endif
}

void trace_v3_cursor::validate_header_and_index() {
  const v3_header_fields h = check_v3_header(data_, size_);
  count_ = h.record_count;
  block_count_ = h.block_count;
  data_offset_ = h.data_offset;
  index_capacity_ = h.index_capacity;
  records_per_block_ = h.records_per_block;
  ncols_ = h.column_count;
  // One pass over the leading index pins down every block's placement
  // before any decode: blocks must tile [data_offset, file end) exactly and
  // carry non-decreasing ingress bounds. After this, seeks can trust any
  // entry without re-checking, and truncation or trailing garbage is caught
  // here rather than mid-replay.
  std::uint64_t end = data_offset_;
  sim::time_ps prev_max = INT64_MIN;
  for (std::uint64_t b = 0; b < block_count_; ++b) {
    const block_bounds e = bounds_at(b);
    if (e.bytes < trace_v3_block_header_bytes(ncols_)) {
      throw trace_format_error("trace v3: block smaller than its header");
    }
    if (e.offset != end) {
      throw trace_format_error("trace v3: index entry out of place");
    }
    if (e.bytes > size_ - e.offset) {  // e.offset <= size_ by induction
      throw trace_format_error("trace v3: block out of bounds");
    }
    if (e.min_ingress > e.max_ingress || e.min_ingress < prev_max) {
      throw trace_format_error("trace v3: block index out of order");
    }
    prev_max = e.max_ingress;
    end = e.offset + e.bytes;
  }
  if (end != size_) {
    throw trace_format_error(
        "trace v3: file size disagrees with the block index");
  }
}

trace_v3_cursor::block_bounds trace_v3_cursor::bounds_at(
    std::uint64_t b) const {
  if (b >= index_capacity_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  const std::uint8_t* e =
      data_ + kTraceV3HeaderBytes + kTraceV3IndexEntryBytes * b;
  block_bounds out;
  out.offset = load_le<std::uint64_t>(e);
  out.bytes = load_le<std::uint64_t>(e + 8);
  out.min_ingress = load_le<std::int64_t>(e + 16);
  out.max_ingress = load_le<std::int64_t>(e + 24);
  return out;
}

std::uint32_t trace_v3_cursor::records_in_block(std::uint64_t b) const {
  if (b >= block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  return load_le<std::uint32_t>(data_ + bounds_at(b).offset);
}

std::array<std::uint32_t, kTraceV3MaxColumnCount>
trace_v3_cursor::column_bytes_at(std::uint64_t b) const {
  if (b >= block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  const std::uint8_t* h = data_ + bounds_at(b).offset;
  // Columns the file does not store read back as zero bytes.
  std::array<std::uint32_t, kTraceV3MaxColumnCount> out{};
  for (std::size_t c = 0; c < ncols_; ++c) {
    out[c] = load_le<std::uint32_t>(h + 24 + 4 * c);
  }
  return out;
}


std::uint32_t trace_v3_cursor::decode_block(std::uint64_t b) {
  const block_bounds e = bounds_at(b);
  const std::uint8_t* p = data_ + e.offset;
  const std::uint32_t n = load_le<std::uint32_t>(p);
  const std::uint32_t block_bytes = load_le<std::uint32_t>(p + 4);
  const sim::time_ps base = load_le<std::int64_t>(p + 8);
  const sim::time_ps bmax = load_le<std::int64_t>(p + 16);
  if (n == 0 || n > records_per_block_) {
    throw trace_format_error("trace v3: block record count out of range");
  }
  if (block_bytes != e.bytes || base != e.min_ingress ||
      bmax != e.max_ingress) {
    throw trace_format_error(
        "trace v3: block header disagrees with the index");
  }
  std::uint32_t col_bytes[kTraceV3MaxColumnCount] = {};
  std::uint64_t total = trace_v3_block_header_bytes(ncols_);
  for (std::size_t c = 0; c < ncols_; ++c) {
    col_bytes[c] = load_le<std::uint32_t>(p + 24 + 4 * c);
    total += col_bytes[c];
  }
  if (total != e.bytes) {
    throw trace_format_error(
        "trace v3: column sizes disagree with the block size");
  }
  // One read pointer per column, each bounded by its column's end.
  const std::uint8_t* col[kTraceV3MaxColumnCount] = {};
  const std::uint8_t* col_end[kTraceV3MaxColumnCount] = {};
  {
    const std::uint8_t* q = p + trace_v3_block_header_bytes(ncols_);
    for (std::size_t c = 0; c < ncols_; ++c) {
      col[c] = q;
      q += col_bytes[c];
      col_end[c] = q;
    }
  }
  const auto get = [&col, &col_end](std::size_t c) {
    return core::get_varint_checked<trace_format_error>(col[c], col_end[c],
                                                        "trace v3");
  };
  // Never shrink records: the final short block would otherwise destroy
  // warmed slot capacities, and a re-drain after a seek would have to
  // reallocate them.
  if (records_.size() < n) records_.resize(n);
  sim::time_ps ingress = base;
  std::uint64_t id = 0;
  std::uint64_t flow = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    packet_record& r = records_[i];
    const std::uint64_t delta = get(kColIngress);
    if (i == 0 && delta != 0) {
      throw trace_format_error("trace v3: first ingress delta must be zero");
    }
    const sim::time_ps t = wrap_add(ingress, static_cast<std::int64_t>(delta));
    if (t < ingress) {
      throw trace_format_error(
          "trace v3: ingress not monotone within a block");
    }
    ingress = t;
    r.ingress_time = t;
    r.egress_time = wrap_add(t, unzigzag(get(kColEgress)));
    id += static_cast<std::uint64_t>(unzigzag(get(kColId)));
    r.id = id;
    flow += static_cast<std::uint64_t>(unzigzag(get(kColFlow)));
    r.flow_id = flow;
    r.seq_in_flow = narrow_u32(get(kColSeq), "seq");
    r.size_bytes = narrow_u32(get(kColSize), "size");
    r.src_host = narrow_node(unzigzag(get(kColSrc)), "src");
    r.dst_host = narrow_node(unzigzag(get(kColDst)), "dst");
    r.queueing_delay = unzigzag(get(kColQdelay));
    r.flow_size_bytes = get(kColFlowSize);
    // A length is bounded by its data column before anything is sized:
    // every element needs at least one byte, so a corrupt length claiming
    // more elements than the column has bytes left is rejected here, never
    // turned into a resize (an allocation bomb) that fails later. resize()
    // reuses the slot's capacity — no steady-state allocation.
    const std::uint64_t plen = get(kColPathLen);
    if (plen > static_cast<std::uint64_t>(col_end[kColPath] - col[kColPath])) {
      throw trace_format_error(
          "trace v3: path lengths exceed the path column");
    }
    r.path.resize(static_cast<std::size_t>(plen));
    for (node_id& hop : r.path) {
      hop = narrow_node(unzigzag(get(kColPath)), "hop");
    }
    const std::uint64_t dlen = get(kColDepartsLen);
    if (dlen >
        static_cast<std::uint64_t>(col_end[kColDeparts] - col[kColDeparts])) {
      throw trace_format_error(
          "trace v3: departs lengths exceed the departs column");
    }
    r.hop_departs.resize(static_cast<std::size_t>(dlen));
    // Each record's departs are a delta chain seeded from its ingress.
    sim::time_ps prev = t;
    for (sim::time_ps& d : r.hop_departs) {
      prev = wrap_add(prev, unzigzag(get(kColDeparts)));
      d = prev;
    }
    r.drop_hop = -1;
    r.dropped_kind = drop_kind::buffer;
    r.drop_time = -1;
    r.stall_hop = -1;
    r.stall_count = 0;
    r.stall_time = 0;
    if (ncols_ >= kTraceV3DropColumnCount) {
      const std::uint32_t info = narrow_u32(get(kColDropInfo), "dropinfo");
      const sim::time_ps drop_time = wrap_add(t, unzigzag(get(kColDropTime)));
      if (info != 0) {
        const std::uint32_t kind = info & 3;
        const std::uint32_t hop = (info >> 2) - 1;
        if (kind > 1 || hop >= r.path.size()) {
          throw trace_format_error("trace v3: malformed dropinfo value");
        }
        r.drop_hop = static_cast<std::int32_t>(hop);
        r.dropped_kind = static_cast<drop_kind>(kind);
        r.drop_time = drop_time;
      }
    }
    if (ncols_ >= kTraceV3StallColumnCount) {
      const std::uint64_t info = get(kColStallInfo);
      const auto stall_time = static_cast<sim::time_ps>(get(kColStallTime));
      if (info != 0) {
        const std::uint64_t hop = (info & 0xFFFF) - 1;
        const std::uint64_t count = info >> 16;
        if (hop >= r.path.size() || count == 0 || count > UINT32_MAX ||
            stall_time < 0) {
          throw trace_format_error("trace v3: malformed stallinfo value");
        }
        r.stall_hop = static_cast<std::int32_t>(hop);
        r.stall_count = static_cast<std::uint32_t>(count);
        r.stall_time = stall_time;
      }
    }
  }
  if (ingress != bmax) {
    throw trace_format_error(
        "trace v3: last ingress disagrees with the block bound");
  }
  for (std::size_t c = 0; c < ncols_; ++c) {
    if (col[c] != col_end[c]) {
      throw trace_format_error(std::string("trace v3: ") +
                               kTraceV3ColumnNames[c] +
                               " column has leftover bytes");
    }
  }
  return n;
}

bool trace_v3_cursor::ensure_block() {
  if (block_pos_ < block_n_) return true;
  if (next_block_ >= block_count_) return false;
  block_n_ = decode_block(next_block_);
  block_pos_ = 0;
  cur_block_ = next_block_++;
  return true;
}

const packet_record* trace_v3_cursor::next() {
  if (!ensure_block()) {
    if (!seeked_ && served_ != count_) {
      throw trace_format_error(
          "trace v3: blocks disagree with the declared record count");
    }
    return nullptr;
  }
  ++served_;
  return &records_[block_pos_++];
}

std::uint64_t trace_v3_cursor::current_block() const noexcept {
  return block_pos_ < block_n_ ? cur_block_ : next_block_;
}

void trace_v3_cursor::seek_to_block(std::uint64_t b) {
  if (b > block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  seeked_ = true;
  served_ = 0;
  next_block_ = b;
  cur_block_ = UINT64_MAX;
  block_n_ = 0;
  block_pos_ = 0;
}

void trace_v3_cursor::seek_lower_bound(sim::time_ps t) {
  // Binary search the index bounds for the first block whose max ingress
  // reaches t, then skip within it. Touches header + index pages plus the
  // one target block — never the tail.
  std::uint64_t lo = 0, hi = block_count_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bounds_at(mid).max_ingress < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  seek_to_block(lo);
  if (!ensure_block()) return;  // t is past the last record
  while (block_pos_ < block_n_ && records_[block_pos_].ingress_time < t) {
    ++block_pos_;
  }
}

}  // namespace ups::net
