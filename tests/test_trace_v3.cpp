// Tests for the v3 block-structured trace format: round trips (including
// hand-built edge records and runs that span block boundaries), v1 <-> v3
// conversion, replay equivalence against the v1 path both serial and
// through the dispatch fabric, format sniffing, index-based seeking, and
// corruption robustness — every
// mutation of a valid image must either read back cleanly or throw
// trace_format_error, never crash or read out of bounds (the ASan/UBSan CI
// job gives the "never UB" half teeth).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/replay_experiment.h"
#include "exp/dispatch/backend.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "replay_test_util.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "traffic/size_dist.h"
#include "traffic/udp_app.h"
#include "traffic/workload.h"

// Counts every scalar/array heap allocation in this test binary, for the
// v3 cursor's zero-allocation contract. Tests read it only around the
// window they check. The nothrow forms are replaced too (std::stable_sort
// takes its buffer through them), so every delete below frees memory that
// came from malloc — ASan checks that pairing.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline: inlined into callers, GCC pairs the visible std::free with the
// library's operator new declaration and warns -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& nt) noexcept {
  return ::operator new(n, nt);
}
void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace ups::net {
namespace {

struct recorded {
  topo::topology topology;
  trace tr;
};

recorded small_run(bool hop_times) {
  recorded out;
  out.topology = topo::dumbbell(3, 10 * sim::kGbps, sim::kGbps);
  sim::simulator sim;
  network net(sim);
  topo::populate(out.topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::random, 5, &net));
  net.build();
  trace_recorder rec(net, hop_times);
  traffic::fixed_size dist(15'000);
  traffic::workload_config wcfg;
  wcfg.packet_budget = 800;
  auto wl = traffic::generate(net, out.topology, dist, wcfg);
  traffic::udp_app::options aopt;
  aopt.record_hops = hop_times;
  traffic::udp_app app(net, std::move(wl.flows), aopt);
  sim.run();
  out.tr = rec.take();
  return out;
}

void expect_equal(const trace& a, const trace& b) {
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const auto& x = a.packets[i];
    const auto& y = b.packets[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.flow_id, y.flow_id);
    EXPECT_EQ(x.seq_in_flow, y.seq_in_flow);
    EXPECT_EQ(x.size_bytes, y.size_bytes);
    EXPECT_EQ(x.src_host, y.src_host);
    EXPECT_EQ(x.dst_host, y.dst_host);
    EXPECT_EQ(x.ingress_time, y.ingress_time);
    EXPECT_EQ(x.egress_time, y.egress_time);
    EXPECT_EQ(x.queueing_delay, y.queueing_delay);
    EXPECT_EQ(x.flow_size_bytes, y.flow_size_bytes);
    EXPECT_EQ(x.path, y.path);
    EXPECT_EQ(x.hop_departs, y.hop_departs);
  }
}

// Serializes to a v3 byte image in memory (the writer needs a seekable
// stream; stringstream qualifies).
std::vector<std::uint8_t> to_v3_bytes(const trace& t) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_trace_v3(ss, t);
  const std::string s = ss.str();
  return {s.begin(), s.end()};
}

// Same, but through a raw writer with a caller-chosen block size so tests
// can force multi-block files out of small traces. Appends in input order
// (the caller sorts).
std::vector<std::uint8_t> to_v3_bytes_blocked(const trace& t,
                                              std::uint32_t per_block) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  trace_v3_writer w(ss, t.packets.size(), per_block);
  for (const auto& r : t.packets) w.append(r);
  w.finish();
  const std::string s = ss.str();
  return {s.begin(), s.end()};
}

// Drains a cursor built over `bytes`, exercising every decode and order
// check — the "read it all" half of the fuzz property.
std::size_t drain_image(const std::vector<std::uint8_t>& bytes) {
  trace_v3_cursor cur(bytes.data(), bytes.size());
  std::size_t n = 0;
  while (cur.next() != nullptr) ++n;
  return n;
}

TEST(trace_v3, round_trip_preserves_all_fields) {
  auto r = small_run(true);
  // v3 stores ingress order, so compare against the sorted trace.
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes(r.tr);
  const trace back = read_trace_v3(bytes.data(), bytes.size());
  expect_equal(r.tr, back);
  ASSERT_FALSE(back.packets.empty());
  EXPECT_FALSE(back.packets.front().hop_departs.empty());
}

TEST(trace_v3, writer_sorts_any_input_order) {
  // The recorder appends in egress order; write_trace_v3 must produce the
  // same file (and therefore the same replay) as a pre-sorted input.
  const auto r = small_run(false);
  bool out_of_order = false;
  for (std::size_t i = 1; i < r.tr.packets.size(); ++i) {
    if (r.tr.packets[i].ingress_time < r.tr.packets[i - 1].ingress_time) {
      out_of_order = true;
      break;
    }
  }
  ASSERT_TRUE(out_of_order) << "run should egress out of ingress order";
  const auto bytes = to_v3_bytes(r.tr);
  trace sorted = r.tr;
  sort_by_ingress(sorted);
  EXPECT_EQ(bytes, to_v3_bytes(sorted));
  // And the decoded stream matches the in-memory ingress cursor record for
  // record (the stable same-instant tie-break included).
  trace_v3_cursor cur(bytes.data(), bytes.size());
  auto ref = r.tr.ingress_cursor();
  while (const packet_record* rec = cur.next()) {
    const packet_record* want = ref.next();
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(rec->id, want->id);
    EXPECT_EQ(rec->ingress_time, want->ingress_time);
  }
  EXPECT_EQ(ref.next(), nullptr);
}

TEST(trace_v3, round_trip_edge_case_records) {
  // Hand-built records the workload generator never produces, in ingress
  // order (the v3 writer requires it): extreme ids, negative times,
  // kInvalidNode endpoints, empty and single-hop paths.
  trace t;
  packet_record b;
  b.id = UINT64_MAX;
  b.flow_id = UINT64_MAX;
  b.seq_in_flow = UINT32_MAX;
  b.size_bytes = UINT32_MAX;
  b.src_host = kInvalidNode;  // -1 survives the zigzag encoding
  b.dst_host = kInvalidNode;
  b.path = {};  // empty path, empty hop_departs
  b.ingress_time = -1;
  b.egress_time = -1;
  b.queueing_delay = -5;
  t.packets.push_back(b);
  packet_record a;
  a.id = 1;
  a.flow_id = 7;
  a.size_bytes = 0;
  a.src_host = 0;
  a.dst_host = 0;
  a.path = {4};  // single hop
  a.ingress_time = 0;
  a.egress_time = INT64_MAX / 8;
  t.packets.push_back(a);
  packet_record c;
  c.id = 3;
  c.path = {1, 2, 3, 4, 5};
  c.hop_departs = {10, 20, 30, 40, 50};
  c.ingress_time = 5;
  t.packets.push_back(c);

  const auto bytes = to_v3_bytes(t);
  const trace back = read_trace_v3(bytes.data(), bytes.size());
  expect_equal(t, back);
}

TEST(trace_v3, empty_trace_round_trips) {
  const trace t;
  const auto bytes = to_v3_bytes(t);
  EXPECT_EQ(bytes.size(), kTraceV3HeaderBytes);
  trace_v3_cursor cur(bytes.data(), bytes.size());
  EXPECT_EQ(cur.size_hint(), 0u);
  EXPECT_EQ(cur.next(), nullptr);
}

TEST(trace_v3, next_run_partitions_across_block_boundaries) {
  // Same-instant groups deliberately straddling 4-record blocks: a run must
  // come back whole even when its records live in different blocks, and the
  // partition must match the in-memory and v1 text cursors'.
  trace t;
  const sim::time_ps instants[] = {10, 10, 10, 25, 25, 25, 25, 25, 30, 41};
  std::uint64_t id = 1;
  for (const sim::time_ps at : instants) {
    packet_record r;
    r.id = id++;
    r.path = {1, 2};
    r.ingress_time = at;
    r.egress_time = at + 100;
    t.packets.push_back(r);
  }
  const std::vector<std::size_t> want_runs = {3, 5, 1, 1};

  auto collect = [](trace_cursor& cur) {
    std::vector<std::size_t> runs;
    std::vector<const packet_record*> out;
    for (;;) {
      out.clear();
      const std::size_t n = cur.next_run(out);
      if (n == 0) break;
      EXPECT_EQ(n, out.size());
      for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_EQ(out[i]->ingress_time, out[0]->ingress_time);
        EXPECT_EQ(out[i]->id, out[i - 1]->id + 1);  // stable tie-break
      }
      runs.push_back(n);
    }
    return runs;
  };

  auto mem = t.ingress_cursor();
  EXPECT_EQ(collect(mem), want_runs);
  std::stringstream text;
  write_trace(text, t);
  trace_stream_reader reader(text);
  EXPECT_EQ(collect(reader), want_runs);
  const auto bytes = to_v3_bytes_blocked(t, 4);
  {
    trace_v3_cursor cur(bytes.data(), bytes.size());
    EXPECT_EQ(cur.block_count(), 3u);
    EXPECT_EQ(collect(cur), want_runs);
  }
  // Single-block layout must agree too.
  const auto one = to_v3_bytes(t);
  trace_v3_cursor cur(one.data(), one.size());
  EXPECT_EQ(cur.block_count(), 1u);
  EXPECT_EQ(collect(cur), want_runs);
}

TEST(trace_v3, seek_lower_bound_matches_linear_scan) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 64);
  trace_v3_cursor cur(bytes.data(), bytes.size());
  ASSERT_GT(cur.block_count(), 3u);
  const auto& pk = r.tr.packets;
  const sim::time_ps probes[] = {
      pk.front().ingress_time - 1, pk.front().ingress_time,
      pk[pk.size() / 3].ingress_time, pk[pk.size() / 2].ingress_time + 1,
      pk.back().ingress_time + 1};
  for (const sim::time_ps t : probes) {
    std::size_t want = 0;
    while (want < pk.size() && pk[want].ingress_time < t) ++want;
    cur.seek_lower_bound(t);
    if (want == pk.size()) {
      EXPECT_EQ(cur.next(), nullptr) << "probe " << t;
      continue;
    }
    const packet_record* got = cur.next();
    ASSERT_NE(got, nullptr) << "probe " << t;
    EXPECT_EQ(got->id, pk[want].id) << "probe " << t;
    EXPECT_EQ(got->ingress_time, pk[want].ingress_time);
  }
}

TEST(trace_v3, block_range_drain_covers_the_file_exactly_once) {
  // The disk-shard access pattern: consumers fence on current_block() after
  // seek_to_block(), and their union must equal one sequential drain —
  // whether the ranges are visited front to back or back to front (every
  // seek then lands behind the cursor's last position).
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 32);
  trace_v3_cursor probe(bytes.data(), bytes.size());
  const std::uint64_t blocks = probe.block_count();
  ASSERT_GT(blocks, 4u);
  const std::uint64_t ranges = (blocks + 2) / 3;
  for (const bool reverse : {false, true}) {
    std::vector<std::vector<std::uint64_t>> by_range(ranges);
    trace_v3_cursor shared(bytes.data(), bytes.size());
    for (std::uint64_t k = 0; k < ranges; ++k) {
      const std::uint64_t range = reverse ? ranges - 1 - k : k;
      const std::uint64_t begin = 3 * range;
      const std::uint64_t end = std::min(begin + 3, blocks);
      // Forward: a fresh cursor per range, as a disk shard opens one.
      // Reverse: one cursor seeking backwards through the whole file.
      trace_v3_cursor fresh(bytes.data(), bytes.size());
      trace_v3_cursor& cur = reverse ? shared : fresh;
      cur.seek_to_block(begin);
      while (cur.current_block() < end) {
        const packet_record* rec = cur.next();
        ASSERT_NE(rec, nullptr);
        by_range[range].push_back(rec->id);
      }
    }
    std::vector<std::uint64_t> ids;
    for (const auto& ids_in_range : by_range) {
      ids.insert(ids.end(), ids_in_range.begin(), ids_in_range.end());
    }
    ASSERT_EQ(ids.size(), r.tr.packets.size()) << "reverse=" << reverse;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(ids[i], r.tr.packets[i].id) << "reverse=" << reverse;
    }
  }
}

TEST(trace_v3, warmed_cursor_redecodes_without_heap_allocations) {
  // The steady-state contract of the block decoder: after one pass has
  // grown the column scratch and record slots to their high-water marks, a
  // full re-decode of the same file allocates nothing.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  const std::string path = ::testing::TempDir() + "/ups_allocs.v3";
  {
    std::ofstream os(path, std::ios::binary);
    trace_v3_writer w(os, r.tr.packets.size(), 64);
    for (const auto& rec : r.tr.packets) w.append(rec);
    w.finish();
  }
  const std::uint64_t at_open = g_heap_allocs.load(std::memory_order_relaxed);
  trace_v3_cursor cur(path);
  ASSERT_GT(cur.block_count(), 3u);
  std::vector<const packet_record*> run;
  const auto drain = [&cur, &run] {
    std::uint64_t fold = 0;
    for (;;) {
      run.clear();
      if (cur.next_run(run) == 0) break;
      for (const packet_record* rec : run) {
        fold += rec->id + rec->path.size() + rec->hop_departs.size();
      }
    }
    return fold;
  };
  const std::uint64_t warm = drain();
  cur.seek_to_block(0);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  ASSERT_GT(before, at_open) << "opening and warming allocate nothing: the "
                                "counting hook is not installed";
  const std::uint64_t steady = drain();
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  std::remove(path.c_str());
  EXPECT_EQ(warm, steady);
  EXPECT_EQ(allocs, 0u);
}

// What a trace costs as fixed-width binary records, the yardstick for v3's
// compression: a 32-byte file header, then per record a 4-byte length
// prefix, 72 bytes of fixed fields, 4 bytes per hop, 8 per hop departure,
// an 8-byte ingress-index slot, and 16/20 bytes when it carries a
// drop/stall.
std::uint64_t fixed_width_bytes(const trace& t) {
  std::uint64_t bytes = 32;
  for (const auto& r : t.packets) {
    bytes += 84 + 4 * r.path.size() + 8 * r.hop_departs.size() +
             (r.dropped() ? 16 : 0) + (r.stalled() ? 20 : 0);
  }
  return bytes;
}

TEST(trace_v3, wan_trace_with_hops_is_at_most_three_quarters_fixed_width) {
  // The block format's headline claim on its widest records: an Internet2
  // trace with per-hop departures recorded. Measured 0.386 at 6k packets.
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.packet_budget = 6'000;
  sc.record_hops = true;
  const auto orig = exp::run_original(sc);
  ASSERT_FALSE(orig.trace.packets.front().hop_departs.empty());
  const auto v3 = to_v3_bytes(orig.trace);
  const double ratio = static_cast<double>(v3.size()) /
                       static_cast<double>(fixed_width_bytes(orig.trace));
  EXPECT_LE(ratio, 0.75) << v3.size() << " v3 bytes for "
                         << orig.trace.packets.size() << " records";
}

TEST(trace_v3, v1_to_v3_conversion_is_record_identical) {
  // The tracec convert path: stream an ingress-sorted text trace record by
  // record into the v3 writer, then decode and compare field by field.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  std::stringstream text;
  write_trace(text, r.tr);
  trace_stream_reader reader(text);
  std::stringstream bin(std::ios::in | std::ios::out | std::ios::binary);
  trace_v3_writer writer(bin, reader.size_hint());
  while (const packet_record* rec = reader.next()) writer.append(*rec);
  writer.finish();
  EXPECT_EQ(writer.written(), r.tr.packets.size());
  const std::string s = bin.str();
  const trace back = read_trace_v3(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  expect_equal(r.tr, back);
}

TEST(trace_v3, streaming_and_upfront_replay_match_on_v3_file) {
  const auto r = small_run(false);
  const std::string path = ::testing::TempDir() + "/ups_inject.v3";
  save_trace_v3(path, r.tr);

  const auto& topology = r.topology;
  const auto builder = [&topology](network& n) { topo::populate(topology, n); };
  core::replay_options opt;
  opt.mode = core::replay_mode::lstf;
  opt.keep_outcomes = true;
  const auto res_mem = core::replay_trace(r.tr, builder, opt);

  trace_v3_cursor streaming_cur(path);
  const auto res_stream = core::replay_trace(streaming_cur, builder, opt);
  opt.injection = core::injection_mode::upfront;
  trace_v3_cursor upfront_cur(path);
  const auto res_upfront = core::replay_trace(upfront_cur, builder, opt);
  std::remove(path.c_str());

  ups::testing::expect_identical_results(res_mem, res_stream);
  ups::testing::expect_identical_results(res_mem, res_upfront);
}

TEST(trace_v3, replay_identical_across_v1_v3_serial_and_sharded) {
  // The headline invariant: the same recorded schedule replayed from both
  // on-disk formats — serially and through the dispatch thread backend —
  // must produce byte-identical outcomes.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const std::string d = ::testing::TempDir();
  const std::string p1 = d + "/ups_fmt.v1";
  const std::string p3 = d + "/ups_fmt.v3";
  save_trace(p1, r.tr);
  save_trace_v3(p3, r.tr);

  const sim::time_ps threshold =
      sim::transmission_time(1500, r.topology.bottleneck_rate());
  const auto baseline = exp::run_replay_file(
      p1, r.topology, threshold, core::replay_mode::lstf, true);
  const auto serial = exp::run_replay_file(p3, r.topology, threshold,
                                           core::replay_mode::lstf, true);
  ups::testing::expect_identical_results(baseline, serial);
  exp::disk_shard_task task;
  task.topology = r.topology;
  task.threshold_T = threshold;
  task.modes = {core::replay_mode::lstf, core::replay_mode::edf,
                core::replay_mode::lstf_pheap};
  exp::shard_options opt;
  opt.keep_outcomes = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    exp::dispatch::backend_spec spec;
    spec.kind = exp::dispatch::backend_kind::thread;
    spec.workers = threads;
    task.trace_path = p3;
    const auto v3_rep = exp::dispatch::run(
        exp::dispatch::job_plan::from_disk(task, opt), spec);
    v3_rep.throw_if_failed();
    const auto& v3_res = v3_rep.disk_replays;
    task.trace_path = p1;
    const auto v1_rep = exp::dispatch::run(
        exp::dispatch::job_plan::from_disk(task, opt), spec);
    v1_rep.throw_if_failed();
    const auto& v1_res = v1_rep.disk_replays;
    ASSERT_EQ(v3_res.size(), task.modes.size());
    for (std::size_t m = 0; m < task.modes.size(); ++m) {
      ups::testing::expect_identical_results(v1_res[m].result,
                                             v3_res[m].result);
    }
    ups::testing::expect_identical_results(baseline, v3_res[0].result);
  }
  std::remove(p1.c_str());
  std::remove(p3.c_str());
}

TEST(trace_v3, convert_round_trip_through_v1_is_byte_identical) {
  // The tracec convert path in both directions: v3 -> v1 streams the block
  // cursor into the text writer, v1 -> v3 the text reader into the v3
  // writer. Fields survive, and the second v3 image is the first one byte
  // for byte.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  const auto first = to_v3_bytes(r.tr);
  std::stringstream text;
  {
    trace_v3_cursor cur(first.data(), first.size());
    write_trace_header(text, cur.size_hint());
    while (const packet_record* rec = cur.next()) {
      write_trace_record(text, *rec);
    }
  }
  std::stringstream s3(std::ios::in | std::ios::out | std::ios::binary);
  {
    trace_stream_reader reader(text);
    trace_v3_writer w(s3, reader.size_hint());
    while (const packet_record* rec = reader.next()) w.append(*rec);
    w.finish();
  }
  const std::string i3 = s3.str();
  EXPECT_EQ(first, std::vector<std::uint8_t>(i3.begin(), i3.end()));
  const trace back = read_trace_v3(
      reinterpret_cast<const std::uint8_t*>(i3.data()), i3.size());
  expect_equal(r.tr, back);
}

TEST(trace_v3, open_trace_cursor_sniffs_v1_and_v3) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const std::string text_path = ::testing::TempDir() + "/ups_sniff.v1";
  const std::string path = ::testing::TempDir() + "/ups_sniff.v3";
  save_trace(text_path, r.tr);
  save_trace_v3(path, r.tr);
  EXPECT_TRUE(is_trace_v3_file(path));
  EXPECT_FALSE(is_trace_v3_file(text_path));
  const auto text_cur = open_trace_cursor(text_path);
  std::size_t n_text = 0;
  while (text_cur->next() != nullptr) ++n_text;
  EXPECT_EQ(n_text, r.tr.packets.size());
  const auto cur = open_trace_cursor(path);
  std::size_t n = 0;
  while (cur->next() != nullptr) ++n;
  EXPECT_EQ(n, r.tr.packets.size());
  // The random-access advice path must serve the same records.
  auto rnd = open_trace_cursor(path, trace_access::random);
  std::size_t m = 0;
  while (rnd->next() != nullptr) ++m;
  std::remove(text_path.c_str());
  std::remove(path.c_str());
  EXPECT_EQ(m, n);
}

TEST(trace_v3, retired_v2_file_throws_format_error) {
  // A file carrying the retired binary v2 magic is not a trace any reader
  // accepts: it falls through to the text reader, whose magic check throws
  // the typed error — from the sniffing opener and from a disk replay.
  const auto r = small_run(false);
  const std::string path = ::testing::TempDir() + "/ups_retired.v2";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const char head[32] = {'U', 'P', 'S', 'T', 'R', 'C', 'v', '2', 2};
    f.write(head, sizeof(head));
  }
  EXPECT_FALSE(is_trace_v3_file(path));
  EXPECT_THROW((void)open_trace_cursor(path), trace_format_error);
  EXPECT_THROW((void)exp::run_replay_file(path, r.topology, 0,
                                          core::replay_mode::lstf),
               trace_format_error);
  std::remove(path.c_str());
}

// --- writer contract ---------------------------------------------------------

TEST(trace_v3, writer_rejects_misuse) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  packet_record r;
  r.ingress_time = 100;
  {
    trace_v3_writer w(ss, 4);
    w.append(r);
    packet_record early = r;
    early.ingress_time = 99;
    EXPECT_THROW(w.append(early), trace_format_error);  // out of order
    w.finish();
    EXPECT_THROW(w.finish(), std::logic_error);
    EXPECT_THROW(w.append(r), std::logic_error);
  }
  {
    // Capacity 4 with 4-record blocks reserves one index slot; a fifth
    // record needs a second block and must throw rather than scribble.
    std::stringstream s2(std::ios::in | std::ios::out | std::ios::binary);
    trace_v3_writer w(s2, 4, 4);
    for (int i = 0; i < 4; ++i) {
      w.append(r);
      r.ingress_time += 1;
    }
    w.append(r);  // buffered; overflows only when its block flushes
    EXPECT_THROW(w.finish(), trace_format_error);
  }
  EXPECT_THROW(trace_v3_writer(ss, 10, 0), std::logic_error);
}

// --- corruption robustness ---------------------------------------------------

TEST(trace_v3, bad_magic_and_wrong_version_throw) {
  const auto r = small_run(false);
  auto bytes = to_v3_bytes(r.tr);
  for (std::size_t i = 0; i < 8; ++i) {
    auto bad = bytes;
    bad[i] ^= 0xFF;
    EXPECT_THROW(drain_image(bad), trace_format_error) << "magic byte " << i;
  }
  for (const std::uint32_t v : {0u, 1u, 2u, 4u, 0xFFFFFFFFu}) {
    auto bad = bytes;
    std::memcpy(bad.data() + 8, &v, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "version " << v;
  }
}

TEST(trace_v3, every_truncation_throws_never_crashes) {
  // Truncation at any length — mid-header, mid-index, mid-block — must be
  // caught by the index tiling check or a column bound before any
  // out-of-bounds read.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 128);
  ASSERT_GT(bytes.size(), 512u);
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 128 ? 1 : 61)) {
    std::vector<std::uint8_t> bad(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(drain_image(bad), trace_format_error) << "cut at " << cut;
  }
}

TEST(trace_v3, header_field_corruption_throws) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 128);
  struct patch {
    std::size_t off;
    std::uint64_t value;
    unsigned width;
  };
  const patch patches[] = {
      {16, 0, 8},                  // record_count zeroed
      {16, UINT64_MAX, 8},         // record_count absurd
      {24, 0, 8},                  // block_count zeroed (count stays > 0)
      {24, UINT64_MAX, 8},         // block_count > index capacity
      {32, 0, 8},                  // data_offset disagrees with capacity
      {32, UINT64_MAX, 8},         // data_offset absurd
      {40, 0, 8},                  // index_capacity < block_count
      {40, UINT64_MAX, 8},         // index region out of bounds
      {48, 0, 4},                  // records_per_block zero
      {48, 1, 4},                  // blocks exceed records_per_block
  };
  for (const auto& p : patches) {
    auto bad = bytes;
    std::memcpy(bad.data() + p.off, &p.value, p.width);
    EXPECT_THROW(drain_image(bad), trace_format_error)
        << "offset " << p.off << " value " << p.value;
  }
}

TEST(trace_v3, index_and_block_header_mutations_throw) {
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 64);
  trace_v3_cursor probe(bytes.data(), bytes.size());
  ASSERT_GT(probe.block_count(), 2u);
  const auto b1 = probe.bounds_at(1);
  const std::size_t e1 = kTraceV3HeaderBytes + kTraceV3IndexEntryBytes;
  // Index entry 1: offset, bytes, and bounds each damaged in turn.
  for (const std::uint64_t off : {std::uint64_t{0}, b1.offset + 1,
                                  UINT64_MAX - 3}) {
    auto bad = bytes;
    std::memcpy(bad.data() + e1, &off, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "offset " << off;
  }
  for (const std::uint64_t sz : {std::uint64_t{0}, b1.bytes - 1,
                                 b1.bytes + 1, UINT64_MAX}) {
    auto bad = bytes;
    std::memcpy(bad.data() + e1 + 8, &sz, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "bytes " << sz;
  }
  {
    // min/max swapped: ordering violation.
    auto bad = bytes;
    std::memcpy(bad.data() + e1 + 16, &b1.max_ingress, 8);
    std::memcpy(bad.data() + e1 + 24, &b1.min_ingress, 8);
    if (b1.min_ingress != b1.max_ingress) {
      EXPECT_THROW(drain_image(bad), trace_format_error);
    }
  }
  // Block 1's header: record count, block bytes, base ingress, and each
  // column size, all behind a valid index.
  const std::size_t h1 = static_cast<std::size_t>(b1.offset);
  for (const std::uint32_t n : {0u, UINT32_MAX, 65u}) {  // 65 > per_block
    auto bad = bytes;
    std::memcpy(bad.data() + h1, &n, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error) << "count " << n;
  }
  {
    auto bad = bytes;
    const std::uint32_t bb = static_cast<std::uint32_t>(b1.bytes) + 1;
    std::memcpy(bad.data() + h1 + 4, &bb, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error);
  }
  {
    auto bad = bytes;
    const std::int64_t base = b1.min_ingress + 1;
    std::memcpy(bad.data() + h1 + 8, &base, 8);
    EXPECT_THROW(drain_image(bad), trace_format_error);
  }
  for (std::size_t c = 0; c < kTraceV3ColumnCount; ++c) {
    auto bad = bytes;
    std::uint32_t cb = 0;
    std::memcpy(&cb, bad.data() + h1 + 24 + 4 * c, 4);
    // Shrinking a column truncates varints mid-stream or desynchronizes
    // the column sum; both must throw.
    const std::uint32_t smaller = cb > 0 ? cb - 1 : 1;
    std::memcpy(bad.data() + h1 + 24 + 4 * c, &smaller, 4);
    EXPECT_THROW(drain_image(bad), trace_format_error)
        << "column " << kTraceV3ColumnNames[c];
  }
}

TEST(trace_v3, random_single_byte_flips_never_crash) {
  // Fuzz-style sweep: every mutation either reads back fully (the flip hit
  // payload data that still decodes) or throws trace_format_error. Any
  // other outcome — crash, OOB read under ASan, different exception — is a
  // robustness bug. Deterministic seed so failures reproduce.
  auto r = small_run(true);
  sort_by_ingress(r.tr);
  const auto bytes = to_v3_bytes_blocked(r.tr, 256);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next_rand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 400; ++i) {
    auto bad = bytes;
    const std::size_t pos = next_rand() % bad.size();
    bad[pos] ^= static_cast<std::uint8_t>(1u << (next_rand() % 8));
    try {
      (void)drain_image(bad);
    } catch (const trace_format_error&) {
      // expected for structural damage
    }
  }
}

TEST(trace_v3, varint_truncation_mid_block_throws) {
  // Force a continuation bit onto the last byte of the last column so the
  // decoder would need bytes past the block end.
  auto r = small_run(false);
  sort_by_ingress(r.tr);
  auto bytes = to_v3_bytes(r.tr);
  bytes[bytes.size() - 1] |= 0x80;
  EXPECT_THROW(drain_image(bytes), trace_format_error);
  // Overlong varint: 10 continuation bytes exceed 64 payload bits.
  auto bad = to_v3_bytes(r.tr);
  trace_v3_cursor probe(bad.data(), bad.size());
  const auto b0 = probe.bounds_at(0);
  std::uint8_t* payload =
      bad.data() + b0.offset + kTraceV3BlockHeaderBytes;
  for (int i = 0; i < 10; ++i) payload[i] |= 0x80;
  EXPECT_THROW(drain_image(bad), trace_format_error);
}

}  // namespace
}  // namespace ups::net
