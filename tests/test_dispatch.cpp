// Tests for the unified dispatch-backend API (exp/dispatch): spec parsing,
// the replay_result wire codec, the frame splitter's damage handling, the
// per-slot job status primitive, and — the core invariant — byte-identical
// results from the serial, thread, and multi-process backends on the same
// job_plan, including runs where a worker process is killed mid-range or
// writes a truncated garbage frame.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/replay.h"
#include "core/replay_codec.h"
#include "exp/dispatch/backend.h"
#include "exp/dispatch/wire.h"
#include "exp/replay_experiment.h"
#include "gadget_runner.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "replay_test_util.h"
#include "topo/gadgets.h"

namespace ups::exp::dispatch {
namespace {

using ups::testing::expect_identical_results;

// --- backend_spec ---------------------------------------------------------

TEST(dispatch_spec, parses_every_backend_form) {
  EXPECT_EQ(backend_spec::parse("serial").kind, backend_kind::serial);
  EXPECT_EQ(backend_spec::parse("thread").kind, backend_kind::thread);
  EXPECT_EQ(backend_spec::parse("thread").workers, 0u);
  EXPECT_EQ(backend_spec::parse("thread:8").workers, 8u);
  EXPECT_EQ(backend_spec::parse("process").kind, backend_kind::process);
  EXPECT_EQ(backend_spec::parse("process:4").workers, 4u);
}

TEST(dispatch_spec, rejects_malformed_specs) {
  EXPECT_THROW((void)backend_spec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)backend_spec::parse("fleet"), std::invalid_argument);
  EXPECT_THROW((void)backend_spec::parse("serial:2"), std::invalid_argument);
  EXPECT_THROW((void)backend_spec::parse("process:"), std::invalid_argument);
  EXPECT_THROW((void)backend_spec::parse("thread:x"), std::invalid_argument);
}

// --- replay_result codec --------------------------------------------------

core::replay_result sample_result() {
  core::replay_result r;
  r.total = 5;
  r.overdue = 2;
  r.overdue_beyond_T = 1;
  r.dropped = 3;  // replay-under-loss counter must cross the wire too
  r.threshold_T = 12'000;
  r.peak_pool_packets = 7;
  r.peak_event_slots = 19;
  r.events = 1'000'003;  // multi-byte varint
  // Includes a negative lateness (replay beat the original) and non-
  // monotonic original_out deltas, so both zigzag columns are exercised.
  r.outcomes = {
      {1, 1'000, 900, 0, 40},
      {2, 5'000, 5'500, 120, 0},
      {7, 4'200, 4'200, 64, 64},
      {90, 1'000'000, 999'000, 0, 12},
      {91, 1'000'001, 2'000'000, 8, 8},
  };
  return r;
}

TEST(dispatch_codec, round_trips_every_field_exactly) {
  const core::replay_result r = sample_result();
  std::vector<std::uint8_t> buf;
  core::encode_replay_result(r, buf);
  const std::uint8_t* p = buf.data();
  const core::replay_result d =
      core::decode_replay_result(p, buf.data() + buf.size());
  EXPECT_EQ(p, buf.data() + buf.size());  // consumed exactly its bytes
  expect_identical_results(r, d);
  EXPECT_EQ(r.peak_pool_packets, d.peak_pool_packets);
  EXPECT_EQ(r.peak_event_slots, d.peak_event_slots);
  EXPECT_EQ(r.events, d.events);
}

TEST(dispatch_codec, decode_leaves_trailing_bytes_for_the_caller) {
  std::vector<std::uint8_t> buf;
  core::encode_replay_result(sample_result(), buf);
  const std::size_t result_bytes = buf.size();
  buf.push_back(0xAB);
  buf.push_back(0xCD);
  const std::uint8_t* p = buf.data();
  (void)core::decode_replay_result(p, buf.data() + buf.size());
  EXPECT_EQ(p, buf.data() + result_bytes);
}

TEST(dispatch_codec, truncation_at_any_point_throws_typed_error) {
  std::vector<std::uint8_t> buf;
  core::encode_replay_result(sample_result(), buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::uint8_t* p = buf.data();
    EXPECT_THROW((void)core::decode_replay_result(p, buf.data() + cut),
                 core::codec_error)
        << "cut at " << cut << " of " << buf.size();
  }
}

TEST(dispatch_codec, unknown_version_byte_throws) {
  std::vector<std::uint8_t> buf;
  core::encode_replay_result(sample_result(), buf);
  buf[0] = 0xEE;
  const std::uint8_t* p = buf.data();
  EXPECT_THROW((void)core::decode_replay_result(p, buf.data() + buf.size()),
               core::codec_error);
}

// --- frame splitter -------------------------------------------------------

std::vector<std::uint8_t> make_frame_bytes(
    frame_type type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kFrameHeaderBytes + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (unsigned shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(len >> shift));  // LE u32
  }
  bytes.push_back(static_cast<std::uint8_t>(type));
  for (const std::uint8_t b : payload) bytes.push_back(b);
  return bytes;
}

TEST(dispatch_wire, splitter_reassembles_frames_fed_byte_by_byte) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  auto bytes = make_frame_bytes(frame_type::result, payload);
  const auto second = make_frame_bytes(frame_type::shutdown, {});
  bytes.insert(bytes.end(), second.begin(), second.end());

  frame_splitter sp;
  frame f;
  std::size_t popped = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    sp.feed(&bytes[i], 1);
    while (sp.pop(f)) {
      if (popped == 0) {
        EXPECT_EQ(f.type, frame_type::result);
        EXPECT_EQ(f.payload, payload);
      } else {
        EXPECT_EQ(f.type, frame_type::shutdown);
        EXPECT_TRUE(f.payload.empty());
      }
      ++popped;
    }
  }
  EXPECT_EQ(popped, 2u);
  EXPECT_FALSE(sp.mid_frame());
}

TEST(dispatch_wire, splitter_flags_partial_frame_at_eof) {
  const auto bytes = make_frame_bytes(frame_type::result, {1, 2, 3, 4});
  frame_splitter sp;
  sp.feed(bytes.data(), bytes.size() - 2);  // truncated mid-payload
  frame f;
  EXPECT_FALSE(sp.pop(f));
  EXPECT_TRUE(sp.mid_frame());  // a peer EOF here is a truncated result
}

TEST(dispatch_wire, garbage_length_field_fails_fast_not_hangs) {
  // Header claims a 3 GB payload — must throw on the header alone, not
  // wait for bytes that will never come.
  std::uint8_t header[kFrameHeaderBytes];
  const std::uint32_t len = kMaxFramePayload + 17;
  std::memcpy(header, &len, 4);
  header[4] = static_cast<std::uint8_t>(frame_type::result);
  frame_splitter sp;
  sp.feed(header, sizeof header);
  frame f;
  EXPECT_THROW((void)sp.pop(f), wire_error);
}

TEST(dispatch_wire, unknown_type_tag_throws) {
  std::uint8_t header[kFrameHeaderBytes] = {};
  header[4] = 0x7F;
  frame_splitter sp;
  sp.feed(header, sizeof header);
  frame f;
  EXPECT_THROW((void)sp.pop(f), wire_error);
}

// --- run_jobs: the per-slot status primitive ------------------------------

TEST(dispatch_jobs, failing_job_marks_its_slot_and_the_rest_still_run) {
  std::vector<int> hits(64, 0);
  const auto out = run_jobs(hits.size(), 4, [&](std::size_t i) {
    ++hits[i];
    if (i % 13 == 5) throw std::runtime_error("slot " + std::to_string(i));
  });
  ASSERT_EQ(out.status.size(), hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << i;  // no job was abandoned
    if (i % 13 == 5) {
      EXPECT_EQ(out.status[i], job_status::failed);
      EXPECT_EQ(out.errors[i], "slot " + std::to_string(i));
    } else {
      EXPECT_EQ(out.status[i], job_status::ok);
      EXPECT_TRUE(out.errors[i].empty());
    }
  }
}

// --- cross-backend identity on a memory plan ------------------------------

job_plan small_plan() {
  const std::vector<core::replay_mode> modes = {
      core::replay_mode::lstf,
      core::replay_mode::lstf_preemptive,
      core::replay_mode::edf,
      core::replay_mode::priority_output_time,
  };
  const struct {
    topo_kind topo;
    double util;
    std::uint64_t seed;
  } specs[] = {
      {topo_kind::i2_default, 0.7, 1},
      {topo_kind::i2_default, 0.5, 2},
      {topo_kind::fattree, 0.7, 1},
  };
  std::vector<shard_task> tasks;
  for (const auto& s : specs) {
    shard_task t;
    t.sc.topo = s.topo;
    t.sc.utilization = s.util;
    t.sc.sched = core::sched_kind::random;
    t.sc.seed = s.seed;
    t.sc.packet_budget = 1'200;
    t.modes = modes;
    tasks.push_back(std::move(t));
  }
  shard_options opt;
  opt.keep_outcomes = true;
  return job_plan::from_tasks(std::move(tasks), opt);
}

backend_spec process_spec(std::size_t workers) {
  backend_spec s;
  s.kind = backend_kind::process;
  s.workers = workers;
  return s;
}

void expect_identical_reports(const run_report& a, const run_report& b) {
  ASSERT_EQ(a.status.size(), b.status.size());
  for (std::size_t j = 0; j < a.status.size(); ++j) {
    EXPECT_EQ(a.status[j], b.status[j]) << "job " << j;
  }
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const shard_result& x = a.results[i];
    const shard_result& y = b.results[i];
    EXPECT_EQ(x.trace_packets, y.trace_packets);
    EXPECT_EQ(x.threshold_T, y.threshold_T);
    EXPECT_EQ(x.original_peak_pool_packets, y.original_peak_pool_packets);
    EXPECT_EQ(x.original_flows_completed, y.original_flows_completed);
    ASSERT_EQ(x.replays.size(), y.replays.size());
    for (std::size_t m = 0; m < x.replays.size(); ++m) {
      EXPECT_EQ(x.replays[m].mode, y.replays[m].mode);
      expect_identical_results(x.replays[m].result, y.replays[m].result);
    }
  }
  ASSERT_EQ(a.disk_replays.size(), b.disk_replays.size());
  for (std::size_t m = 0; m < a.disk_replays.size(); ++m) {
    EXPECT_EQ(a.disk_replays[m].mode, b.disk_replays[m].mode);
    expect_identical_results(a.disk_replays[m].result,
                             b.disk_replays[m].result);
  }
}

TEST(dispatch_process, n_processes_byte_identical_to_serial) {
  const job_plan plan = small_plan();
  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);
  ASSERT_TRUE(ref.all_ok());

  backend_spec threaded;
  threaded.kind = backend_kind::thread;
  threaded.workers = 4;
  expect_identical_reports(ref, run(plan, threaded));

  for (const std::size_t n : {1u, 2u, 4u}) {
    const run_report prep = run(plan, process_spec(n));
    EXPECT_TRUE(prep.all_ok()) << "process:" << n;
    EXPECT_TRUE(prep.worker_failures.empty()) << "process:" << n;
    expect_identical_reports(ref, prep);
  }
}

TEST(dispatch_process, survives_worker_sigkill_via_reassignment) {
  const job_plan plan = small_plan();
  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);

  // Two workers, the first dies after computing its first job but before
  // reporting it: the range must be reassigned to the surviving worker and
  // the merge must still be byte-identical.
  backend_spec spec = process_spec(2);
  spec.kill_worker_after = 1;
  const run_report rep = run(plan, spec);
  ASSERT_TRUE(rep.all_ok());
  ASSERT_FALSE(rep.worker_failures.empty());
  EXPECT_EQ(rep.worker_failures[0].kind,
            worker_failure_kind::killed_by_signal);
  EXPECT_EQ(rep.worker_failures[0].detail, SIGKILL);
  EXPECT_FALSE(rep.worker_failures[0].reassigned_jobs.empty());
  expect_identical_reports(ref, rep);
}

TEST(dispatch_process, survives_worker_sigkill_via_respawn) {
  const job_plan plan = small_plan();
  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);

  // A single worker dies mid-run: no live worker remains, so the
  // coordinator must fork a replacement (which carries no injection — the
  // spawn index moved past 0) and finish the plan.
  backend_spec spec = process_spec(1);
  spec.kill_worker_after = 2;
  const run_report rep = run(plan, spec);
  ASSERT_TRUE(rep.all_ok());
  ASSERT_FALSE(rep.worker_failures.empty());
  EXPECT_EQ(rep.worker_failures[0].kind,
            worker_failure_kind::killed_by_signal);
  EXPECT_TRUE(rep.worker_failures[0].respawned);
  expect_identical_reports(ref, rep);
}

TEST(dispatch_process, hung_worker_is_timed_out_and_range_reassigned) {
  const job_plan plan = small_plan();
  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);

  // The first worker hangs forever after computing its first job — alive as
  // a process but silent on its socket, so no waitpid/EOF signal will ever
  // fire. The assign->result watchdog must notice the silence, classify it
  // timed_out, SIGKILL the worker, reassign its in-flight range, and still
  // merge byte-identically.
  backend_spec spec = process_spec(2);
  spec.hang_worker_after = 1;
  spec.worker_timeout_ms = 1000;  // dialed down so the suite stays fast
  const run_report rep = run(plan, spec);
  ASSERT_TRUE(rep.all_ok());
  ASSERT_FALSE(rep.worker_failures.empty());
  EXPECT_EQ(rep.worker_failures[0].kind, worker_failure_kind::timed_out);
  EXPECT_FALSE(rep.worker_failures[0].reassigned_jobs.empty());
  expect_identical_reports(ref, rep);
}

TEST(dispatch_process, truncated_result_frame_is_classified_not_hung) {
  const job_plan plan = small_plan();
  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);

  // The first worker writes a garbage frame (header promising more bytes
  // than it sends) and exits. The coordinator must classify it as a typed
  // protocol error, rerun the lost range, and still merge identically.
  backend_spec spec = process_spec(2);
  spec.garble_result_at = 1;
  const run_report rep = run(plan, spec);
  ASSERT_TRUE(rep.all_ok());
  ASSERT_FALSE(rep.worker_failures.empty());
  EXPECT_EQ(rep.worker_failures[0].kind,
            worker_failure_kind::protocol_error);
  expect_identical_reports(ref, rep);
}

// --- disk plans -----------------------------------------------------------

struct temp_trace {
  std::string path;
  explicit temp_trace(std::string p) : path(std::move(p)) {}
  ~temp_trace() { std::remove(path.c_str()); }
};

TEST(dispatch_process, disk_plan_identity_on_gadget_trace) {
  // A theory gadget recorded *with* hop times, so the omniscient replayer
  // participates in the mode sweep too.
  const auto g = ups::testing::run_gadget_original(topo::fig5_case(1));
  auto trace = g.trace;
  net::sort_by_ingress(trace);
  temp_trace file("test_dispatch_gadget.v1.trace");
  net::save_trace(file.path, trace);

  disk_shard_task task;
  task.trace_path = file.path;
  task.topology = g.topology;
  task.threshold_T = 0;
  task.modes = {core::replay_mode::lstf, core::replay_mode::edf,
                core::replay_mode::omniscient};
  shard_options opt;
  opt.keep_outcomes = true;
  const job_plan plan = job_plan::from_disk(std::move(task), opt);

  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);
  ASSERT_TRUE(ref.all_ok());
  const run_report prep = run(plan, process_spec(2));
  ASSERT_TRUE(prep.all_ok());
  expect_identical_reports(ref, prep);
}

TEST(dispatch_process, disk_plan_identity_on_workload_trace) {
  exp::scenario sc;
  sc.topo = topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = 3;
  sc.packet_budget = 1'200;
  sc.workload_kind =
      traffic::parse_workload("closed-loop", sc.workload_spec);
  auto orig = run_original(sc);
  net::sort_by_ingress(orig.trace);
  temp_trace file("test_dispatch_workload.v3.trace");
  net::save_trace_v3(file.path, orig.trace);

  disk_shard_task task;
  task.trace_path = file.path;
  task.topology = orig.topology;
  task.threshold_T = orig.threshold_T;
  task.modes = {core::replay_mode::lstf, core::replay_mode::lstf_pheap,
                core::replay_mode::edf,
                core::replay_mode::priority_output_time};
  shard_options opt;
  opt.keep_outcomes = true;
  const job_plan plan = job_plan::from_disk(std::move(task), opt);

  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);
  ASSERT_TRUE(ref.all_ok());
  expect_identical_reports(ref, run(plan, process_spec(2)));

  // And with fault injection on top: kill a worker mid-range, the merged
  // disk results must not move.
  backend_spec spec = process_spec(2);
  spec.kill_worker_after = 1;
  const run_report faulted = run(plan, spec);
  ASSERT_TRUE(faulted.all_ok());
  EXPECT_FALSE(faulted.worker_failures.empty());
  expect_identical_reports(ref, faulted);
}

TEST(dispatch_process, per_slot_failure_spares_the_rest_of_the_plan) {
  // A trace recorded *without* hop times: the omniscient replayer throws
  // for its job, which must mark only that slot failed — on the serial
  // backend and identically on the process backend (the worker ships the
  // error as a typed job_error frame, not a death).
  exp::scenario sc;
  sc.topo = topo_kind::i2_default;
  sc.utilization = 0.6;
  sc.sched = core::sched_kind::random;
  sc.seed = 4;
  sc.packet_budget = 1'200;
  auto orig = run_original(sc);
  net::sort_by_ingress(orig.trace);
  temp_trace file("test_dispatch_nohops.v3.trace");
  net::save_trace_v3(file.path, orig.trace);

  disk_shard_task task;
  task.trace_path = file.path;
  task.topology = orig.topology;
  task.threshold_T = orig.threshold_T;
  task.modes = {core::replay_mode::lstf, core::replay_mode::omniscient,
                core::replay_mode::edf};
  shard_options opt;
  opt.keep_outcomes = true;
  const job_plan plan = job_plan::from_disk(std::move(task), opt);

  backend_spec serial;
  serial.kind = backend_kind::serial;
  const run_report ref = run(plan, serial);
  ASSERT_EQ(ref.status.size(), 3u);
  EXPECT_EQ(ref.status[0], job_status::ok);
  EXPECT_EQ(ref.status[1], job_status::failed);
  EXPECT_EQ(ref.status[2], job_status::ok);
  EXPECT_FALSE(ref.errors[1].empty());
  EXPECT_FALSE(ref.all_ok());
  EXPECT_EQ(ref.jobs_failed(), 1u);
  EXPECT_THROW(ref.throw_if_failed(), std::runtime_error);

  const run_report prep = run(plan, process_spec(2));
  ASSERT_EQ(prep.status.size(), 3u);
  EXPECT_EQ(prep.status[0], job_status::ok);
  EXPECT_EQ(prep.status[1], job_status::failed);
  EXPECT_EQ(prep.status[2], job_status::ok);
  EXPECT_EQ(prep.errors[1], ref.errors[1]);  // same message across the wire
  EXPECT_TRUE(prep.worker_failures.empty());  // an error is not a death
  expect_identical_results(ref.disk_replays[0].result,
                           prep.disk_replays[0].result);
  expect_identical_results(ref.disk_replays[2].result,
                           prep.disk_replays[2].result);
}

TEST(dispatch_plan, rejects_a_plan_with_both_axes_populated) {
  job_plan plan = small_plan();
  disk_shard_task d;
  d.trace_path = "nowhere";
  plan.disk = d;
  backend_spec serial;
  serial.kind = backend_kind::serial;
  EXPECT_THROW((void)run(plan, serial), std::invalid_argument);
}

}  // namespace
}  // namespace ups::exp::dispatch
