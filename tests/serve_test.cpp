// Tests for gpufi-serve: wire protocol framing, the strict key=value codec,
// the single-flight shared caches, and loopback daemon sessions pinning the
// served-equals-offline byte-identity contract, golden-trace sharing across
// concurrent requests, admission control, priority order, deadlines,
// SIGTERM-style drain, and one count per lifecycle fact.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/protocol.hpp"
#include "obs/metrics.hpp"
#include "rtlfi/microbench.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "syndrome/syndrome.hpp"
#include "vocab/vocab.hpp"
#include "mutants.hpp"

using namespace gpufi;
using namespace gpufi::serve;

namespace {

/// Polls `pred` (5 ms period) until true or `timeout`; returns the verdict.
bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(10'000)) {
  const auto end = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < end) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// A small, fast RTL campaign spec (the loopback workhorse).
CampaignSpec small_rtl_spec() {
  CampaignSpec spec;
  spec.kind = CampaignKind::Rtl;
  spec.op = "FFMA";
  spec.module = "fp32";
  spec.range = "M";
  spec.faults = 30;
  spec.seed = 7;
  spec.jobs = 1;
  spec.accel = "full";
  return spec;
}

/// Submits `spec` on a raw connection without reading the reply (lets tests
/// observe server state while the job is queued/running). Caller closes fd.
int submit_raw(const std::string& socket_path, const CampaignSpec& spec) {
  const int fd = connect_socket(socket_path);
  EXPECT_GE(fd, 0) << "connect(" << socket_path << ")";
  EXPECT_TRUE(write_frame(fd, {FrameType::Submit, encode_spec(spec)}));
  return fd;
}

/// Reads frames until the final Result/Error frame (skipping Progress).
Frame read_final(int fd) {
  for (;;) {
    Frame f;
    const ReadStatus st = read_frame(fd, f);
    EXPECT_EQ(st, ReadStatus::Ok) << "stream ended before a final frame";
    if (st != ReadStatus::Ok) return {FrameType::Error, "transport error"};
    if (f.type == FrameType::Progress) continue;
    return f;
  }
}

}  // namespace

// ----------------------------------------------------------------- framing

TEST(Protocol, FrameRoundTripsThroughEncodeDecode) {
  const Frame in{FrameType::Submit, "kind=rtl\nop=FFMA\n"};
  const std::string wire = encode_frame(in);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + in.payload.size());
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::Ok);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Protocol, EmptyPayloadFrameIsValid) {
  const std::string wire = encode_frame({FrameType::Status, ""});
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::Ok);
  EXPECT_EQ(out.type, FrameType::Status);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Protocol, TruncatedFramesNeedMoreBytes) {
  const std::string wire = encode_frame({FrameType::Result, "payload body"});
  Frame out;
  std::size_t consumed = 0;
  // Every strict prefix — header fragments and partial payloads alike — must
  // ask for more bytes, never decode garbage.
  for (std::size_t len = 0; len < wire.size(); ++len)
    EXPECT_EQ(decode_frame(std::string_view(wire).substr(0, len), out,
                           consumed),
              DecodeStatus::NeedMore)
        << "prefix length " << len;
}

TEST(Protocol, OversizedDeclaredPayloadIsRejected) {
  // Declared length 100 with a 16-byte cap: protocol violation, not NeedMore.
  std::string wire = encode_frame({FrameType::Error, std::string(100, 'x')});
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed, /*max_payload=*/16),
            DecodeStatus::TooLarge);
}

TEST(Protocol, EncodeRefusesOverlongPayload) {
  Frame f{FrameType::Result, std::string(kMaxFramePayload + 1, 'x')};
  EXPECT_THROW(encode_frame(f), std::length_error);
}

TEST(Protocol, UnknownFrameTypeByteIsRejected) {
  std::string wire = encode_frame({FrameType::Submit, "abc"});
  wire[4] = 0;  // type byte below the enum range
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::BadType);
  wire[4] = 42;  // above the enum range
  EXPECT_EQ(decode_frame(wire, out, consumed), DecodeStatus::BadType);
}

TEST(Protocol, SocketFramingRoundTripsAndSignalsEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const Frame sent{FrameType::Progress, "done=5\ntotal=10\n"};
  ASSERT_TRUE(write_frame(fds[0], sent));
  Frame got;
  ASSERT_EQ(read_frame(fds[1], got), ReadStatus::Ok);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.payload, sent.payload);
  ::close(fds[0]);  // clean close -> Eof on the reader
  EXPECT_EQ(read_frame(fds[1], got), ReadStatus::Eof);
  ::close(fds[1]);
}

TEST(Protocol, WriteToHungUpPeerFailsInsteadOfKillingTheProcess) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // MSG_NOSIGNAL: EPIPE as a return value, no SIGPIPE.
  EXPECT_FALSE(write_frame(fds[0], {FrameType::Result, "late result"}));
  ::close(fds[0]);
}

TEST(Protocol, ReadRejectsOversizedAndBadTypeFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(write_frame(fds[0], {FrameType::Error, std::string(64, 'y')}));
  Frame got;
  EXPECT_EQ(read_frame(fds[1], got, /*max_payload=*/8), ReadStatus::TooLarge);
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string wire = encode_frame({FrameType::Submit, "x"});
  wire[4] = 99;
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  EXPECT_EQ(read_frame(fds[1], got), ReadStatus::BadType);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ------------------------------------------------------------ spec payloads

TEST(Protocol, SpecRoundTripsEveryField) {
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.op = "FADD";
  spec.module = "sched";
  spec.range = "L";
  spec.tile = "zero";
  spec.app = "hotspot";
  spec.model = "syndrome";
  spec.net = "yolo";
  spec.fault_model = "burst";
  spec.fault_duration = 64;
  spec.burst_period = 5;
  spec.faults = 123;
  spec.injections = 45;
  spec.seed = 999;
  spec.jobs = 3;
  spec.accel = "checkpoint";
  spec.db_path = "some/dir/syn.db";
  spec.models_dir = "some/dir";
  spec.priority = -2;
  spec.deadline_ms = 1500;
  spec.progress_interval = 25;
  spec.plan = "target_err=0.05,min_trials=16";
  spec.workers = 4;
  std::string error;
  const auto back = decode_spec(encode_spec(spec), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, spec);
}

TEST(Protocol, SpecDecodeIsStrict) {
  std::string error;
  // Unknown key.
  EXPECT_FALSE(decode_spec("kind=rtl\nbogus=1\n", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
  // Malformed number.
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults=12x\n", &error).has_value());
  // Line without '='.
  EXPECT_FALSE(decode_spec("kind=rtl\nnonsense\n", &error).has_value());
  // Invalid vocabulary caught by validation.
  EXPECT_FALSE(decode_spec("kind=rtl\nop=NOSUCH\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=sw\napp=doom\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=cnn\nnet=alexnet\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\naccel=warp9\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=marsupial\n", &error).has_value());
  // Unknown fault-model token rejected for every kind.
  EXPECT_FALSE(decode_spec("kind=rtl\nfault_model=gamma\n", &error)
                   .has_value());
  EXPECT_NE(error.find("fault model"), std::string::npos);
  EXPECT_FALSE(decode_spec("kind=sw\nfault_model=stuckX\n", &error)
                   .has_value());
  // Plan vocabulary: parsed strictly, and only valid for kind=sw.
  EXPECT_FALSE(decode_spec("kind=sw\nplan=target_err=2\n", &error)
                   .has_value());
  EXPECT_FALSE(decode_spec("kind=sw\nplan=bogus\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\nplan=target_err=0.1\n", &error)
                   .has_value());
  EXPECT_NE(error.find("kind=sw"), std::string::npos);
  EXPECT_TRUE(decode_spec("kind=sw\nplan=target_err=0.1\n", &error)
                  .has_value()) << error;
  // Numbers are digits only: no sign, no whitespace (each of these used to
  // decode to a value that does not re-encode to the same bytes; the
  // negative one wrapped to 18446744073709551611).
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults= -5\n", &error).has_value());
  EXPECT_NE(error.find("faults"), std::string::npos);
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults=+5\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults= 7\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\nseed=\t3\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults=-5\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\njobs=4294967296\n", &error)
                   .has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\npriority=+1\n", &error).has_value());
  // Only canonical spellings: no leading zero, no "-0".
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults=05\n", &error).has_value());
  EXPECT_FALSE(decode_spec("kind=rtl\npriority=-0\n", &error).has_value());
  EXPECT_EQ(decode_spec("kind=rtl\nfaults=0\n", &error)->faults, 0u);
  // Every line ends in a newline.
  EXPECT_FALSE(decode_spec("kind=rtl\nfaults=5", &error).has_value());
  EXPECT_EQ(decode_spec("kind=rtl\npriority=-3\n", &error)->priority, -3);
}

TEST(Protocol, EncodeRefusesNewlinesInValues) {
  CampaignSpec spec;
  spec.op = "FFMA\nfaults=1";
  EXPECT_THROW(encode_spec(spec), std::invalid_argument);
}

TEST(Protocol, SpecMutantsAreRejectedOrRoundTrip) {
  // Seeded mutants of an encoded spec: each one is rejected, or decodes to
  // a spec whose own encoding decodes back to it. Keys may come in any
  // order and absent ones keep their defaults, so a byte-exact re-encode of
  // the mutant is not required.
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.model = "sticky";
  spec.fault_model = "burst";
  spec.fault_duration = 64;
  spec.injections = 45;
  spec.seed = 999;
  spec.priority = -2;
  spec.deadline_ms = 1500;
  spec.plan = "target_err=0.05,min_trials=16";
  spec.workers = 4;
  fuzz::for_each_mutant(
      encode_spec(spec), 3000, "0123456789 \n=-,.kfpsx",
      [](const std::string& m, int i) {
        const auto back = decode_spec(m);
        if (back) {
          const auto again = decode_spec(encode_spec(*back));
          EXPECT_TRUE(again && *again == *back)
              << "mutant " << i << " decoded but does not round-trip";
        }
        return back.has_value();
      });
}

TEST(Protocol, FrameMutantsAreRejectedOrReencodeExactly) {
  // Seeded mutants of two back-to-back frames: each one returns a non-Ok
  // status, or decodes to a frame whose encoding is exactly the bytes the
  // decoder consumed.
  CampaignSpec spec;
  const std::string wire =
      encode_frame({FrameType::Submit, encode_spec(spec)}) +
      encode_frame({FrameType::Status, ""});
  fuzz::for_each_mutant(
      wire, 3000, std::string_view("\x00\x01\x04\x0b\x11\x12\xff=\n", 9),
      [](const std::string& m, int i) {
        Frame f;
        std::size_t consumed = 0;
        if (decode_frame(m, f, consumed, 4096) != DecodeStatus::Ok)
          return false;
        EXPECT_EQ(encode_frame(f), m.substr(0, consumed))
            << "mutant " << i << " decoded but does not re-encode";
        return true;
      });
}

TEST(Vocab, ParseProgressIntervalIsStrict) {
  // The shared CLI/wire validator: positive decimal integers only. A zero
  // interval, any non-digit and overflow-range inputs are usage errors.
  EXPECT_EQ(vocab::parse_progress_interval("1"), std::size_t{1});
  EXPECT_EQ(vocab::parse_progress_interval("2500"), std::size_t{2500});
  EXPECT_FALSE(vocab::parse_progress_interval("0").has_value());
  EXPECT_FALSE(vocab::parse_progress_interval("").has_value());
  EXPECT_FALSE(vocab::parse_progress_interval("-5").has_value());
  EXPECT_FALSE(vocab::parse_progress_interval("12x").has_value());
  EXPECT_FALSE(vocab::parse_progress_interval("1e3").has_value());
  // 19 digits exceeds the accepted width.
  EXPECT_FALSE(
      vocab::parse_progress_interval("9999999999999999999").has_value());
}

TEST(Protocol, ProgressRoundTrips) {
  exec::Progress p;
  p.done = 7;
  p.total = 1000;
  p.per_second = 123.456789012345;
  p.eta_seconds = 8.0500000000000007;
  const auto back = decode_progress(encode_progress(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->done, p.done);
  EXPECT_EQ(back->total, p.total);
  EXPECT_DOUBLE_EQ(back->per_second, p.per_second);
  EXPECT_DOUBLE_EQ(back->eta_seconds, p.eta_seconds);
}

TEST(Protocol, StatsRoundTrip) {
  ServerStats s;
  s.accepted = 10;
  s.completed = 6;
  s.failed = 1;
  s.cancelled = 2;
  s.rejected = 3;
  s.active = 1;
  s.queued = 4;
  s.queue_capacity = 64;
  s.workers = 2;
  s.planner_early_stops = 7;
  s.db_cache = {5, 1};
  s.golden_cache = {9, 2};
  const auto back = decode_stats(encode_stats(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->accepted, s.accepted);
  EXPECT_EQ(back->completed, s.completed);
  EXPECT_EQ(back->failed, s.failed);
  EXPECT_EQ(back->cancelled, s.cancelled);
  EXPECT_EQ(back->rejected, s.rejected);
  EXPECT_EQ(back->active, s.active);
  EXPECT_EQ(back->queued, s.queued);
  EXPECT_EQ(back->queue_capacity, s.queue_capacity);
  EXPECT_EQ(back->workers, s.workers);
  EXPECT_EQ(back->planner_early_stops, s.planner_early_stops);
  EXPECT_EQ(back->db_cache.hits, s.db_cache.hits);
  EXPECT_EQ(back->golden_cache.misses, s.golden_cache.misses);
  EXPECT_FALSE(decode_stats("accepted=1\nnope=2\n").has_value());
}

TEST(Protocol, StatsDecodeIsStrict) {
  EXPECT_FALSE(decode_stats("completed= -1\n").has_value());
  EXPECT_FALSE(decode_stats("completed=-1\n").has_value());
  EXPECT_FALSE(decode_stats("completed=+1\n").has_value());
  EXPECT_FALSE(decode_stats("completed\n").has_value());
  EXPECT_EQ(decode_stats("completed=7\n")->completed, 7u);
}

// ----------------------------------------------------------------- cache

TEST(SharedCache, ComputesOnceAndSharesAcrossRacingThreads) {
  obs::Registry metrics;
  SharedCache<int> cache(metrics, "test");
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(6);
  for (std::size_t t = 0; t < results.size(); ++t)
    threads.emplace_back([&, t] {
      results[t] = cache.get_or_compute("k", [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
      });
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);  // single flight
  for (const auto& r : results) {
    ASSERT_TRUE(r);
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(r.get(), results[0].get());  // literally the same object
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
}

TEST(SharedCache, DistinctKeysComputeSeparately) {
  obs::Registry metrics;
  SharedCache<std::string> cache(metrics, "test");
  const auto a = cache.get_or_compute("a", [] { return std::string("A"); });
  const auto b = cache.get_or_compute("b", [] { return std::string("B"); });
  EXPECT_EQ(*a, "A");
  EXPECT_EQ(*b, "B");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SharedCache, FailedComputeIsNotPoisoned) {
  obs::Registry metrics;
  SharedCache<int> cache(metrics, "test");
  EXPECT_THROW(cache.get_or_compute(
                   "k", []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The failure was erased: the next requester retries and succeeds.
  const auto r = cache.get_or_compute("k", [] { return 7; });
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------------- loopback

TEST(Serve, ServedResultIsByteIdenticalToOffline) {
  const auto spec = small_rtl_spec();
  const std::string offline = run_spec_offline(spec);
  ASSERT_FALSE(offline.empty());
  ASSERT_NE(offline.find("--- syndrome-db ---"), std::string::npos);

  ServerConfig cfg;
  cfg.socket_path = "serve_bytes.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);  // THE determinism contract
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ResultCarriesVersionedRecordsAndAttribution) {
  // The rtl Result payload is the one lossless result codec under a short
  // header: kind= and fault_model=, then fabric::encode_rtl_partial (every
  // record with its fault site, temporal fields and diffs, then the
  // attribution table), then the distilled syndrome-database bytes.
  const auto spec = small_rtl_spec();
  const auto w = rtlfi::make_microbenchmark(*parse_opcode(spec.op),
                                            *parse_range(spec.range),
                                            spec.seed);
  const auto cc = campaign_config_for_spec(spec, *parse_module(spec.module),
                                           {}, nullptr);
  const auto r = rtlfi::run_campaign(w, cc);
  ASSERT_FALSE(r.attribution.empty());
  syndrome::Database db;
  db.add_campaign(syndrome::Key{*parse_module(spec.module),
                                *parse_opcode(spec.op),
                                *parse_range(spec.range),
                                *parse_fault_model(spec.fault_model)},
                  r);
  db.finalize();
  std::ostringstream db_bytes;
  db.save(db_bytes);
  EXPECT_EQ(run_spec_offline(spec),
            "kind=rtl\nfault_model=transient\n" +
                fabric::encode_rtl_partial(r) + "--- syndrome-db ---\n" +
                db_bytes.str());
}

TEST(Serve, SwResultsCarryTheResultCodec) {
  // sw: kind=sw, then fabric::encode_sw_partial. Planned sw: kind=sw-planned,
  // the same codec of the campaign counters, then the planner's keys.
  const auto app = vocab::make_app("mxm");
  swfi::Config cfg;
  cfg.model = swfi::FaultModel::SingleBitFlip;
  cfg.n_injections = 24;
  cfg.seed = 4;
  cfg.jobs = 1;
  const auto r = swfi::run_sw_campaign(app.app, cfg);
  EXPECT_EQ(serialize_sw_result(r), "kind=sw\n" + fabric::encode_sw_partial(r));

  const auto pr = swfi::run_planned_campaign(
      app.app, cfg, *vocab::parse_plan("target_err=0.25,min_trials=8"));
  const std::string head =
      "kind=sw-planned\n" + fabric::encode_sw_partial(pr.result);
  const auto planned = serialize_planned_sw_result(pr);
  EXPECT_EQ(planned.substr(0, head.size()), head);
  EXPECT_EQ(planned.substr(head.size(), 11), "adaptive=1\n");
}

TEST(Serve, ServedReportIsByteIdenticalToOffline) {
  // The Report frame: a ReportRequest carrying an rtl spec answers with the
  // attribution-report JSON, byte-identical to the offline rendering of the
  // same spec (`gpufi report --json`).
  const auto spec = small_rtl_spec();
  const std::string offline = run_report_offline(spec);
  ASSERT_FALSE(offline.empty());
  EXPECT_NE(offline.find("\"instructions\":["), std::string::npos);

  ServerConfig cfg;
  cfg.socket_path = "serve_report.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  std::string error;
  const auto served = query_report(cfg.socket_path, spec, {}, &error);
  ASSERT_TRUE(served.has_value()) << error;
  EXPECT_EQ(*served, offline);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ReportRequestRejectsNonRtlSpecs) {
  // Attribution joins RTL fault cycles to the golden liveness timeline;
  // software/CNN campaigns have no such timeline, so the server answers a
  // non-rtl ReportRequest with an Error frame instead of a Report.
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "bitflip";
  spec.injections = 5;

  ServerConfig cfg;
  cfg.socket_path = "serve_report_bad.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  std::string error;
  const auto served = query_report(cfg.socket_path, spec, {}, &error);
  EXPECT_FALSE(served.has_value());
  EXPECT_NE(error.find("rtl"), std::string::npos);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ServedStuckAtCampaignMatchesOffline) {
  // The determinism contract holds along the fault-model axis too: a
  // stuck-at-1 campaign served over the socket must be byte-identical to
  // the offline run, and its serialized result carries the model token.
  auto spec = small_rtl_spec();
  spec.fault_model = "stuck1";
  spec.accel = "checkpoint";  // permanent faults never early-exit anyway
  const std::string offline = run_spec_offline(spec);
  ASSERT_FALSE(offline.empty());
  ASSERT_NE(offline.find("fault_model=stuck1"), std::string::npos);

  ServerConfig cfg;
  cfg.socket_path = "serve_stuck.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  server.shutdown(/*drain=*/true);
}

TEST(Serve, ServedSwCampaignMatchesOffline) {
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "bitflip";
  spec.injections = 15;
  spec.seed = 4;
  spec.jobs = 1;
  const std::string offline = run_spec_offline(spec);

  ServerConfig cfg;
  cfg.socket_path = "serve_sw.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  server.shutdown(true);
}

TEST(Serve, ServedPlannedSwCampaignMatchesOffline) {
  // A planned campaign through the daemon: the sw-planned payload is
  // byte-identical to the offline dispatch of the same spec, and the Stats
  // frame reports the early-stopped strata the run produced.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  CampaignSpec spec;
  spec.kind = CampaignKind::Sw;
  spec.app = "mxm";
  spec.model = "bitflip";
  spec.injections = 120;
  spec.seed = 4;
  spec.jobs = 1;
  spec.plan = "target_err=0.25,min_trials=8";
  const std::string offline = run_spec_offline(spec);
  EXPECT_NE(offline.find("kind=sw-planned\n"), std::string::npos);
  EXPECT_NE(offline.find("adaptive=1\n"), std::string::npos);
  EXPECT_NE(offline.find("stratum="), std::string::npos);

  obs::Registry::global().reset();  // count only the served run below
  ServerConfig cfg;
  cfg.socket_path = "serve_sw_planned.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result, offline);
  std::string error;
  const auto stats = query_stats(cfg.socket_path, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_GT(stats->planner_early_stops, 0u);
  server.shutdown(true);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(Serve, MetricsScrapeReportsCountersAndQueueState) {
  // A MetricsRequest frame answers with the Prometheus text exposition:
  // after one served campaign the job counters have advanced, the engine
  // trial counter matches the submitted fault count, and the queue gauges
  // show an idle daemon.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  ServerConfig cfg;
  cfg.socket_path = "serve_metrics.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto spec = small_rtl_spec();
  const auto outcome = submit_campaign(cfg.socket_path, spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // The completed counter is bumped after the Result frame is written;
  // give the executor a beat to retire the job.
  ASSERT_TRUE(wait_until([&] { return server.stats().completed >= 1; }));

  std::string error;
  const auto text = query_metrics(cfg.socket_path, &error);
  ASSERT_TRUE(text.has_value()) << error;
  EXPECT_NE(text->find("# TYPE"), std::string::npos);
  EXPECT_NE(text->find("gpufi_serve_jobs_accepted_total 1\n"),
            std::string::npos);
  EXPECT_NE(text->find("gpufi_serve_jobs_completed_total 1\n"),
            std::string::npos);
  // One trial per fault ran through the engine.
  EXPECT_NE(text->find("gpufi_exec_trials_total " +
                       std::to_string(spec.faults) + "\n"),
            std::string::npos);
  // Gauges show a drained, idle daemon.
  EXPECT_NE(text->find("gpufi_serve_queue_depth 0\n"), std::string::npos);
  EXPECT_NE(text->find("gpufi_serve_active_jobs 0\n"), std::string::npos);
  // The queue-wait histogram observed the one admitted job.
  EXPECT_NE(text->find("gpufi_serve_queue_wait_seconds_count 1\n"),
            std::string::npos);
  server.shutdown(true);
  obs::Registry::global().reset();
}

TEST(Serve, ConcurrentRequestsShareOneCachedGolden) {
  // Four identical campaigns in flight at once must trigger exactly one
  // prepare_golden (single-flight cache) and still each get the full,
  // byte-identical result.
  const auto spec = small_rtl_spec();
  const std::string offline = run_spec_offline(spec);

  ServerConfig cfg;
  cfg.socket_path = "serve_shared.sock";
  cfg.workers = 4;
  Server server(cfg);
  server.start();

  std::vector<std::thread> clients;
  std::vector<SubmitOutcome> outcomes(4);
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    clients.emplace_back([&, i] {
      outcomes[i] = submit_campaign(cfg.socket_path, spec);
    });
  for (auto& c : clients) c.join();

  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.result, offline);
  }
  // The worker increments `completed` just after sending the Result frame,
  // so a fast client can observe its bytes first — poll briefly.
  ASSERT_TRUE(wait_until([&] { return server.stats().completed == 4; }));
  const auto stats = server.stats();
  EXPECT_EQ(stats.golden_cache.misses, 1u);  // one compute...
  EXPECT_EQ(stats.golden_cache.hits, 3u);    // ...shared by the other three
  server.shutdown(true);
}

TEST(Serve, InvalidSpecGetsAnErrorFrame) {
  ServerConfig cfg;
  cfg.socket_path = "serve_invalid.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const int fd = connect_socket(cfg.socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_frame(fd, {FrameType::Submit, "kind=rtl\nop=NOSUCH\n"}));
  const Frame reply = read_final(fd);
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_NE(reply.payload.find("NOSUCH"), std::string::npos);
  ::close(fd);
  server.shutdown(true);
}

TEST(Serve, FullQueueRejectsWithBackpressure) {
  ServerConfig cfg;
  cfg.socket_path = "serve_reject.sock";
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  Server server(cfg);
  server.start();

  // A deliberately slow campaign occupies the single worker...
  auto slow = small_rtl_spec();
  slow.faults = 800;
  slow.accel = "none";
  const int running = submit_raw(cfg.socket_path, slow);
  ASSERT_TRUE(wait_until([&] { return server.stats().active == 1; }));
  // ...a second fills the only queue slot...
  const int queued = submit_raw(cfg.socket_path, small_rtl_spec());
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 1; }));
  // ...and the third bounces immediately with a queue-full Error.
  const int bounced = submit_raw(cfg.socket_path, small_rtl_spec());
  const Frame reply = read_final(bounced);
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_NE(reply.payload.find("queue full"), std::string::npos);
  EXPECT_GE(server.stats().rejected, 1u);
  ::close(bounced);

  // The admitted jobs still complete normally.
  EXPECT_EQ(read_final(running).type, FrameType::Result);
  EXPECT_EQ(read_final(queued).type, FrameType::Result);
  ::close(running);
  ::close(queued);
  server.shutdown(true);
}

TEST(Serve, ExpiredDeadlineCancelsTheCampaign) {
  ServerConfig cfg;
  cfg.socket_path = "serve_deadline.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  auto spec = small_rtl_spec();
  spec.faults = 2000;
  spec.accel = "none";
  spec.deadline_ms = 1;  // expires long before 2000 unaccelerated trials
  const int fd = submit_raw(cfg.socket_path, spec);
  const Frame reply = read_final(fd);
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_NE(reply.payload.find("deadline"), std::string::npos);
  ::close(fd);
  ASSERT_TRUE(wait_until([&] { return server.stats().cancelled == 1; }));
  server.shutdown(true);
}

TEST(Serve, GracefulDrainFinishesAdmittedJobs) {
  // The SIGTERM path: shutdown(drain=true) must complete every admitted
  // campaign (and deliver its bytes) before tearing down.
  ServerConfig cfg;
  cfg.socket_path = "serve_drain.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const auto spec = small_rtl_spec();
  const int a = submit_raw(cfg.socket_path, spec);
  const int b = submit_raw(cfg.socket_path, spec);
  ASSERT_TRUE(wait_until([&] { return server.stats().accepted == 2; }));

  server.shutdown(/*drain=*/true);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().completed, 2u);
  EXPECT_EQ(server.stats().cancelled, 0u);
  // Both clients still receive their full results.
  EXPECT_EQ(read_final(a).type, FrameType::Result);
  EXPECT_EQ(read_final(b).type, FrameType::Result);
  ::close(a);
  ::close(b);
  // The socket file is gone: a later bind can reuse the path.
  EXPECT_LT(connect_socket(cfg.socket_path), 0);
}

TEST(Serve, ForcedShutdownCancelsActiveAndBouncesQueued) {
  ServerConfig cfg;
  cfg.socket_path = "serve_force.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  auto slow = small_rtl_spec();
  slow.faults = 800;
  slow.accel = "none";
  const int running = submit_raw(cfg.socket_path, slow);
  ASSERT_TRUE(wait_until([&] { return server.stats().active == 1; }));
  const int queued = submit_raw(cfg.socket_path, small_rtl_spec());
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 1; }));

  server.shutdown(/*drain=*/false);
  // The queued job is bounced with an explicit shutdown Error.
  const Frame bounced = read_final(queued);
  EXPECT_EQ(bounced.type, FrameType::Error);
  EXPECT_NE(bounced.payload.find("shutting down"), std::string::npos);
  // The active job was cancelled cooperatively (no Result frame).
  const Frame aborted = read_final(running);
  EXPECT_EQ(aborted.type, FrameType::Error);
  ::close(running);
  ::close(queued);
  EXPECT_EQ(server.stats().completed, 0u);
  EXPECT_EQ(server.stats().cancelled, 2u);
}

TEST(Serve, StatsAndExpositionCountTheSameForcedShutdown) {
  // Each lifecycle outcome is one increment that both the Stats frame and
  // the metrics exposition read — per daemon, and with obs disabled too.
  obs::set_enabled(false);
  ServerConfig cfg;
  cfg.socket_path = "serve_counts.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  auto slow = small_rtl_spec();
  slow.faults = 800;
  slow.accel = "none";
  const int running = submit_raw(cfg.socket_path, slow);
  ASSERT_TRUE(wait_until([&] { return server.stats().active == 1; }));
  const int queued = submit_raw(cfg.socket_path, small_rtl_spec());
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 1; }));
  server.shutdown(/*drain=*/false);
  ::close(running);
  ::close(queued);

  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.completed, 0u);
  const std::string text =
      server.coordinator()->metrics().render_prometheus();
  const auto line = [&](const char* name, std::size_t v) {
    return text.find(std::string(name) + " " + std::to_string(v) + "\n") !=
           std::string::npos;
  };
  EXPECT_TRUE(line("gpufi_serve_jobs_accepted_total", stats.accepted)) << text;
  EXPECT_TRUE(line("gpufi_serve_jobs_cancelled_total", stats.cancelled))
      << text;
  EXPECT_TRUE(line("gpufi_serve_jobs_completed_total", stats.completed))
      << text;
  EXPECT_TRUE(line("gpufi_serve_jobs_failed_total", stats.failed)) << text;
  EXPECT_TRUE(line("gpufi_serve_jobs_rejected_total", stats.rejected))
      << text;
  obs::set_enabled(true);
}

TEST(Serve, HigherPriorityJobOvertakesQueuedLowerPriority) {
  // One executor, busy: a low-priority job queues first, a high-priority
  // one after it — the high-priority job must complete first.
  ServerConfig cfg;
  cfg.socket_path = "serve_priority.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  auto slow = small_rtl_spec();
  slow.faults = 400;
  slow.accel = "none";
  const int busy = submit_raw(cfg.socket_path, slow);
  ASSERT_TRUE(wait_until([&] { return server.stats().active == 1; }));
  auto low = slow;  // slow too, so the completion order is unambiguous
  low.priority = 5;
  const int low_fd = submit_raw(cfg.socket_path, low);
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 1; }));
  auto high = small_rtl_spec();
  high.priority = -1;
  const int high_fd = submit_raw(cfg.socket_path, high);
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 2; }));

  std::atomic<int> order{0};
  int low_rank = -1, high_rank = -1;
  std::thread low_reader([&] {
    EXPECT_EQ(read_final(low_fd).type, FrameType::Result);
    low_rank = order++;
  });
  std::thread high_reader([&] {
    EXPECT_EQ(read_final(high_fd).type, FrameType::Result);
    high_rank = order++;
  });
  low_reader.join();
  high_reader.join();
  EXPECT_EQ(read_final(busy).type, FrameType::Result);
  EXPECT_LT(high_rank, low_rank);
  ::close(busy);
  ::close(low_fd);
  ::close(high_fd);
  server.shutdown(true);
}

TEST(Serve, StatusQueryReportsConfigurationAndCounters) {
  ServerConfig cfg;
  cfg.socket_path = "serve_status.sock";
  cfg.workers = 3;
  cfg.queue_capacity = 17;
  Server server(cfg);
  server.start();
  const auto outcome = submit_campaign(cfg.socket_path, small_rtl_spec());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(wait_until([&] { return server.stats().completed == 1; }));
  std::string error;
  const auto stats = query_stats(cfg.socket_path, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->workers, 3u);
  EXPECT_EQ(stats->queue_capacity, 17u);
  EXPECT_EQ(stats->accepted, 1u);
  EXPECT_EQ(stats->completed, 1u);
  server.shutdown(true);
  // After teardown the daemon is unreachable.
  EXPECT_FALSE(query_stats(cfg.socket_path, &error).has_value());
}

TEST(Serve, MalformedFirstFrameGetsAnErrorReply) {
  ServerConfig cfg;
  cfg.socket_path = "serve_garbage.sock";
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  const int fd = connect_socket(cfg.socket_path);
  ASSERT_GE(fd, 0);
  // A Progress frame is not a valid request.
  ASSERT_TRUE(write_frame(fd, {FrameType::Progress, "done=1\ntotal=2\n"}));
  const Frame reply = read_final(fd);
  EXPECT_EQ(reply.type, FrameType::Error);
  ::close(fd);
  server.shutdown(true);
}
