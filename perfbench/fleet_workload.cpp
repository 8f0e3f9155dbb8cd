// fleet_tcp: three net::SensorSession / SensorEndpoint pairs in one thread,
// each on its own loopback TcpTransport to one AggregatorServer. Every
// sensor publishes EventRecords derived from the campus truth records, in
// its own clock and for a seeded subset of the events, so the aggregator's
// dedup merges overlapping but unequal views. Sending is closed-loop: a
// sensor publishes the next block's batch only while its retransmit ring
// has room. No DSP runs.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "rfdump/net/endpoint.hpp"
#include "rfdump/net/messages.hpp"
#include "rfdump/net/session.hpp"
#include "rfdump/net/tcp.hpp"
#include "rfdump/util/rng.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace net = rfdump::net;

constexpr int kSensors = 3;
/// Share of the events each sensor hears (every event has >= 1 witness).
constexpr std::uint64_t kHearPercent = 70;
/// Truth records of one protocol closer than this are one cluster to the
/// aggregator's dedup (2x its default 64-sample slack): keep the first.
constexpr std::int64_t kMinSeparation = 128;
/// Give up draining the fleet after this long past the measured window.
constexpr double kDrainTimeoutS = 30.0;
/// Each sensor publishes one batch per quarter lap of campus ether.
constexpr std::int64_t kBatchSamples = kLapSamples / 4;
static_assert(kLapSamples % 4 == 0);
/// Window of the printed per-window rates.
constexpr double kWindowS = 1.0;

struct LapEvent {
  core::Protocol protocol;
  std::int64_t start;  // lap-relative, global timeline
  std::int64_t end;
  std::uint32_t bytes;
};

/// The per-lap event list and where each block's events begin.
struct EventPlan {
  std::vector<LapEvent> events;             // sorted by start
  std::array<std::size_t, 5> block_begin{};  // 4 blocks + end
};

EventPlan MakePlan(const Capture& cap) {
  EventPlan plan;
  std::vector<const rfdump::emu::TruthRecord*> recs;
  for (const auto& t : cap.truth) {
    if (!t.visible || t.protocol == core::Protocol::kMicrowave ||
        t.protocol == core::Protocol::kUnknown) {
      continue;
    }
    recs.push_back(&t);
  }
  std::stable_sort(recs.begin(), recs.end(), [](const auto* a, const auto* b) {
    return a->start_sample < b->start_sample;
  });
  std::map<core::Protocol, std::int64_t> last;
  for (const auto* t : recs) {
    auto it = last.find(t->protocol);
    if (it != last.end() && t->start_sample - it->second < kMinSeparation) {
      continue;
    }
    last[t->protocol] = t->start_sample;
    plan.events.push_back(
        {t->protocol, t->start_sample, t->end_sample,
         static_cast<std::uint32_t>((t->end_sample - t->start_sample) / 8)});
  }
  for (int j = 0; j <= 4; ++j) {
    const std::int64_t edge = j * kBatchSamples;
    plan.block_begin[static_cast<std::size_t>(j)] = static_cast<std::size_t>(
        std::lower_bound(plan.events.begin(), plan.events.end(), edge,
                         [](const LapEvent& e, std::int64_t v) {
                           return e.start < v;
                         }) -
        plan.events.begin());
  }
  return plan;
}

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Bit i set: sensor i hears event `idx` of lap `lap`. Stateless, so the
/// gate can recompute any event's expected witnesses.
std::uint32_t HeardBy(std::uint64_t seed, std::uint64_t lap, std::size_t idx) {
  std::uint32_t mask = 0;
  const std::uint64_t key = Mix(seed ^ Mix(lap * 0x100000001B3ull + idx));
  for (int i = 0; i < kSensors; ++i) {
    if (Mix(key + static_cast<std::uint64_t>(i)) % 100 < kHearPercent) {
      mask |= 1u << i;
    }
  }
  if (mask == 0) mask = 1u << (key % kSensors);
  return mask;
}

std::uint64_t Digest(std::uint64_t lap, std::size_t idx) {
  return (lap << 24) | idx;
}

std::int64_t LocalTime(std::int64_t tick, std::int64_t offset) {
  return tick * 8000 + offset;
}

/// Listener, aggregator server and three dialed sensors.
struct Fleet {
  net::TcpListener listener;
  std::unique_ptr<net::AggregatorServer> server;
  std::vector<std::unique_ptr<net::SensorSession>> sessions;
  std::vector<std::unique_ptr<net::SensorEndpoint>> endpoints;
  std::array<std::int64_t, kSensors> offset{};
  std::int64_t tick = 0;

  static std::uint16_t Id(int i) { return static_cast<std::uint16_t>(i + 1); }

  bool Ready() const {
    if (server->stats().bound < kSensors) return false;
    for (int i = 0; i < kSensors; ++i) {
      const auto& agg = server->aggregator();
      if (!agg.Known(Id(i)) || !agg.status(Id(i)).offset_known) return false;
      if (sessions[static_cast<std::size_t>(i)]->state() !=
          net::SensorSession::State::kConnected) {
        return false;
      }
    }
    return true;
  }
};

/// Set-up: listen, dial every sensor and pump until each connection is
/// bound to its sensor, its clock offset known and its session connected.
std::unique_ptr<Fleet> MakeFleet(std::uint64_t seed) {
  auto f = std::make_unique<Fleet>();
  if (!f->listener.Listen("127.0.0.1", 0)) {
    throw std::runtime_error("cannot listen on 127.0.0.1");
  }
  f->server = std::make_unique<net::AggregatorServer>(
      net::AggregatorServer::Config{});
  f->server->set_listener(&f->listener);
  rfdump::util::Xoshiro256 rng(seed * 0xD1B54A32D192ED03ull + 3);
  const std::uint16_t port = f->listener.port();
  for (int i = 0; i < kSensors; ++i) {
    f->offset[static_cast<std::size_t>(i)] =
        1'000'000 * (i + 1) +
        static_cast<std::int64_t>(rng.UniformInt(0, 999'999));
    net::SensorSession::Config cfg;
    cfg.sensor_id = Fleet::Id(i);
    f->sessions.push_back(std::make_unique<net::SensorSession>(
        cfg, seed + static_cast<std::uint64_t>(i)));
    f->endpoints.push_back(std::make_unique<net::SensorEndpoint>(
        *f->sessions.back(), [port](std::int64_t tick) {
          return net::TcpTransport::Dial("127.0.0.1", port, {},
                                         net::Syscalls::Real(), tick);
        }));
  }
  const double t0 = WallNow();
  while (!f->Ready()) {
    if (WallNow() - t0 > 10.0) throw std::runtime_error("fleet set-up timed out");
    ++f->tick;
    for (int i = 0; i < kSensors; ++i) {
      f->endpoints[static_cast<std::size_t>(i)]->Pump(
          f->tick, LocalTime(f->tick, f->offset[static_cast<std::size_t>(i)]));
    }
    f->server->Pump(f->tick);
  }
  return f;
}

struct Pending {
  std::uint32_t seq;
  double published;
  std::size_t events;
};

struct FleetRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double mem_peak_mb = 0.0;
  double steal_s = 0.0;  // host steal over all CPUs during the run
  std::uint64_t events_published = 0;
  std::uint64_t events_delivered = 0;
  std::uint64_t events_lost = 0;
  std::uint64_t batches_delivered = 0;
  std::uint64_t server_pumps = 0;
  std::vector<double> lags_ms;
  // Per one-second window of the sending phase: campus ether delivered per
  // wall second (printed, to show how much the host moved during the run).
  std::vector<double> window_rt;
  std::array<std::int64_t, kSensors> blocks_published{};
  bool drained = true;
  // Gate results.
  std::uint64_t expected_unique = 0;
  std::uint64_t expected_merges = 0;
  std::uint64_t fused_total = 0;
  std::uint64_t merges = 0;
  std::uint64_t fused_checked = 0;
  std::uint64_t fused_bad = 0;
  std::uint64_t corrupt = 0;
  std::int64_t align_min = 0, align_max = 0;
  // Layer counters.
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t send_rejects = 0;
  std::uint64_t ack_frames = 0;
};

/// The closed loop over one fleet. With `tracer`, PublishEvents,
/// SensorEndpoint::Pump and AggregatorServer::Pump are spans.
FleetRun Drive(Fleet& f, const EventPlan& plan, std::uint64_t seed,
               double seconds, SpanTracer* tracer, bool sample_rss) {
  FleetRun run;
  std::array<std::deque<Pending>, kSensors> pending;
  std::array<std::int64_t, kSensors> next_block{};
  std::array<std::map<std::uint32_t, std::int64_t>, kSensors> seq_block;
  const std::size_t ring = net::SensorSession::Config{}.retransmit_ring;

  const double rss0 = SettledRssMb();
  ResetPeakRss();
  CpuRotation rotation(kRotationSliceS);
  const double cpu0 = ProcessCpuNow();
  const double steal0 = HostStealSeconds();
  const double t0 = WallNow();
  double win_wall0 = t0;
  std::uint64_t win_batches0 = 0;
  const double block_s =
      static_cast<double>(kBatchSamples) / dsp::kSampleRateHz;
  for (;;) {
    ++f.tick;
    const double now0 = WallNow();
    rotation.Tick(now0);
    const bool sending = now0 - t0 < seconds;
    if (sending && now0 - win_wall0 >= kWindowS) {
      const double ether =
          static_cast<double>(run.batches_delivered - win_batches0) /
          kSensors * block_s;
      run.window_rt.push_back(ether / (now0 - win_wall0));
      win_wall0 = now0;
      win_batches0 = run.batches_delivered;
    }
    if (!sending && now0 - t0 > seconds + kDrainTimeoutS) {
      run.drained = false;
      break;
    }
    for (int i = 0; i < kSensors; ++i) {
      const auto si = static_cast<std::size_t>(i);
      net::SensorSession& session = *f.sessions[si];
      while (sending && session.unacked() < ring) {
        const std::int64_t g = next_block[si]++;
        const auto lap = static_cast<std::uint64_t>(g / 4);
        const auto j = static_cast<std::size_t>(g % 4);
        net::EventBatchMsg batch;
        batch.block_start =
            static_cast<std::int64_t>(lap) * kLapSamples + j * kBatchSamples +
            f.offset[si];
        const std::int64_t shift =
            static_cast<std::int64_t>(lap) * kLapSamples + f.offset[si];
        for (std::size_t k = plan.block_begin[j]; k < plan.block_begin[j + 1];
             ++k) {
          if ((HeardBy(seed, lap, k) & (1u << i)) == 0) continue;
          const LapEvent& e = plan.events[k];
          net::EventRecord r;
          r.protocol = e.protocol;
          r.start_sample = e.start + shift;
          r.end_sample = e.end + shift;
          r.payload_bytes = e.bytes;
          r.crc_ok = true;
          r.payload_digest = Digest(lap, k);
          batch.events.push_back(r);
        }
        std::uint32_t seq = 0;
        const double published = WallNow();
        {
          std::optional<SpanTracer::Scope> span;
          if (tracer != nullptr) span.emplace(*tracer, "net.publish", f.tick);
          seq = session.PublishEvents(batch);
        }
        pending[si].push_back({seq, published, batch.events.size()});
        seq_block[si][seq] = g;
        run.events_published += batch.events.size();
      }
      std::optional<SpanTracer::Scope> span;
      if (tracer != nullptr) span.emplace(*tracer, "net.sensor_pump", f.tick);
      f.endpoints[si]->Pump(f.tick, LocalTime(f.tick, f.offset[si]));
    }
    {
      std::optional<SpanTracer::Scope> span;
      if (tracer != nullptr) span.emplace(*tracer, "net.server_pump", f.tick);
      f.server->Pump(f.tick);
    }
    ++run.server_pumps;
    const double now = WallNow();
    bool idle = true;
    for (int i = 0; i < kSensors; ++i) {
      const auto si = static_cast<std::size_t>(i);
      const std::uint32_t cum = f.server->aggregator().status(Fleet::Id(i)).cum_seq;
      while (!pending[si].empty() && pending[si].front().seq <= cum) {
        run.lags_ms.push_back((now - pending[si].front().published) * 1e3);
        run.events_delivered += pending[si].front().events;
        ++run.batches_delivered;
        pending[si].pop_front();
      }
      if (!pending[si].empty()) idle = false;
    }
    if (!sending && idle) break;
  }
  run.wall_s = WallNow() - t0;
  run.cpu_s = ProcessCpuNow() - cpu0;
  run.steal_s = HostStealSeconds() - steal0;
  if (sample_rss) run.mem_peak_mb = std::max(0.0, PeakRssMb() - rss0);

  // Declared loss: batches inside the sessions' lost ranges.
  std::array<std::vector<std::int64_t>, kSensors> lost_blocks;
  for (int i = 0; i < kSensors; ++i) {
    const auto si = static_cast<std::size_t>(i);
    run.blocks_published[si] = next_block[si];
    for (const auto& r : f.sessions[si]->lost_ranges()) {
      for (std::uint64_t s = r.first; s <= r.last; ++s) {
        const auto it = seq_block[si].find(static_cast<std::uint32_t>(s));
        if (it != seq_block[si].end()) lost_blocks[si].push_back(it->second);
      }
    }
    std::sort(lost_blocks[si].begin(), lost_blocks[si].end());
    for (const std::int64_t g : lost_blocks[si]) {
      const auto lap = static_cast<std::uint64_t>(g / 4);
      const auto j = static_cast<std::size_t>(g % 4);
      for (std::size_t k = plan.block_begin[j]; k < plan.block_begin[j + 1];
           ++k) {
        if ((HeardBy(seed, lap, k) & (1u << i)) != 0) ++run.events_lost;
      }
    }
    const auto& st = f.sessions[si]->stats();
    run.frames_sent += st.frames_sent;
    run.retransmits += st.retransmits;
    run.send_rejects += f.endpoints[si]->stats().send_rejects;
    run.bytes_sent += f.endpoints[si]->transport_totals().bytes_sent;
    const auto& agg = f.server->aggregator();
    const auto& ps = agg.parse_stats(Fleet::Id(i));
    run.corrupt += ps.bad_crc + ps.bad_header_checksum +
                   agg.status(Fleet::Id(i)).corrupt_dropped;
  }
  run.ack_frames = f.server->stats().ack_frames_sent;

  // Expected fused view: every event some sensor delivered, witnessed by
  // exactly the sensors that heard it and delivered its block.
  const auto delivered_by = [&](std::uint64_t lap, std::size_t idx,
                                std::size_t j) {
    const std::int64_t g = static_cast<std::int64_t>(lap) * 4 +
                           static_cast<std::int64_t>(j);
    std::uint32_t mask = HeardBy(seed, lap, idx);
    for (int i = 0; i < kSensors; ++i) {
      const auto si = static_cast<std::size_t>(i);
      if (g >= run.blocks_published[si] ||
          std::binary_search(lost_blocks[si].begin(), lost_blocks[si].end(),
                             g)) {
        mask &= ~(1u << i);
      }
    }
    return mask;
  };
  std::uint64_t witnessed = 0;
  const std::int64_t max_block = *std::max_element(
      run.blocks_published.begin(), run.blocks_published.end());
  for (std::int64_t g = 0; g < max_block; ++g) {
    const auto lap = static_cast<std::uint64_t>(g / 4);
    const auto j = static_cast<std::size_t>(g % 4);
    for (std::size_t k = plan.block_begin[j]; k < plan.block_begin[j + 1];
         ++k) {
      const std::uint32_t mask = delivered_by(lap, k, j);
      const int n = std::popcount(mask);
      if (n == 0) continue;  // nobody delivered it
      ++run.expected_unique;
      witnessed += static_cast<std::uint64_t>(n);
    }
  }
  run.expected_merges = witnessed - run.expected_unique;
  const auto& agg = f.server->aggregator();
  run.fused_total = agg.fused().size() + agg.fused_pruned();
  run.merges = agg.merges();
  bool first = true;
  for (const auto& fe : agg.fused()) {
    ++run.fused_checked;
    const std::uint64_t lap = fe.payload_digest >> 24;
    const std::size_t k = fe.payload_digest & 0xFFFFFF;
    if (k >= plan.events.size()) {
      ++run.fused_bad;
      continue;
    }
    const LapEvent& e = plan.events[k];
    std::size_t j = 0;
    while (j < 3 && k >= plan.block_begin[j + 1]) ++j;
    std::uint32_t expected = 0;
    const std::uint32_t m = delivered_by(lap, k, j);
    for (int i = 0; i < kSensors; ++i) {
      if ((m & (1u << i)) != 0) expected |= 1u << Fleet::Id(i);
    }
    if (fe.protocol != e.protocol || fe.payload_bytes != e.bytes ||
        fe.sensor_mask != expected) {
      ++run.fused_bad;
    }
    const std::int64_t shift =
        fe.start - (static_cast<std::int64_t>(lap) * kLapSamples + e.start);
    run.align_min = first ? shift : std::min(run.align_min, shift);
    run.align_max = first ? shift : std::max(run.align_max, shift);
    first = false;
  }
  return run;
}

/// Set-up: listener plus dials until every sensor is bound. Tear-down is
/// not timed.
double MeasureSetup(std::uint64_t seed) {
  return MeasureSetupS([seed] {
    const double t0 = WallNow();
    auto fleet = MakeFleet(seed);
    return WallNow() - t0;
  });
}

void Report(const FleetRun& run, Result& res) {
  res.Gate(run.drained, "every published batch acked after the window");
  res.Gate(run.corrupt == 0,
           "no corrupt frame reached the aggregator (" +
               std::to_string(run.corrupt) + " rejected)");
  res.Gate(run.fused_total == run.expected_unique &&
               run.merges == run.expected_merges,
           "fused == union of published - declared loss (" +
               std::to_string(run.fused_total) + " fused vs " +
               std::to_string(run.expected_unique) + " expected; " +
               std::to_string(run.merges) + " merges vs " +
               std::to_string(run.expected_merges) + ")");
  res.Gate(run.fused_bad == 0 && run.align_min == run.align_max,
           "every retained fused event carries its published protocol, size "
           "and exact witness set, on one aligned timeline (" +
               std::to_string(run.fused_checked - run.fused_bad) + "/" +
               std::to_string(run.fused_checked) + ", shift " +
               std::to_string(run.align_min) + ".." +
               std::to_string(run.align_max) + ")");
}

}  // namespace

Result RunFleet(const RunOptions& opt) {
  Result res;
  // Set-up first: every run measures it from the same process state.
  const double setup_s = MeasureSetup(opt.seed);
  const Capture cap = MakeCampusCapture(opt.seed, /*render=*/false);
  const EventPlan plan = MakePlan(cap);
  std::printf("workload fleet_tcp seed %llu: %d sensors on loopback TCP, %zu "
              "events per %.3f s lap, %llu%% heard per sensor\n",
              static_cast<unsigned long long>(opt.seed), kSensors,
              plan.events.size(),
              static_cast<double>(kLapSamples) / dsp::kSampleRateHz,
              static_cast<unsigned long long>(kHearPercent));

  FleetRun run;
  {
    auto fleet = MakeFleet(opt.seed);
    run = Drive(*fleet, plan, opt.seed, opt.seconds, nullptr, true);
  }
  Report(run, res);
  res.attempted = run.events_published;
  res.failed = run.events_lost;

  const double ether_s =
      static_cast<double>(run.batches_delivered) / kSensors *
      static_cast<double>(kBatchSamples) / dsp::kSampleRateHz;
  // Whole-run figures, drain included.
  const double x_rt = ether_s / run.wall_s;
  const double cpu_per_rt = run.cpu_s / ether_s;
  const double lag50 = Percentile(run.lags_ms, 0.50);
  const double lag99 = Percentile(run.lags_ms, 0.99);
  const double events_per_s = run.events_delivered / run.wall_s;
  const double loss_rate =
      run.events_published
          ? static_cast<double>(run.events_lost) / run.events_published
          : 0.0;
  std::printf("untraced: %llu events published, %llu delivered in %.3f s "
              "wall (%.3f s of campus ether per sensor), drain included\n",
              static_cast<unsigned long long>(run.events_published),
              static_cast<unsigned long long>(run.events_delivered),
              run.wall_s, ether_s);
  std::printf("  fleet_events_per_s  %12.1f events/s\n", events_per_s);
  std::printf("  x_realtime          %12.4f x    (%zu one-second windows: min "
              "%.4f, median %.4f, max %.4f)\n",
              x_rt, run.window_rt.size(), Percentile(run.window_rt, 0.0),
              Median(run.window_rt), Percentile(run.window_rt, 1.0));
  std::printf("  cpu_per_rt          %12.6f s/s\n", cpu_per_rt);
  std::printf("  host steal          %12.4f      of all CPU time (%.2f s; a "
              "busy host slows every figure)\n",
              run.steal_s /
                  (std::max(std::thread::hardware_concurrency(), 1u) *
                   run.wall_s),
              run.steal_s);
  std::printf("  fuse_lag_p50_ms     %12.4f ms   (%zu samples)\n", lag50,
              run.lags_ms.size());
  std::printf("  fuse_lag_p99_ms     %12.4f ms   (%zu samples, %zu beyond)\n",
              lag99, run.lags_ms.size(),
              run.lags_ms.size() -
                  static_cast<std::size_t>(0.99 * run.lags_ms.size()));
  std::printf("  fleet_loss_rate     %12.6f      (%llu of %llu events)\n",
              loss_rate, static_cast<unsigned long long>(run.events_lost),
              static_cast<unsigned long long>(run.events_published));
  std::printf("  setup_s             %12.6f s    (fastest of %d rounds "
              "per CPU)\n",
              setup_s, kSetupRoundsPerCpu);
  std::printf("  mem_peak_mb         %12.2f MiB\n", run.mem_peak_mb);

  res.E2e("x_realtime", x_rt, "x");
  res.E2e("cpu_per_rt", cpu_per_rt, "s/s");
  res.E2e("lag_p50_ms", lag50, "ms");
  res.E2e("lag_p99_ms", lag99, "ms");
  res.E2e("setup_s", setup_s, "s");
  res.E2e("mem_peak_mb", run.mem_peak_mb, "MiB");
  if (!opt.trace) return res;

  // Traced run: a fresh fleet, the same window, spans on every net call.
  SpanTracer tracer;
  FleetRun traced;
  {
    auto fleet = MakeFleet(opt.seed);
    traced = Drive(*fleet, plan, opt.seed, opt.seconds, &tracer, false);
  }
  res.Gate(traced.fused_total == traced.expected_unique &&
               traced.fused_bad == 0 && traced.corrupt == 0 && traced.drained,
           "traced fleet run passes the same fused-view gates");
  if (!opt.trace_out.empty()) {
    if (tracer.WriteChrome(opt.trace_out)) {
      std::printf("wrote %s (%llu spans not kept)\n", opt.trace_out.c_str(),
                  static_cast<unsigned long long>(tracer.raw_dropped()));
    } else {
      std::printf("cannot write %s\n", opt.trace_out.c_str());
    }
  }
  const auto pub = tracer.Of("net.publish");
  const auto spump = tracer.Of("net.sensor_pump");
  const auto apump = tracer.Of("net.server_pump");
  const double pubd = static_cast<double>(traced.events_published);
  const double deld = static_cast<double>(traced.events_delivered);
  std::printf("traced fleet run: %llu events published, %llu delivered, "
              "%llu server pumps\n",
              static_cast<unsigned long long>(traced.events_published),
              static_cast<unsigned long long>(traced.events_delivered),
              static_cast<unsigned long long>(traced.server_pumps));
  std::printf("  %-22s %12s %12s %10s\n", "layer", "cpu ns/unit",
              "wall ns/unit", "spans");
  PrintLayerRow("net.publish", pub, pubd, "published event");
  PrintLayerRow("net.sensor_pump", spump, pubd, "published event");
  PrintLayerRow("net.server_pump", apump, deld, "delivered event");
  const double frames = static_cast<double>(traced.frames_sent);
  std::printf("  %llu bytes sent for %.0f events; %llu data frames, %llu "
              "retransmits, %llu send rejects; %llu merges of %.0f "
              "delivered; %llu pumps for %llu acks\n",
              static_cast<unsigned long long>(traced.bytes_sent), pubd,
              static_cast<unsigned long long>(traced.frames_sent),
              static_cast<unsigned long long>(traced.retransmits),
              static_cast<unsigned long long>(traced.send_rejects),
              static_cast<unsigned long long>(traced.merges), deld,
              static_cast<unsigned long long>(traced.server_pumps),
              static_cast<unsigned long long>(traced.ack_frames));

  StreamingLayersAbsent(res);
  res.Layer("hardware_threads", std::thread::hardware_concurrency(), "count");
  res.Layer("net.publish_ns_per_event", pub.wall_s * 1e9 / pubd, "ns/event");
  res.Layer("net.sensor_pump_ns_per_event", spump.wall_s * 1e9 / pubd,
            "ns/event");
  res.Layer("net.server_pump_ns_per_event", apump.wall_s * 1e9 / deld,
            "ns/event");
  res.Layer("net.bytes_per_event", traced.bytes_sent / pubd, "B/event");
  res.Layer("net.retransmits_per_1k",
            frames > 0 ? traced.retransmits * 1e3 / frames : 0, "count/1k");
  res.Layer("net.send_rejects_per_1k",
            frames > 0 ? traced.send_rejects * 1e3 / frames : 0, "count/1k");
  res.Layer("net.merge_ratio", deld > 0 ? traced.merges / deld : 0, "ratio");
  res.Layer("net.pumps_per_ack",
            traced.ack_frames
                ? static_cast<double>(traced.server_pumps) / traced.ack_frames
                : 0,
            "ratio");
  res.Layer("fleet_events_per_s", events_per_s, "events/s");
  res.Layer("fleet_loss_rate", loss_rate, "fraction");
  res.Layer("lag.samples", static_cast<double>(run.lags_ms.size()), "count");
  const double untraced_per_event = run.wall_s / run.events_published;
  const double traced_per_event = traced.wall_s / pubd;
  res.Layer("trace.overhead_share", traced_per_event / untraced_per_event - 1.0,
            "ratio");
  std::printf("  trace.overhead_share %.4f (traced %.1f ns/event vs untraced "
              "%.1f ns/event)\n",
              traced_per_event / untraced_per_event - 1.0,
              traced_per_event * 1e9, untraced_per_event * 1e9);
  return res;
}

}  // namespace perfbench
