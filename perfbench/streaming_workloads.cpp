// Streaming workloads (campus, campus_par): a closed-loop feeder
// pushes fixed-size segments of generated captures into
// core::StreamingMonitor back to back, replaying them in laps at advancing
// stream positions, and a ResultSink timestamps every
// OnEvent. The traced run re-drives the monitor's block schedule through
// RFDumpPipeline::Detect and the bundles' analysis_plan/run_unit hooks with
// the benchmark's own spans around each call.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "rfdump/core/executor.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/testing/differential.hpp"
#include "rfdump/testing/oracle.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;
namespace testing = rfdump::testing;
namespace traffic = rfdump::traffic;

constexpr std::array<core::Protocol, 5> kEnabled = {
    core::Protocol::kWifi80211b, core::Protocol::kBluetooth,
    core::Protocol::kZigbee, core::Protocol::kMicrowave,
    core::Protocol::kBleAdv};
/// Bundles with a demodulator: the ones whose truth records a decode can
/// match, and the ones the analysis rows are reported for.
constexpr std::array<core::Protocol, 4> kDemodulated = {
    core::Protocol::kWifi80211b, core::Protocol::kBluetooth,
    core::Protocol::kZigbee, core::Protocol::kBleAdv};

/// Width of the campus_par monitor: caller + analyzer + two executor
/// workers fit on a 4-thread host.
constexpr int kParallelThreads = 3;
constexpr unsigned kProvisionedHardwareThreads = 4;

/// Seed of the campus traffic layout (see MakeCampusCapture).
constexpr std::uint64_t kCampusLayoutSeed = 20090901;

/// Blocks of the traced re-drive, fixed so counts repeat; at least the five
/// blocks that own lap 0.
constexpr int kTracedBlocks = 8;

const char* CliName(core::Protocol p) {
  const auto* b = core::ProtocolRegistry::Instance().Find(p);
  return b != nullptr ? b->cli_name : "?";
}

core::StreamingMonitor::Config MonitorConfig(int threads,
                                             core::ResultSink* sink) {
  core::StreamingMonitor::Config mc;
  for (const auto p : kEnabled) mc.pipeline.EnableBundle(p);
  mc.block_samples = static_cast<std::size_t>(kBlockSamples);
  mc.overlap_samples = static_cast<std::size_t>(kOverlapSamples);
  mc.threads = threads;
  mc.sink = sink;
  return mc;
}

/// Decode lines of ExactFingerprint (detector tags dropped: they are not
/// results and a block-cut detector legitimately tags differently).
std::vector<std::string> DecodeFingerprint(const core::MonitorReport& r) {
  std::vector<std::string> out;
  for (auto& line : testing::ExactFingerprint(r)) {
    if (line.rfind("det ", 0) != 0) out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Size of the multiset symmetric difference of two sorted line lists.
std::size_t SymmetricDiff(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  std::vector<std::string> d;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(d));
  return d.size();
}

/// The capture playing at stream position `pos`.
const Capture& VariantAt(const std::vector<Capture>& caps, std::int64_t pos) {
  return caps[static_cast<std::size_t>(pos / kLapSamples) % caps.size()];
}

// ------------------------------------------------------------ untraced run

struct LightEvent {
  core::Protocol protocol;
  std::int64_t start;
  std::int64_t end;
  bool crc_ok;
};

/// Timestamps every decode and keeps lap 0's results whole for the
/// fingerprint gates. Called from one thread at a time (ResultSink
/// contract); `push_wall` entries are written before the Push that
/// delivers their segment, so the emission that reads them happens after.
class LagSink final : public core::ResultSink {
 public:
  explicit LagSink(const std::vector<double>& push_wall)
      : push_wall_(push_wall) {}

  void OnWifiFrame(const rfdump::phy80211::DecodedFrame& f) override {
    if (f.start_sample < kLapSamples) lap0.wifi_frames.push_back(f);
  }
  void OnBtPacket(const rfdump::phybt::DecodedBtPacket& p) override {
    if (p.start_sample < kLapSamples) lap0.bt_packets.push_back(p);
  }
  void OnZbFrame(const rfdump::phyzigbee::DecodedZbFrame& z) override {
    if (z.start_sample < kLapSamples) lap0.zb_frames.push_back(z);
  }
  void OnEvent(const core::ProtocolEvent& e) override {
    const double now = WallNow();
    const auto seg = static_cast<std::size_t>(
        std::max<std::int64_t>(e.end_sample - 1, 0) / kSegmentSamples);
    if (seg < push_wall_.size() && push_wall_[seg] > 0.0) {
      lags_ms.push_back((now - push_wall_[seg]) * 1e3);
    }
    events.push_back({e.protocol, e.start_sample, e.end_sample, e.crc_ok});
    if (e.start_sample < kLapSamples) lap0.events.push_back(e);
  }

  std::vector<double> lags_ms;
  std::vector<LightEvent> events;
  core::MonitorReport lap0;

 private:
  const std::vector<double>& push_wall_;
};

struct StreamRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t pushed = 0;
  // Wall seconds of every full lap (first push of a lap to first push of
  // the next).
  std::vector<double> lap_wall;
  double mem_peak_mb = 0.0;
  double steal_s = 0.0;  // host steal over all CPUs during the run
  core::HealthSummary summary;
  std::vector<double> lags_ms;
  std::vector<LightEvent> events;
  std::vector<std::string> lap0_fp;
};

/// Closed-loop replay: segments back to back, laps at advancing positions,
/// until `seconds` have elapsed or `max_samples` were pushed; then Flush().
StreamRun RunMonitor(const std::vector<Capture>& caps, int threads,
                     double seconds,
                     std::int64_t max_samples, bool sample_rss) {
  // Upper bound on segments: 64x real time for the whole run.
  const auto max_segments = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(max_samples) / kSegmentSamples,
                       seconds * 64.0 * dsp::kSampleRateHz / kSegmentSamples) +
      1);
  std::vector<double> push_wall(max_segments, 0.0);
  LagSink sink(push_wall);
  StreamRun run;
  const double rss0 = SettledRssMb();
  auto monitor =
      std::make_unique<core::StreamingMonitor>(MonitorConfig(threads, &sink));

  ResetPeakRss();
  dsp::SampleVec segment(kSegmentSamples);
  // After the monitor's own threads exist, so only the feeder moves.
  CpuRotation rotation(kRotationSliceS);
  const double cpu0 = ProcessCpuNow();
  const double steal0 = HostStealSeconds();
  const double t0 = WallNow();
  std::size_t seg = 0;
  double lap_wall0 = t0;
  while (seg < max_segments && run.pushed < max_samples) {
    const std::int64_t at = run.pushed % kLapSamples;
    if (at == 0 && run.pushed > 0) {
      const double w = WallNow();
      run.lap_wall.push_back(w - lap_wall0);
      lap_wall0 = w;
    }
    VariantAt(caps, run.pushed).Samples(at, kSegmentSamples, segment.data());
    push_wall[seg++] = WallNow();
    monitor->Push(segment);
    run.pushed += kSegmentSamples;
    const double now = WallNow();
    if (now - t0 >= seconds) break;
    rotation.Tick(now);
  }
  monitor->Flush();
  run.wall_s = WallNow() - t0;
  run.cpu_s = ProcessCpuNow() - cpu0;
  run.steal_s = HostStealSeconds() - steal0;
  if (sample_rss) run.mem_peak_mb = std::max(0.0, PeakRssMb() - rss0);
  run.summary = monitor->summary();
  monitor.reset();
  run.lags_ms = std::move(sink.lags_ms);
  run.events = std::move(sink.events);
  run.lap0_fp = DecodeFingerprint(sink.lap0);
  return run;
}

/// Set-up: construct the monitor (executor threads included) and push one
/// segment. Tear-down is not timed. Runs before the input is generated, so
/// every run starts it from the same heap state.
double MeasureSetup(int threads) {
  const dsp::SampleVec segment(kSegmentSamples);
  core::ResultSink discard;
  return MeasureSetupS([&] {
    const double t0 = WallNow();
    auto monitor = std::make_unique<core::StreamingMonitor>(
        MonitorConfig(threads, &discard));
    monitor->Push(segment);
    return WallNow() - t0;
  });
}

struct Quality {
  std::uint64_t truth = 0;
  std::uint64_t missed = 0;
  std::uint64_t decoded = 0;
  std::uint64_t unmatched = 0;  // spurious + duplicate decodes
  std::map<core::Protocol, std::array<std::uint64_t, 4>> by_protocol;
};

/// Scores every decode against the lap-shifted truth, one lap at a time
/// (testing::ScoreReport, default policy, demodulated protocols only).
Quality Score(const std::vector<Capture>& caps, const StreamRun& run) {
  Quality q;
  const std::int64_t laps = (run.pushed + kLapSamples - 1) / kLapSamples;
  // Scored over the whole laps the monitor has fully emitted.
  std::vector<core::MonitorReport> per_lap(static_cast<std::size_t>(laps));
  for (const auto& e : run.events) {
    const std::int64_t lap =
        std::clamp<std::int64_t>(e.start / kLapSamples, 0, laps - 1);
    core::ProtocolEvent pe;
    pe.protocol = e.protocol;
    pe.start_sample = e.start - lap * kLapSamples;
    pe.end_sample = e.end - lap * kLapSamples;
    pe.crc_ok = e.crc_ok;
    per_lap[static_cast<std::size_t>(lap)].events.push_back(pe);
  }
  for (std::int64_t lap = 0; lap < laps; ++lap) {
    auto& report = per_lap[static_cast<std::size_t>(lap)];
    const std::int64_t limit =
        std::min(kLapSamples, run.pushed - lap * kLapSamples);
    const auto conf = testing::ScoreReport(
        VariantAt(caps, lap * kLapSamples).truth, limit, report);
    for (const auto p : kDemodulated) {
      const auto& c = conf.Of(p);
      q.truth += c.truth_packets;
      q.missed += c.missed;
      q.decoded += c.decoded;
      q.unmatched += c.decoded - std::min(c.decoded, c.matched);
      auto& row = q.by_protocol[p];
      row[0] += c.truth_packets;
      row[1] += c.missed;
      row[2] += c.decoded;
      row[3] += c.decoded - std::min(c.decoded, c.matched);
    }
  }
  return q;
}

// ---------------------------------------------------------- traced re-drive

// Replicas of the two report-finishing steps AnalyzeDetections applies after
// the demodulator units (pipeline.cpp keeps them internal). The per-block
// gate proves the replicas produce the program's own output.
void DedupAnalysisResults(core::MonitorReport& report) {
  std::sort(report.bt_packets.begin(), report.bt_packets.end(),
            [](const auto& a, const auto& b) {
              return a.start_sample < b.start_sample;
            });
  report.bt_packets.erase(
      std::unique(report.bt_packets.begin(), report.bt_packets.end(),
                  [](const auto& a, const auto& b) {
                    return a.channel_index == b.channel_index &&
                           std::llabs(a.start_sample - b.start_sample) < 16;
                  }),
      report.bt_packets.end());
  std::sort(report.wifi_frames.begin(), report.wifi_frames.end(),
            [](const auto& a, const auto& b) {
              return a.start_sample < b.start_sample;
            });
  report.wifi_frames.erase(
      std::unique(report.wifi_frames.begin(), report.wifi_frames.end(),
                  [](const auto& a, const auto& b) {
                    return std::llabs(a.start_sample - b.start_sample) < 16;
                  }),
      report.wifi_frames.end());
  std::sort(report.events.begin(), report.events.end(),
            [](const core::ProtocolEvent& a, const core::ProtocolEvent& b) {
              if (a.protocol != b.protocol) return a.protocol < b.protocol;
              return a.start_sample < b.start_sample;
            });
  report.events.erase(
      std::unique(report.events.begin(), report.events.end(),
                  [](const core::ProtocolEvent& a,
                     const core::ProtocolEvent& b) {
                    return a.protocol == b.protocol &&
                           a.channel == b.channel &&
                           std::llabs(a.start_sample - b.start_sample) < 16;
                  }),
      report.events.end());
}

void BuildEventView(core::MonitorReport& report) {
  std::vector<core::ProtocolEvent> native = std::move(report.events);
  std::vector<core::ProtocolEvent> events;
  for (const auto& bundle : core::ProtocolRegistry::Instance().bundles()) {
    if (bundle.collect_events) {
      bundle.collect_events(report, events);
    } else {
      for (auto& e : native) {
        if (e.protocol == bundle.protocol) events.push_back(std::move(e));
      }
    }
  }
  report.events = std::move(events);
}

struct ProtocolTally {
  std::uint64_t fwd_samples = 0;  // dispatched interval samples
  std::uint64_t intervals = 0;
  std::uint64_t units = 0;
  std::uint64_t crc_decodes = 0;
};

struct RedriveResult {
  std::int64_t detect_samples = 0;  // samples entering Detect
  std::int64_t stream_samples = 0;  // stream samples the blocks own
  double loop_wall_s = 0.0;         // re-drive wall, gate checks excluded
  std::map<core::Protocol, ProtocolTally> tally;
  std::vector<std::string> lap0_fp;  // owned emissions of lap 0
  std::size_t blocks = 0;
  std::size_t block_mismatches = 0;
};

/// Re-drives the first `blocks` blocks of the lap-replayed stream on the
/// monitor's block schedule: Detect, then every dispatched interval's units
/// (inline, or through `executor`'s Batch), ordered commit, then
/// ownership-filtered emission. With `check`, each block's re-driven report
/// is compared with AnalyzeDetections on the same block under
/// ExactFingerprint.
RedriveResult Redrive(const std::vector<Capture>& caps, int blocks,
                      core::Executor* executor, SpanTracer& tracer,
                      bool check) {
  const auto& registry = core::ProtocolRegistry::Instance();
  core::RFDumpPipeline pipeline(MonitorConfig(1, nullptr).pipeline);
  RedriveResult out;
  core::CollectingSink lap0_sink;
  core::ResultSink discard;
  double check_wall = 0.0;
  dsp::SampleVec buffer(static_cast<std::size_t>(kBlockSamples));
  const double t0 = WallNow();

  for (int b = 0; b < blocks; ++b) {
    const auto id = static_cast<std::uint64_t>(b);
    const std::int64_t base = b * kBlockStep;
    // The block's samples, as the monitor's buffer holds them.
    for (std::int64_t i = 0; i < kBlockSamples;) {
      const std::int64_t at = (base + i) % kLapSamples;
      const std::int64_t n = std::min(kBlockSamples - i, kLapSamples - at);
      VariantAt(caps, base + i).Samples(at, n, buffer.data() + i);
      i += n;
    }
    const auto block = dsp::const_sample_span(buffer);
    out.detect_samples += kBlockSamples;
    ++out.blocks;

    core::DetectOutput det;
    {
      SpanTracer::Scope span(tracer, "detect", id);
      det = pipeline.Detect(block);
    }
    core::DetectOutput ref_det;
    if (check) ref_det = det;
    core::MonitorReport report = std::move(det.report);

    {
      SpanTracer::Scope span(tracer, "analysis", id);
      struct Unit {
        const core::ProtocolBundle* bundle;
        dsp::const_sample_span span;
        std::int64_t start;
        int unit;
        core::AnalysisCommit commit;
      };
      std::vector<Unit> units;
      for (const auto& d : report.dispatched) {
        auto& t = out.tally[d.protocol];
        ++t.intervals;
        t.fwd_samples += static_cast<std::uint64_t>(d.end_sample -
                                                    d.start_sample);
        const core::ProtocolBundle* bundle = registry.Find(d.protocol);
        if (bundle == nullptr || !bundle->analysis_plan ||
            (det.analysis.bundle_mask & core::BundleBit(d.protocol)) == 0) {
          continue;
        }
        const core::AnalysisPlan plan = bundle->analysis_plan(det.analysis);
        const auto span = block.subspan(
            static_cast<std::size_t>(d.start_sample),
            static_cast<std::size_t>(d.end_sample - d.start_sample));
        for (int u = 0; u < plan.units; ++u) {
          units.push_back({bundle, span, d.start_sample, u, {}});
        }
        if (plan.units > 0) t.units += static_cast<std::uint64_t>(plan.units);
      }
      rfdump::util::WorkBudget unlimited;
      const auto run_unit = [&](Unit& u) {
        SpanTracer::Scope span(tracer,
                               std::string("analysis.") + u.bundle->cli_name,
                               id);
        core::AnalysisUnitContext ctx;
        ctx.span = u.span;
        ctx.start_sample = u.start;
        ctx.analysis = &det.analysis;
        ctx.noise_floor_power = det.noise_floor_power;
        ctx.budget = &unlimited;
        u.commit = u.bundle->run_unit(ctx, u.unit);
      };
      if (executor == nullptr) {
        for (auto& u : units) {
          run_unit(u);
          if (u.commit) u.commit(report);
        }
      } else {
        core::Executor::Batch batch(executor);
        for (auto& u : units) batch.Run([&run_unit, &u] { run_unit(u); });
        batch.Wait();
        for (auto& u : units) {
          if (u.commit) u.commit(report);
        }
      }
      DedupAnalysisResults(report);
      BuildEventView(report);
    }
    for (const auto& e : report.events) {
      if (e.crc_ok) ++out.tally[e.protocol].crc_decodes;
    }

    if (check) {
      const double c0 = WallNow();
      const core::MonitorReport ref =
          core::AnalyzeDetections(std::move(ref_det), block, nullptr, nullptr);
      if (testing::ExactFingerprint(ref) !=
          testing::ExactFingerprint(report)) {
        ++out.block_mismatches;
      }
      check_wall += WallNow() - c0;
    }

    {
      // The monitor's emission: rebase to stream positions and keep what
      // this block owns, [base, base + step).
      SpanTracer::Scope span(tracer, "emit", id);
      // Owned results go out; lap 0's (starting before kLapSamples) are
      // kept for the comparison with the monitor.
      const auto sink_for = [&](std::int64_t start) -> core::ResultSink* {
        if (start < base || start >= base + kBlockStep) return nullptr;
        return start < kLapSamples ? &lap0_sink : &discard;
      };
      for (auto& f : report.wifi_frames) {
        f.start_sample += base;
        f.end_sample += base;
        if (auto* s = sink_for(f.start_sample)) s->OnWifiFrame(f);
      }
      for (auto& p : report.bt_packets) {
        p.start_sample += base;
        p.end_sample += base;
        if (auto* s = sink_for(p.start_sample)) s->OnBtPacket(p);
      }
      for (auto& z : report.zb_frames) {
        z.start_sample += base;
        z.end_sample += base;
        if (auto* s = sink_for(z.start_sample)) s->OnZbFrame(z);
      }
      for (auto& e : report.events) {
        e.start_sample += base;
        e.end_sample += base;
        if (auto* s = sink_for(e.start_sample)) s->OnEvent(e);
      }
      for (auto& d : report.detections) {
        d.start_sample += base;
        d.end_sample += base;
        if (auto* s = sink_for(d.start_sample)) s->OnDetection(d);
      }
    }
  }
  out.loop_wall_s = WallNow() - t0 - check_wall;
  out.stream_samples = static_cast<std::int64_t>(blocks) * kBlockStep;
  core::MonitorReport lap0;
  lap0.wifi_frames = std::move(lap0_sink.wifi_frames);
  lap0.bt_packets = std::move(lap0_sink.bt_packets);
  lap0.zb_frames = std::move(lap0_sink.zb_frames);
  lap0.events = std::move(lap0_sink.events);
  out.lap0_fp = DecodeFingerprint(lap0);
  return out;
}

/// Zero-valued fleet rows, so every traced run prints the same metric set.
void NetLayersAbsent(Result& res) {
  for (const char* name :
       {"net.publish_ns_per_event", "net.sensor_pump_ns_per_event",
        "net.server_pump_ns_per_event"}) {
    res.Layer(name, 0.0, "ns/event");
  }
  res.Layer("net.bytes_per_event", 0.0, "B/event");
  res.Layer("net.retransmits_per_1k", 0.0, "count/1k");
  res.Layer("net.send_rejects_per_1k", 0.0, "count/1k");
  res.Layer("net.merge_ratio", 0.0, "ratio");
  res.Layer("net.pumps_per_ack", 0.0, "ratio");
  res.Layer("fleet_events_per_s", 0.0, "events/s");
  res.Layer("fleet_loss_rate", 0.0, "fraction");
}

}  // namespace

void StreamingLayersAbsent(Result& res) {
  for (const char* name :
       {"detect.cpu_ns_per_sample", "detect.wall_ns_per_sample",
        "emit.wall_ns_per_sample"}) {
    res.Layer(name, 0.0, "ns/sample");
  }
  res.Layer("streaming.reprocess_fraction", 0.0, "ratio");
  res.Layer("streaming.overhead_share", 0.0, "ratio");
  for (const auto p : kEnabled) {
    res.Layer(std::string("dispatch.fwd_fraction.") + CliName(p), 0.0,
              "ratio");
  }
  res.Layer("dispatch.intervals", 0.0, "count/lap");
  for (const auto p : kDemodulated) {
    const std::string pre = std::string("analysis.") + CliName(p) + ".";
    res.Layer(pre + "cpu_ns_per_fwd_sample", 0.0, "ns/sample");
    res.Layer(pre + "wall_ns_per_fwd_sample", 0.0, "ns/sample");
    res.Layer(pre + "cpu_share", 0.0, "ratio");
    res.Layer(pre + "units", 0.0, "count/lap");
    res.Layer(pre + "yield", 0.0, "ratio");
  }
  res.Layer("executor.speedup", 0.0, "ratio");
  res.Layer("executor.offcpu_share", 0.0, "ratio");
  res.Layer("executor.cpu_inflation", 0.0, "ratio");
  res.Layer("miss_rate", 0.0, "fraction");
  res.Layer("spurious_rate", 0.0, "fraction");
  res.Layer("stream_batch_diff", 0.0, "count");
}

// ------------------------------------------------------------------ inputs

namespace {

emu::Ether::Config AdcEther() {
  emu::Ether::Config c;
  c.adc_bits = kAdcBits;
  return c;
}

/// The sample an ADC code stands for: the expression channel::Quantize
/// rounds to, so it restores the rendered float bit for bit.
float AdcValue(std::int16_t code) {
  return static_cast<float>(code) * kAdcFullScale / kAdcLevels;
}

/// The ADC codes of rendered samples; throws unless they restore them.
std::vector<std::complex<std::int16_t>> AdcCodes(const dsp::SampleVec& x) {
  const auto code = [](float v) {
    const auto c =
        static_cast<std::int16_t>(std::lround(v / kAdcFullScale * kAdcLevels));
    if (AdcValue(c) != v) throw std::runtime_error("sample is not an ADC code");
    return c;
  };
  std::vector<std::complex<std::int16_t>> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = {code(x[i].real()), code(x[i].imag())};
  }
  return out;
}

}  // namespace

void Capture::Samples(std::int64_t at, std::int64_t n, dsp::cfloat* out) const {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto c = codes[static_cast<std::size_t>(at + i)];
    out[i] = {AdcValue(c.real()), AdcValue(c.imag())};
  }
}

std::vector<Capture> MakeCampusCaptures(std::uint64_t seed) {
  std::vector<Capture> caps(kVariants);
  std::atomic<int> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (int v = next++; v < kVariants; v = next++) {
      try {
        caps[static_cast<std::size_t>(v)] =
            MakeCampusCapture(VariantSeed(seed, v), /*render=*/true);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return caps;
}

Capture MakeCampusCapture(std::uint64_t seed, bool render) {
  // The traffic layout is drawn once from kCampusLayoutSeed, so every seed
  // carries the same amount of work: the campus mix has only a dozen long
  // 1 Mbps frames per lap, and redrawing them per seed moved the demodulator
  // cost by +-15%. The seed draws where the layout sits on the monitor's
  // block grid (which frames a block boundary cuts) and the AWGN of every
  // sample.
  rfdump::util::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  const auto shift = static_cast<std::int64_t>(rng.UniformInt(0, 159'999));
  emu::Ether ether(AdcEther(), kCampusLayoutSeed);
  traffic::CampusConfig campus;
  campus.duration_sec = 0.86;
  campus.include_bluetooth = true;
  campus.include_microwave = true;
  traffic::GenerateCampus(ether, campus, 4'000 + shift);
  // The paper's campus trace has no ZigBee or BLE, so their traffic is the
  // generators' defaults (traffic.hpp): 50 ZigBee reports 5 ms apart and 4
  // BLE advertising events 20 ms apart.
  traffic::GenerateZigbee(ether, traffic::ZigbeeConfig{}, 24'000 + shift);
  traffic::GenerateBleAdv(ether, traffic::BleAdvConfig{}, 64'000 + shift);
  // A quiet tail keeps the lap seam free of transmissions.
  if (ether.LastActivity() > kLapSamples - 2 * kOverlapSamples) {
    throw std::runtime_error("campus capture overruns its lap");
  }
  Capture cap;
  cap.truth = ether.truth();
  if (render) {
    ether.rng() = rfdump::util::Xoshiro256(seed);
    cap.codes = AdcCodes(ether.Render(kLapSamples));
  }
  return cap;
}

// ---------------------------------------------------------------- workload

Result RunStreaming(const RunOptions& opt) {
  Result res;
  const bool parallel = opt.workload == "campus_par";
  const int threads = parallel ? kParallelThreads : 1;
  const double setup_s = MeasureSetup(threads);
  const std::vector<Capture> caps = MakeCampusCaptures(opt.seed);
  const unsigned hw = std::thread::hardware_concurrency();
  const bool provisioned = !parallel || hw >= kProvisionedHardwareThreads;
  std::printf("workload %s seed %llu: %d captures of %.3f s, %zu truth "
              "records in the first, threads %d, hardware_threads %u%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              kVariants,
              static_cast<double>(caps[0].codes.size()) / dsp::kSampleRateHz,
              caps[0].truth.size(), threads, hw,
              provisioned ? "" : " (UNPROVISIONED: fewer than 4 hardware "
                                 "threads, scaling not reported)");

  // Measured before the reference passes below, so they cannot pre-grow
  // the heap the peak-RSS metric is taken over.
  const StreamRun run = RunMonitor(caps, threads, opt.seconds,
                                   std::numeric_limits<std::int64_t>::max(),
                                   /*sample_rss=*/true);
  const double ether_s = static_cast<double>(run.pushed) / dsp::kSampleRateHz;
  const Quality q = Score(caps, run);

  // Operations are the analysis invocations the monitor's supervisor ran;
  // a failed one threw, hit its deadline or met an open breaker.
  res.attempted = run.summary.supervised_intervals;
  res.failed = run.summary.exception_intervals +
               run.summary.deadline_intervals + run.summary.skipped_intervals;

  // Whole-run figures, Flush() included. The per-lap rates printed below
  // differ by the variant a lap plays and by how much the host moved.
  const double x_rt = ether_s / run.wall_s;
  const double cpu_per_rt = run.cpu_s / ether_s;
  const double lap_s = static_cast<double>(kLapSamples) / dsp::kSampleRateHz;
  std::vector<double> lap_rt;
  for (const double w : run.lap_wall) lap_rt.push_back(lap_s / w);
  const double lag50 = Percentile(run.lags_ms, 0.50);
  const double lag99 = Percentile(run.lags_ms, 0.99);
  const double miss_rate =
      q.truth > 0 ? static_cast<double>(q.missed) / q.truth : 0.0;
  const double spurious_rate =
      q.decoded > 0 ? static_cast<double>(q.unmatched) / q.decoded : 0.0;

  // Gates and the stream-vs-batch difference, on lap 0.
  std::size_t stream_batch_diff = 0;
  if (parallel) {
    const StreamRun serial = RunMonitor(caps, 1, 1e9, kLap0Samples, false);
    res.Gate(serial.lap0_fp == run.lap0_fp,
             "campus_par lap-0 decodes equal the threads=1 monitor under "
             "ExactFingerprint (" + std::to_string(run.lap0_fp.size()) +
                 " vs " + std::to_string(serial.lap0_fp.size()) + " lines)");
  }
  {
    core::RFDumpPipeline batch(MonitorConfig(1, nullptr).pipeline);
    dsp::SampleVec lap0(kLapSamples);
    caps[0].Samples(0, kLapSamples, lap0.data());
    const auto fp = DecodeFingerprint(batch.Process(lap0));
    stream_batch_diff = SymmetricDiff(run.lap0_fp, fp);
  }

  std::printf("untraced: %.3f s ether in %.3f s wall (%lld segments of %lld "
              "samples), flush included\n",
              ether_s, run.wall_s,
              static_cast<long long>(run.pushed / kSegmentSamples),
              static_cast<long long>(kSegmentSamples));
  std::printf("  x_realtime          %10.4f x    (%zu full laps: min %.4f, "
              "median %.4f, max %.4f)\n",
              x_rt, lap_rt.size(), Percentile(lap_rt, 0.0), Median(lap_rt),
              Percentile(lap_rt, 1.0));
  std::printf("  cpu_per_rt          %10.4f s/s\n", cpu_per_rt);
  std::printf("  host steal          %10.4f      of all CPU time (%.2f s; a "
              "busy host slows every figure)\n",
              run.steal_s / (std::max(hw, 1u) * run.wall_s), run.steal_s);
  std::printf("  emit_lag_p50_ms     %10.3f ms   (%zu samples)\n", lag50,
              run.lags_ms.size());
  std::printf("  emit_lag_p99_ms     %10.3f ms   (%zu samples, %zu beyond)\n",
              lag99, run.lags_ms.size(),
              run.lags_ms.size() - static_cast<std::size_t>(
                                       0.99 * run.lags_ms.size()));
  std::printf("  miss_rate           %10.5f      (%llu of %llu truth)\n",
              miss_rate, static_cast<unsigned long long>(q.missed),
              static_cast<unsigned long long>(q.truth));
  std::printf("  spurious_rate       %10.5f      (%llu of %llu decodes)\n",
              spurious_rate, static_cast<unsigned long long>(q.unmatched),
              static_cast<unsigned long long>(q.decoded));
  for (const auto& [p, row] : q.by_protocol) {
    std::printf("    %-8s truth %7llu missed %7llu decoded %7llu unmatched "
                "%5llu\n",
                CliName(p), static_cast<unsigned long long>(row[0]),
                static_cast<unsigned long long>(row[1]),
                static_cast<unsigned long long>(row[2]),
                static_cast<unsigned long long>(row[3]));
  }
  std::printf("  stream_batch_diff   %10zu      lines (lap 0, %zu stream "
              "lines)\n",
              stream_batch_diff, run.lap0_fp.size());
  std::printf("  setup_s             %10.6f s    (fastest of %d rounds "
              "per CPU)\n",
              setup_s, kSetupRoundsPerCpu);
  std::printf("  mem_peak_mb         %10.2f MiB\n", run.mem_peak_mb);

  res.E2e("x_realtime", x_rt, "x");
  res.E2e("cpu_per_rt", cpu_per_rt, "s/s");
  res.E2e("lag_p50_ms", lag50, "ms");
  res.E2e("lag_p99_ms", lag99, "ms");
  res.E2e("setup_s", setup_s, "s");
  res.E2e("mem_peak_mb", run.mem_peak_mb, "MiB");

  if (!opt.trace) return res;

  // ------------------------------------------------------------ traced run
  const int blocks = kTracedBlocks;
  const double laps = static_cast<double>(blocks) * kBlockStep / kLapSamples;
  SpanTracer tracer;
  std::unique_ptr<core::Executor> executor;
  SpanTracer serial_tracer;
  if (parallel) {
    Redrive(caps, blocks, nullptr, serial_tracer, /*check=*/false);
    executor = std::make_unique<core::Executor>(threads);
  }
  SpanTracer off(/*enabled=*/false);
  const RedriveResult bare =
      Redrive(caps, blocks, executor.get(), off, /*check=*/false);
  const RedriveResult rd =
      Redrive(caps, blocks, executor.get(), tracer, /*check=*/true);
  res.Gate(rd.block_mismatches == 0,
           "traced re-drive equals AnalyzeDetections on every block (" +
               std::to_string(rd.blocks - rd.block_mismatches) + "/" +
               std::to_string(rd.blocks) + ")");
  res.Gate(rd.lap0_fp == run.lap0_fp,
           "traced re-drive emits the monitor's own lap-0 decodes (" +
               std::to_string(rd.lap0_fp.size()) + " vs " +
               std::to_string(run.lap0_fp.size()) + " lines)");
  if (!opt.trace_out.empty()) {
    if (tracer.WriteChrome(opt.trace_out)) {
      std::printf("wrote %s (%llu spans not kept)\n", opt.trace_out.c_str(),
                  static_cast<unsigned long long>(tracer.raw_dropped()));
    } else {
      std::printf("cannot write %s\n", opt.trace_out.c_str());
    }
  }

  const auto det = tracer.Of("detect");
  const auto ana = tracer.Of("analysis");
  const auto units = tracer.OfPrefix("analysis.");
  const auto emit = tracer.Of("emit");
  const double ds = static_cast<double>(rd.detect_samples);
  const double ss = static_cast<double>(rd.stream_samples);
  const double traced_cpu = det.cpu_s + units.cpu_s + emit.cpu_s;
  const double untraced_wall_per_sample = run.wall_s / run.pushed;

  std::printf("traced re-drive: %zu blocks (%.2f laps), %.0f samples into "
              "Detect\n", rd.blocks, laps, ds);
  std::printf("  %-22s %12s %12s %10s\n", "layer", "cpu ns/unit",
              "wall ns/unit", "spans");
  PrintLayerRow("detect", det, ds, "detect sample");
  PrintLayerRow("analysis (all)", ana, ss, "stream sample");
  PrintLayerRow("emit", emit, ss, "stream sample");

  res.Layer("detect.cpu_ns_per_sample", det.cpu_s * 1e9 / ds, "ns/sample");
  res.Layer("detect.wall_ns_per_sample", det.wall_s * 1e9 / ds, "ns/sample");
  res.Layer("emit.wall_ns_per_sample", emit.wall_s * 1e9 / ss, "ns/sample");
  res.Layer("streaming.reprocess_fraction",
            static_cast<double>(run.summary.samples) / run.pushed, "ratio");
  res.Layer("streaming.overhead_share",
            1.0 - ((det.wall_s + ana.wall_s + emit.wall_s) / ss) /
                      untraced_wall_per_sample,
            "ratio");
  std::printf("  streaming: %llu samples entered Detect for %lld pushed; "
              "traced detect+analysis+emit wall %.1f ns/sample vs untraced "
              "%.1f ns/sample\n",
              static_cast<unsigned long long>(run.summary.samples),
              static_cast<long long>(run.pushed),
              (det.wall_s + ana.wall_s + emit.wall_s) * 1e9 / ss,
              untraced_wall_per_sample * 1e9);

  std::uint64_t intervals = 0;
  for (const auto p : kEnabled) {
    const auto& t = rd.tally.count(p) ? rd.tally.at(p) : ProtocolTally{};
    intervals += t.intervals;
    res.Layer(std::string("dispatch.fwd_fraction.") + CliName(p),
              static_cast<double>(t.fwd_samples) / ds, "ratio");
    std::printf("  dispatch %-10s %8llu intervals, %10llu fwd samples "
                "(%.5f of %.0f detect samples)\n",
                CliName(p), static_cast<unsigned long long>(t.intervals),
                static_cast<unsigned long long>(t.fwd_samples),
                static_cast<double>(t.fwd_samples) / ds, ds);
  }
  res.Layer("dispatch.intervals", static_cast<double>(intervals) / laps,
            "count/lap");
  for (const auto p : kDemodulated) {
    const std::string cli = CliName(p);
    const auto t = tracer.Of("analysis." + cli);
    const auto& tally = rd.tally.count(p) ? rd.tally.at(p) : ProtocolTally{};
    const double fwd = static_cast<double>(tally.fwd_samples);
    PrintLayerRow(("analysis." + cli).c_str(), t, fwd, "fwd sample");
    std::printf("  %-22s units %llu, CRC-valid decodes %llu (yield %.4f), "
                "cpu share %.4f of %.4f s traced CPU\n",
                "", static_cast<unsigned long long>(tally.units),
                static_cast<unsigned long long>(tally.crc_decodes),
                tally.units ? static_cast<double>(tally.crc_decodes) /
                                  tally.units
                            : 0.0,
                traced_cpu > 0 ? t.cpu_s / traced_cpu : 0.0, traced_cpu);
    const std::string pre = "analysis." + cli + ".";
    res.Layer(pre + "cpu_ns_per_fwd_sample", fwd > 0 ? t.cpu_s * 1e9 / fwd : 0,
              "ns/sample");
    res.Layer(pre + "wall_ns_per_fwd_sample",
              fwd > 0 ? t.wall_s * 1e9 / fwd : 0, "ns/sample");
    res.Layer(pre + "cpu_share", traced_cpu > 0 ? t.cpu_s / traced_cpu : 0,
              "ratio");
    res.Layer(pre + "units", static_cast<double>(tally.units) / laps,
              "count/lap");
    res.Layer(pre + "yield",
              tally.units ? static_cast<double>(tally.crc_decodes) /
                                tally.units
                          : 0.0,
              "ratio");
  }

  // Executor rows: campus_par against its own threads=1 re-drive of the
  // same laps; the serial workloads run units inline (speedup 1 by
  // definition).
  double speedup = 1.0, inflation = 1.0;
  if (parallel) {
    const auto base_ana = serial_tracer.Of("analysis");
    const auto base_units = serial_tracer.OfPrefix("analysis.");
    speedup = provisioned && ana.wall_s > 0 ? base_ana.wall_s / ana.wall_s : 0;
    inflation = base_units.cpu_s > 0 ? units.cpu_s / base_units.cpu_s : 0;
    std::printf("  executor: analysis wall %.4f s at width %d vs %.4f s "
                "inline (speedup %.3f%s); unit CPU %.4f s vs %.4f s\n",
                ana.wall_s, threads, base_ana.wall_s, speedup,
                provisioned ? "" : ", unprovisioned: not reported",
                units.cpu_s, base_units.cpu_s);
  }
  res.Layer("executor.speedup", speedup, "ratio");
  res.Layer("executor.offcpu_share",
            units.wall_s > 0 ? 1.0 - units.cpu_s / units.wall_s : 0, "ratio");
  res.Layer("executor.cpu_inflation", inflation, "ratio");
  res.Layer("hardware_threads", hw, "count");

  NetLayersAbsent(res);
  res.Layer("lag.samples", static_cast<double>(run.lags_ms.size()), "count");
  res.Layer("miss_rate", miss_rate, "fraction");
  res.Layer("spurious_rate", spurious_rate, "fraction");
  res.Layer("stream_batch_diff", static_cast<double>(stream_batch_diff),
            "count");
  // Tracing overhead: the same re-drive with spans on against spans off.
  const double trace_overhead = rd.loop_wall_s / bare.loop_wall_s - 1.0;
  res.Layer("trace.overhead_share", trace_overhead, "ratio");
  std::printf("  trace.overhead_share %.4f (re-drive %.4f s traced vs %.4f s "
              "untraced)\n",
              trace_overhead, rd.loop_wall_s, bare.loop_wall_s);
  return res;
}

}  // namespace perfbench
