#pragma once
// The three workloads. Every input is generated from RunOptions::seed; the
// program under test only ever receives the generated samples or events.

#include <complex>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "rfdump/dsp/types.hpp"
#include "rfdump/emu/ether.hpp"

namespace perfbench {

/// Monitor block schedule (StreamingMonitor defaults): a block of
/// kBlockSamples every kBlockStep samples, overlapping by the difference.
inline constexpr std::int64_t kBlockSamples = 2'000'000;
inline constexpr std::int64_t kOverlapSamples = 160'000;
inline constexpr std::int64_t kBlockStep = kBlockSamples - kOverlapSamples;
/// One capture ("lap") is 0.96 s of ether, replayed at advancing stream
/// positions. It is deliberately not a multiple of the block step: each lap
/// meets the block grid at another phase, so one run averages over where
/// block boundaries cut the traffic instead of repeating one cut.
inline constexpr std::int64_t kLapSamples = 7'680'000;
static_assert(kLapSamples % kBlockStep != 0);
/// Stream prefix the monitor needs to have seen before every result that
/// starts in lap 0 is out: up to the end of the block owning lap 0's last
/// sample.
inline constexpr std::int64_t kLap0Samples =
    (kLapSamples - 1) / kBlockStep * kBlockStep + kBlockSamples;
/// Feeder segment: 2 ms of ether; divides kLapSamples and kLap0Samples.
inline constexpr std::int64_t kSegmentSamples = 16'000;
static_assert(kLapSamples % kSegmentSamples == 0);
static_assert(kLap0Samples % kSegmentSamples == 0);

/// Front end of every capture: the 12-bit ADC of the paper's USRP
/// (emu::Ether::Config::adc_bits) at the Ether's default full scale.
inline constexpr unsigned kAdcBits = 12;
inline constexpr float kAdcFullScale =
    rfdump::emu::Ether::Config{}.adc_full_scale;
inline constexpr float kAdcLevels =
    static_cast<float>((1u << (kAdcBits - 1)) - 1);

/// One generated capture with its ground truth. The samples are kept as
/// their ADC codes, two int16 per sample, which restores the rendered floats
/// exactly at half their memory.
struct Capture {
  std::vector<std::complex<std::int16_t>> codes;  // empty: truth only
  std::vector<rfdump::emu::TruthRecord> truth;

  /// Writes samples [at, at + n) as the monitor receives them.
  void Samples(std::int64_t at, std::int64_t n, rfdump::dsp::cfloat* out) const;
};

/// A streaming run replays kVariants captures, lap i playing variant
/// i % kVariants. Each variant has its own noise and its own position of the
/// traffic on the block grid, so a run's cost is an average over eight draws
/// rather than one: the noise decides how much the ZigBee and Bluetooth
/// detectors forward, and one draw in four cost about 30 % more.
inline constexpr int kVariants = 8;
/// Seed of variant `v` of the run seeded `seed`.
inline std::uint64_t VariantSeed(std::uint64_t seed, int v) {
  return seed * kVariants + static_cast<std::uint64_t>(v);
}

/// Campus ether: multi-rate 802.11b + beacons + Bluetooth + microwave oven
/// (the campus generator) plus ZigBee reports and BLE advertising.
Capture MakeCampusCapture(std::uint64_t seed, bool render);
/// The kVariants campus captures of a streaming run, generated on up to
/// four threads.
std::vector<Capture> MakeCampusCaptures(std::uint64_t seed);

Result RunStreaming(const RunOptions& opt);
/// The streaming per-layer rows at zero, for workloads without those layers
/// (every traced run prints the same metric set).
void StreamingLayersAbsent(Result& res);
Result RunFleet(const RunOptions& opt);

}  // namespace perfbench
