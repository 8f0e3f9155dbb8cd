#pragma once
// Shared plumbing of the end-to-end benchmark: clocks, peak RSS, CPU
// rotation, set-up timing, percentiles, and the result record every
// workload fills in.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double WallNow();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), seconds.
double ThreadCpuNow();
/// CPU time of the whole process over all threads, seconds.
double ProcessCpuNow();
/// Resident set size of this process, MiB.
double RssMb();
/// RSS after returning the allocator's free memory to the system, so a
/// baseline holds only live data and the measured run's own allocations
/// show up in the peak.
double SettledRssMb();

/// CPU time the hypervisor gave to others while this host's CPUs wanted
/// to run, summed over all CPUs (/proc/stat "steal"), seconds; 0 on bare
/// metal.
double HostStealSeconds();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so
/// PeakRssMb() reports the peak of what follows.
void ResetPeakRss();
/// Peak RSS since the last ResetPeakRss() (VmHWM), MiB.
double PeakRssMb();

/// Moves the calling thread across the CPUs it may run on, one wall-clock
/// slice per CPU in turn, and restores its CPU mask when destroyed. On a
/// shared host the CPUs differ in speed by up to 2x depending on what runs
/// beside them, and a thread left in place measures whichever CPU it
/// happened to start on; rotating gives every run the same mix of CPUs.
/// Threads created while it holds a CPU inherit that one CPU, so create
/// them before the first Tick() or after destruction.
class CpuRotation {
 public:
  explicit CpuRotation(double slice_s);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next CPU once the current slice has run out.
  void Tick(double now);
  /// Moves to the next CPU now.
  void Next();
  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::vector<int> original_;
  std::size_t at_ = 0;
  double slice_s_;
  double slice_end_ = 0.0;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `correct` turns false on the first failed
/// gate; every gate's outcome is printed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// Records one correctness gate.
  void Gate(bool ok, const std::string& what);
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}
  /// with the end-to-end metrics (traced == false) or the per-layer ones.
  [[nodiscard]] std::string JsonLine(bool traced) const;
};

/// Inputs every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required on the command line
  bool trace = false;
  std::string trace_out;  // chrome://tracing file of the traced run
};

/// Wall-clock slice a measured thread spends on one CPU (CpuRotation).
inline constexpr double kRotationSliceS = 0.25;

/// Set-up rounds on each CPU the process may run on (see MeasureSetupS).
inline constexpr int kSetupRoundsPerCpu = 128;

/// Set-up time of `setup`, seconds: the fastest of kSetupRoundsPerCpu
/// rounds on each CPU in turn. On a shared host the same set-up took 20 us
/// or 38 us depending on the CPU and the minute. Over ten processes, a
/// median of 16 rounds on the least busy CPU read 18-39 us; the fastest of
/// 512 rounds read 20-31 us, 21 us in most.
template <typename Fn>
double MeasureSetupS(Fn&& setup) {
  CpuRotation rotation(0.0);
  double best = 0.0;
  for (std::size_t c = 0; c < std::max<std::size_t>(rotation.cpus(), 1); ++c) {
    rotation.Next();
    for (int r = 0; r < kSetupRoundsPerCpu; ++r) {
      const double s = setup();
      if ((c == 0 && r == 0) || s < best) best = s;
    }
  }
  return best;
}

}  // namespace perfbench
