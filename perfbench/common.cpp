#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

namespace perfbench {
namespace {

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double RssMb() {
  // statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double SettledRssMb() {
  malloc_trim(0);
  return RssMb();
}

double HostStealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void ResetPeakRss() {
  // "5" resets the peak-RSS mark (proc(5), /proc/pid/clear_refs).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

CpuRotation::CpuRotation(double slice_s) : slice_s_(slice_s) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  original_ = cpus_;
  // Without a usable mask the thread stays where the scheduler puts it.
  if (cpus_.size() < 2) cpus_.clear();
  at_ = cpus_.size();
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : original_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Tick(double now) {
  if (now >= slice_end_) {
    Next();
    slice_end_ = now + slice_s_;
  }
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  at_ = at_ + 1 >= cpus_.size() ? 0 : at_ + 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())) - 1.0);
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

void Result::Gate(bool ok, const std::string& what) {
  std::printf("gate %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct = false;
}

std::string Result::JsonLine(bool traced) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  const auto& metrics = traced ? per_layer : end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
