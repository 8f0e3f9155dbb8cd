#include "tracer.hpp"

#include <cstdio>
#include <functional>
#include <thread>

#include "common.hpp"

namespace perfbench {

SpanTracer::SpanTracer(bool enabled) : enabled_(enabled), origin_(WallNow()) {}

SpanTracer::Scope::Scope(SpanTracer& tracer, std::string name,
                         std::uint64_t id)
    : tracer_(tracer),
      name_(tracer.enabled_ ? std::move(name) : std::string()),
      id_(id),
      wall0_(tracer.enabled_ ? WallNow() : 0.0),
      cpu0_(tracer.enabled_ ? ThreadCpuNow() : 0.0) {}

SpanTracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  const double cpu1 = ThreadCpuNow();
  const double wall1 = WallNow();
  tracer_.Record(name_, id_, wall0_, wall1, cpu1 - cpu0_);
}

void SpanTracer::Record(const std::string& name, std::uint64_t id,
                        double wall0, double wall1, double cpu_s) {
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::lock_guard<std::mutex> lock(mu_);
  Totals& t = totals_[name];
  t.wall_s += wall1 - wall0;
  t.cpu_s += cpu_s;
  ++t.spans;
  if (raw_.size() < kMaxRawSpans) {
    raw_.push_back({name, id, tid, (wall0 - origin_) * 1e6,
                    (wall1 - wall0) * 1e6, cpu_s * 1e6});
  } else {
    ++raw_dropped_;
  }
}

SpanTracer::Totals SpanTracer::Of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

SpanTracer::Totals SpanTracer::OfPrefix(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals sum;
  for (const auto& [name, t] : totals_) {
    if (name.rfind(prefix, 0) != 0) continue;
    sum.wall_s += t.wall_s;
    sum.cpu_s += t.cpu_s;
    sum.spans += t.spans;
  }
  return sum;
}

bool SpanTracer::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const Raw& r = raw_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                 "%llu, \"thread_cpu_us\": %.3f}}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.tid),
                 r.ts_us, r.dur_us, static_cast<unsigned long long>(r.id),
                 r.cpu_us, i + 1 < raw_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void PrintLayerRow(const char* layer, const SpanTracer::Totals& t, double base,
                   const char* base_name) {
  std::printf("  %-22s %12.2f %12.2f %10llu   per %s (%.0f)\n", layer,
              base > 0 ? t.cpu_s * 1e9 / base : 0.0,
              base > 0 ? t.wall_s * 1e9 / base : 0.0,
              static_cast<unsigned long long>(t.spans), base_name, base);
}

}  // namespace perfbench
