#pragma once
// The benchmark's own span recorder for the traced run. Spans are taken
// around calls into the program's public functions (no spans inside the
// program): each records wall time and thread-CPU time
// (CLOCK_THREAD_CPUTIME_ID), and spans of one block or one batch share an
// id. Spans stay in memory (per-name totals always, raw spans up to a cap)
// and are written as chrome://tracing JSON when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanTracer {
 public:
  struct Totals {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t spans = 0;
  };

  /// Raw spans kept for the chrome://tracing file; totals never stop.
  static constexpr std::size_t kMaxRawSpans = 100'000;

  /// RAII span. Thread-safe: analysis units record from executor workers.
  class Scope {
   public:
    Scope(SpanTracer& tracer, std::string name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTracer& tracer_;
    std::string name_;
    std::uint64_t id_;
    double wall0_;
    double cpu0_;
  };

  /// A disabled tracer records nothing and reads no clocks, so the same
  /// re-drive can run untraced to price the tracing itself.
  explicit SpanTracer(bool enabled = true);

  [[nodiscard]] Totals Of(const std::string& name) const;
  /// Sum over every span whose name starts with `prefix`.
  [[nodiscard]] Totals OfPrefix(const std::string& prefix) const;
  [[nodiscard]] std::uint64_t raw_dropped() const { return raw_dropped_; }

  /// Writes the kept spans as chrome://tracing "X" events (ts/dur in us of
  /// wall time; args carry thread-CPU us and the block/batch id). Returns
  /// false if the file cannot be written.
  bool WriteChrome(const std::string& path) const;

 private:
  struct Raw {
    std::string name;
    std::uint64_t id;
    std::uint64_t tid;
    double ts_us;
    double dur_us;
    double cpu_us;
  };
  void Record(const std::string& name, std::uint64_t id, double wall0,
              double wall1, double cpu_s);

  bool enabled_;
  double origin_;
  mutable std::mutex mu_;
  std::map<std::string, Totals> totals_;  // guarded by mu_
  std::vector<Raw> raw_;                  // guarded by mu_
  std::uint64_t raw_dropped_ = 0;         // guarded by mu_
};

/// One per-layer table row: thread-CPU and wall ns per unit of `base`.
void PrintLayerRow(const char* layer, const SpanTracer::Totals& t, double base,
                   const char* base_name);

}  // namespace perfbench
