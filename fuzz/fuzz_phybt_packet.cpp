// libFuzzer entry point for the Bluetooth sync-word/packet parsers + GFSK
// demodulator (clang only; see fuzz/CMakeLists.txt). The input mapping is
// shared with the in-tree corpus runner: the "phybt-packet" fuzz target.

#include <cstddef>
#include <cstdint>

#include "rfdump/testing/fuzz.hpp"
#include "rfdump/util/work_budget.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const auto target = rfdump::testing::FindFuzzTarget("phybt-packet");
  rfdump::util::WorkBudget budget;
  budget.Arm({.max_samples = 64u << 20, .max_cpu_seconds = 2.0});
  (void)target.run({data, size}, &budget);
  return 0;
}
