// libFuzzer entry point for the 802.11b PLCP parser + DSSS demodulator
// (clang only; see fuzz/CMakeLists.txt). The input mapping is shared with
// the in-tree corpus runner: the "phy80211-plcp" fuzz target.

#include <cstddef>
#include <cstdint>

#include "rfdump/testing/fuzz.hpp"
#include "rfdump/util/work_budget.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const auto target = rfdump::testing::FindFuzzTarget("phy80211-plcp");
  // Arm a cooperative budget so slow-but-terminating inputs don't trip
  // libFuzzer's timeout; true hangs (budget ignored) still will.
  rfdump::util::WorkBudget budget;
  budget.Arm({.max_samples = 64u << 20, .max_cpu_seconds = 2.0});
  (void)target.run({data, size}, &budget);
  return 0;
}
