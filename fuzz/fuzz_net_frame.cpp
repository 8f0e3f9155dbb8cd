// libFuzzer entry point for the net frame parser + message codecs (clang
// only; see fuzz/CMakeLists.txt). The input mapping is shared with the
// in-tree corpus runner: the "net-frame" fuzz target. Covers FrameParser
// resync (with a chunked-feed differential) and every message Decode,
// kMetrics included.

#include <cstddef>
#include <cstdint>

#include "rfdump/testing/fuzz.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const auto target = rfdump::testing::FindFuzzTarget("net-frame");
  (void)target.run({data, size}, nullptr);
  return 0;
}
