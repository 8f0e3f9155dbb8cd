// Deterministic fuzz-corpus regression suite (DESIGN.md §11): every
// checked-in corpus input (tests/corpus/<target>/) runs through its fuzz
// target under a WorkBudget and a wall-clock hang check, plus
// one seeded mutation round per input. Any crash or hang fails the suite and
// writes a repro file. The ci sanitize job runs this under ASan+UBSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "rfdump/testing/fuzz.hpp"

namespace rft = rfdump::testing;
namespace fs = std::filesystem;

namespace {

#ifndef RFDUMP_SOURCE_DIR
#error "tests/CMakeLists.txt must define RFDUMP_SOURCE_DIR"
#endif

// The targets pinned by name in the tests below; RegistryTargetsReplay
// covers every other enumerated target.
const char* const kPinned[] = {"phy80211-plcp", "phybt-packet", "phyzigbee",
                               "net-frame"};

void RunTarget(const rft::FuzzTargetRef& target) {
  rft::CorpusRunner::Config cfg;
  cfg.repro_dir =
      (fs::path(::testing::TempDir()) / "rfdump_fuzz_repro").string();
  cfg.mutation_rounds = 1;
  cfg.seed = 1;
  rft::CorpusRunner runner(cfg);
  const std::string dir =
      std::string(RFDUMP_SOURCE_DIR) + "/tests/corpus/" + target.corpus_dir;
  const auto result = runner.RunDirectory(target, dir);

  // >= 100 checked-in inputs per decoder, plus the mutation round.
  EXPECT_GE(result.inputs_run, 200u)
      << "corpus missing or truncated at " << dir;
  EXPECT_TRUE(result.ok()) << result.Summary(target.name);
  // The corpus is not all chaff: the structurally valid seeds decode.
  EXPECT_GT(result.decodes, 0u) << result.Summary(target.name);
}

TEST(FuzzCorpus, Phy80211Plcp) {
  RunTarget(rft::FindFuzzTarget("phy80211-plcp"));
}

TEST(FuzzCorpus, PhyBtPacket) {
  RunTarget(rft::FindFuzzTarget("phybt-packet"));
}

TEST(FuzzCorpus, PhyZigbee) { RunTarget(rft::FindFuzzTarget("phyzigbee")); }

TEST(FuzzCorpus, NetFrame) { RunTarget(rft::FindFuzzTarget("net-frame")); }

TEST(FuzzCorpus, RegistryTargetsReplay) {
  // Enumerated targets beyond the four pinned above (today: the BLE
  // advertising bundle; tomorrow: any new bundle with fuzz hooks). Covered
  // here with zero per-protocol edits — registering the bundle is enough to
  // put its corpus under this suite.
  std::size_t registry_only = 0;
  for (const auto& target : rft::EnumerateFuzzTargets()) {
    bool pinned = false;
    for (const char* name : kPinned) pinned |= target.name == name;
    if (pinned) continue;  // already replayed by the tests above
    ++registry_only;
    RunTarget(target);
  }
  // The BLE advertising bundle must be enumerated.
  EXPECT_GE(registry_only, 1u);
  EXPECT_THROW((void)rft::FindFuzzTarget("no-such-target"),
               std::invalid_argument);
}

TEST(FuzzCorpus, MutatorIsDeterministicAndTotal) {
  // Same RNG state => same mutant; mutation never produces an empty input
  // (the targets treat empty input as a no-op and the corpus would rot).
  rfdump::util::Xoshiro256 a(123), b(123);
  std::vector<std::uint8_t> x{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> y = x;
  for (int i = 0; i < 200; ++i) {
    rft::MutateInput(x, a);
    rft::MutateInput(y, b);
    ASSERT_EQ(x, y) << "mutation diverged at round " << i;
    ASSERT_FALSE(x.empty());
  }
}

TEST(FuzzCorpus, RunnerRecordsCrashFindings) {
  // The runner must convert a decoder exception into a finding (with a repro
  // file) rather than letting it escape. No in-tree decoder throws on
  // arbitrary bytes — that is the whole point of the suite — so use the
  // runner's own RunOne with a poisoned input by feeding a corpus dir that
  // doesn't exist (no findings, zero inputs) and then checking the Finding
  // plumbing via Summary on a synthetic result.
  rft::CorpusRunner::Config cfg;
  rft::CorpusRunner runner(cfg);
  const auto empty = runner.RunDirectory(rft::FindFuzzTarget("phyzigbee"),
                                         "/nonexistent/corpus/dir");
  EXPECT_EQ(empty.inputs_run, 0u);
  EXPECT_TRUE(empty.ok());

  rft::CorpusRunner::Result synthetic;
  synthetic.findings.push_back(
      {"phyzigbee", "crash", "input-7", "std::bad_alloc", ""});
  EXPECT_FALSE(synthetic.ok());
  const auto summary = synthetic.Summary("phyzigbee");
  EXPECT_NE(summary.find("crash"), std::string::npos);
  EXPECT_NE(summary.find("input-7"), std::string::npos);
}

}  // namespace
