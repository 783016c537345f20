// Unit tests for the fault-injection registry itself: arming semantics
// (skip/count windows, re-arm resets, disarm), the generic enactments
// trigger() performs on behalf of every site (error/enospc throw, stall
// sleeps), the env-var grammar behind SZ14_FAILPOINTS, and the one real
// I/O site every other suite builds on — PreadFile's short/error read
// injection.  Crash kinds (abort) are exercised at process granularity by
// the recovery suite and CI, not here.
#include "common/failpoint.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/pread_file.hpp"

namespace sz14 {
namespace {

// Each test uses its own site names (and disarms on exit) so the global
// registry never leaks state between tests regardless of run order.
struct DisarmAll {
  ~DisarmAll() { fail::disarm_all(); }
};

TEST(Failpoint, UnarmedSiteIsSilent) {
  DisarmAll guard;
  EXPECT_FALSE(fail::check("fp.test.nothing").has_value());
  EXPECT_FALSE(fail::trigger("fp.test.nothing").has_value());
  EXPECT_EQ(fail::hits("fp.test.nothing"), 0u);
}

TEST(Failpoint, ErrorKindThrowsFromTrigger) {
  DisarmAll guard;
  fail::arm("fp.test.err", {fail::Kind::kError, 0, -1, 0});
  try {
    (void)fail::trigger("fp.test.err");
    FAIL() << "armed kError failpoint did not throw";
  } catch (const std::runtime_error& e) {
    // The message names the site so a surfaced injection is traceable.
    EXPECT_NE(std::string(e.what()).find("fp.test.err"), std::string::npos);
  }
  EXPECT_EQ(fail::hits("fp.test.err"), 1u);
}

TEST(Failpoint, SkipDelaysFiringAndCountBoundsIt) {
  DisarmAll guard;
  // Fire on triggers 3 and 4 only (skip 2, count 2), off afterwards.
  fail::arm("fp.test.window", {fail::Kind::kShort, 2, 2, 0});
  for (int i = 0; i < 2; ++i)
    EXPECT_FALSE(fail::trigger("fp.test.window").has_value())
        << "fired during skip window, trigger " << i;
  for (int i = 0; i < 2; ++i) {
    auto fired = fail::trigger("fp.test.window");
    ASSERT_TRUE(fired.has_value()) << "did not fire inside count window";
    EXPECT_EQ(fired->kind, fail::Kind::kShort);
  }
  EXPECT_FALSE(fail::trigger("fp.test.window").has_value())
      << "fired after count exhausted";
  EXPECT_EQ(fail::hits("fp.test.window"), 2u);
}

TEST(Failpoint, RearmResetsProgressAndDisarmStops) {
  DisarmAll guard;
  fail::arm("fp.test.rearm", {fail::Kind::kDrop, 0, 1, 0});
  EXPECT_TRUE(fail::trigger("fp.test.rearm").has_value());
  EXPECT_FALSE(fail::trigger("fp.test.rearm").has_value());  // count spent

  fail::arm("fp.test.rearm", {fail::Kind::kDrop, 0, 1, 0});  // fresh window
  EXPECT_TRUE(fail::trigger("fp.test.rearm").has_value());
  EXPECT_EQ(fail::hits("fp.test.rearm"), 2u) << "hits accumulate across arms";

  fail::arm("fp.test.rearm", {fail::Kind::kDrop, 0, -1, 0});
  fail::disarm("fp.test.rearm");
  EXPECT_FALSE(fail::trigger("fp.test.rearm").has_value());
}

TEST(Failpoint, StallSleepsThenContinues) {
  DisarmAll guard;
  fail::arm("fp.test.stall", {fail::Kind::kStall, 0, 1, 30});
  const auto t0 = std::chrono::steady_clock::now();
  // kStall is enacted inside trigger(): sleep, then behave as unarmed.
  EXPECT_FALSE(fail::trigger("fp.test.stall").has_value());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 25) << "stall did not sleep";
}

TEST(Failpoint, SiteSpecificKindsAreReturnedWithArg) {
  DisarmAll guard;
  fail::arm("fp.test.torn", {fail::Kind::kTorn, 0, -1, 7});
  auto fired = fail::trigger("fp.test.torn");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->kind, fail::Kind::kTorn);
  EXPECT_EQ(fired->arg, 7);
}

TEST(Failpoint, EnvGrammarParsesSkipCountArgAndMultipleSites) {
  DisarmAll guard;
  ASSERT_EQ(
      setenv("SZ14_FAILPOINTS", "fp.env.a=short:1:2;fp.env.b=stall:0:1:5", 1),
      0);
  fail::reload_from_env();
  unsetenv("SZ14_FAILPOINTS");

  EXPECT_FALSE(fail::trigger("fp.env.a").has_value());  // skip 1
  EXPECT_TRUE(fail::trigger("fp.env.a").has_value());
  EXPECT_TRUE(fail::trigger("fp.env.a").has_value());
  EXPECT_FALSE(fail::trigger("fp.env.a").has_value());  // count 2 spent
  EXPECT_FALSE(fail::trigger("fp.env.b").has_value());  // stall enacted
  EXPECT_EQ(fail::hits("fp.env.b"), 1u);
}

TEST(Failpoint, MalformedEnvEntriesAreSkippedNotFatal) {
  DisarmAll guard;
  // One bad entry (unknown kind) must not poison the good one after it.
  ASSERT_EQ(setenv("SZ14_FAILPOINTS", "fp.env.bad=frobnicate;fp.env.ok=drop",
                   1),
            0);
  fail::reload_from_env();
  unsetenv("SZ14_FAILPOINTS");

  EXPECT_FALSE(fail::trigger("fp.env.bad").has_value());
  EXPECT_TRUE(fail::trigger("fp.env.ok").has_value());
}

TEST(Failpoint, PreadFileShortAndErrorInjection) {
  DisarmAll guard;
  const std::string path = testing::TempDir() + "fp_pread_" +
                           std::to_string(::getpid()) + ".bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>(i * 131u);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  }

  PreadFile file(path);
  std::vector<std::uint8_t> buf(256);

  // Injected short read: read_at must refuse to return partial data.
  fail::arm("pread_file.read", {fail::Kind::kShort, 0, 1, 0});
  EXPECT_THROW(file.read_at(0, buf), std::runtime_error);

  // Injected EIO.
  fail::arm("pread_file.read", {fail::Kind::kError, 0, 1, 0});
  EXPECT_THROW(file.read_at(0, buf), std::runtime_error);

  // Once the injections are spent the same handle works again.
  file.read_at(128, buf);
  for (std::size_t i = 0; i < buf.size(); ++i)
    ASSERT_EQ(buf[i], static_cast<std::uint8_t>((128 + i) * 131u));

  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14
