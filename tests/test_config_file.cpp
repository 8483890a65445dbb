// ConfigFile: INI-subset parsing, parameterized sections, typed getters,
// environment overrides and error collection (DESIGN.md section 8).

#include <cstdlib>

#include <gtest/gtest.h>

#include "dhl/common/config_file.hpp"

namespace dhl::common {
namespace {

constexpr const char* kSample = R"(
# full-line comment
[daemon]
socket = /tmp/x.sock        ; trailing comment
tick_us = 50

[runtime]
ibq_size = 8192
crc_check = true
dispatch_policy = numa_local

[tenant alpha]
outstanding_bytes_cap = 0

[tenant bravo]
outstanding_bytes_cap = 16384
max_batches_in_flight = 2
slo_p99_us = 120.5
)";

TEST(ConfigFile, ParsesSectionsAndValues) {
  ConfigFile f;
  f.load_string(kSample);
  EXPECT_TRUE(f.errors().empty());
  ASSERT_EQ(f.sections().size(), 4u);
  EXPECT_EQ(f.get_string("daemon", "socket"), "/tmp/x.sock");
  EXPECT_EQ(f.get_int("daemon", "tick_us"), 50);
  EXPECT_EQ(f.get_uint("runtime", "ibq_size"), 8192u);
  EXPECT_TRUE(f.get_bool("runtime", "crc_check"));
  EXPECT_EQ(f.get_string("runtime", "dispatch_policy"), "numa_local");
}

TEST(ConfigFile, ParameterizedSectionsScopeByArg) {
  ConfigFile f;
  f.load_string(kSample);
  const auto* bravo = f.section("tenant", "bravo");
  ASSERT_NE(bravo, nullptr);
  EXPECT_EQ(bravo->arg, "bravo");
  EXPECT_EQ(f.get_uint("tenant bravo", "outstanding_bytes_cap"), 16384u);
  EXPECT_EQ(f.get_uint("tenant alpha", "outstanding_bytes_cap"), 0u);
  EXPECT_DOUBLE_EQ(f.get_double("tenant bravo", "slo_p99_us"), 120.5);
  EXPECT_EQ(f.sections_named("tenant").size(), 2u);
  EXPECT_EQ(f.section("tenant", "charlie"), nullptr);
}

TEST(ConfigFile, FallbacksForAbsentKeys) {
  ConfigFile f;
  f.load_string(kSample);
  EXPECT_EQ(f.get_string("daemon", "missing", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("daemon", "missing", -7), -7);
  EXPECT_FALSE(f.get_bool("nosuch", "key", false));
  EXPECT_FALSE(f.raw("daemon", "missing").has_value());
  EXPECT_TRUE(f.raw("daemon", "socket").has_value());
}

TEST(ConfigFile, BoolSpellings) {
  ConfigFile f;
  f.load_string("[s]\na = yes\nb = Off\nc = 1\nd = FALSE\n");
  EXPECT_TRUE(f.get_bool("s", "a"));
  EXPECT_FALSE(f.get_bool("s", "b", true));
  EXPECT_TRUE(f.get_bool("s", "c"));
  EXPECT_FALSE(f.get_bool("s", "d", true));
}

TEST(ConfigFile, UnparseableValueFallsBackAndRecordsError) {
  ConfigFile f;
  f.load_string("[s]\nn = not-a-number\n");
  EXPECT_EQ(f.get_int("s", "n", 42), 42);
  EXPECT_FALSE(f.errors().empty());
}

TEST(ConfigFile, SyntaxProblemsCollectedNotThrown) {
  ConfigFile f;
  f.load_string("key-before-section = 1\n[ok]\ngood = 2\nno equals here\n");
  EXPECT_FALSE(f.errors().empty());
  EXPECT_EQ(f.get_int("ok", "good"), 2);  // the valid part still loads
}

TEST(ConfigFile, EnvOverrideBeatsFile) {
  ConfigFile f;
  f.load_string(kSample);
  const std::string var = ConfigFile::env_name("daemon", "tick_us");
  EXPECT_EQ(var, "DHL_DAEMON_TICK_US");
  ::setenv(var.c_str(), "99", 1);
  EXPECT_EQ(f.get_int("daemon", "tick_us"), 99);
  ::unsetenv(var.c_str());
  EXPECT_EQ(f.get_int("daemon", "tick_us"), 50);
}

TEST(ConfigFile, EnvOverrideParameterizedSection) {
  ConfigFile f;
  f.load_string(kSample);
  const std::string var =
      ConfigFile::env_name("tenant bravo", "outstanding_bytes_cap");
  EXPECT_EQ(var, "DHL_TENANT_BRAVO_OUTSTANDING_BYTES_CAP");
  ::setenv(var.c_str(), "4096", 1);
  EXPECT_EQ(f.get_uint("tenant bravo", "outstanding_bytes_cap"), 4096u);
  ::unsetenv(var.c_str());
}

TEST(ConfigFile, EnvOverrideSuppliesAbsentKey) {
  ConfigFile f;
  f.load_string("[daemon]\nsocket = /tmp/x\n");
  ::setenv("DHL_DAEMON_NUM_FPGAS", "3", 1);
  EXPECT_EQ(f.get_int("daemon", "num_fpgas", 1), 3);
  ::unsetenv("DHL_DAEMON_NUM_FPGAS");
  EXPECT_EQ(f.get_int("daemon", "num_fpgas", 1), 1);
}

TEST(ConfigFile, LoadFileMissingReturnsFalse) {
  ConfigFile f;
  EXPECT_FALSE(f.load_file("/nonexistent/dhl-test.conf"));
}

}  // namespace
}  // namespace dhl::common
