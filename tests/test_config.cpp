/**
 * @file
 * Unit tests for SimConfig.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "sim/config.hpp"
#include "sim/log.hpp"

namespace footprint {
namespace {

TEST(SimConfig, SetAndGetString)
{
    SimConfig cfg;
    cfg.set("routing", "footprint");
    EXPECT_EQ(cfg.getStr("routing"), "footprint");
}

TEST(SimConfig, SetAndGetInt)
{
    SimConfig cfg;
    cfg.setInt("num_vcs", 10);
    EXPECT_EQ(cfg.getInt("num_vcs"), 10);
}

TEST(SimConfig, SetAndGetNegativeInt)
{
    SimConfig cfg;
    cfg.setInt("x", -42);
    EXPECT_EQ(cfg.getInt("x"), -42);
}

TEST(SimConfig, SetAndGetDoubleRoundTrips)
{
    SimConfig cfg;
    cfg.setDouble("rate", 0.123456789012345);
    EXPECT_DOUBLE_EQ(cfg.getDouble("rate"), 0.123456789012345);
}

TEST(SimConfig, SetAndGetBool)
{
    SimConfig cfg;
    cfg.setBool("flag", true);
    EXPECT_TRUE(cfg.getBool("flag"));
    cfg.setBool("flag", false);
    EXPECT_FALSE(cfg.getBool("flag"));
}

TEST(SimConfig, BoolAcceptsNumericForms)
{
    SimConfig cfg;
    cfg.set("a", "1");
    cfg.set("b", "0");
    EXPECT_TRUE(cfg.getBool("a"));
    EXPECT_FALSE(cfg.getBool("b"));
}

TEST(SimConfig, ContainsReflectsPresence)
{
    SimConfig cfg;
    EXPECT_FALSE(cfg.contains("nope"));
    cfg.set("nope", "yes");
    EXPECT_TRUE(cfg.contains("nope"));
}

TEST(SimConfig, OverrideReplacesValue)
{
    SimConfig cfg;
    cfg.setInt("x", 1);
    cfg.setInt("x", 2);
    EXPECT_EQ(cfg.getInt("x"), 2);
}

TEST(SimConfig, IntAsDoubleIsReadable)
{
    SimConfig cfg;
    cfg.setInt("x", 3);
    EXPECT_DOUBLE_EQ(cfg.getDouble("x"), 3.0);
}

TEST(SimConfig, ParseAssignmentValid)
{
    SimConfig cfg;
    EXPECT_TRUE(cfg.parseAssignment("traffic=shuffle"));
    EXPECT_EQ(cfg.getStr("traffic"), "shuffle");
}

TEST(SimConfig, ParseAssignmentWithEqualsInValue)
{
    SimConfig cfg;
    EXPECT_TRUE(cfg.parseAssignment("expr=a=b"));
    EXPECT_EQ(cfg.getStr("expr"), "a=b");
}

TEST(SimConfig, ParseAssignmentRejectsMalformed)
{
    SimConfig cfg;
    EXPECT_FALSE(cfg.parseAssignment("no-equals-here"));
    EXPECT_FALSE(cfg.parseAssignment("=leading"));
}

TEST(SimConfig, KeysAreSorted)
{
    SimConfig cfg;
    cfg.set("b", "1");
    cfg.set("a", "2");
    cfg.set("c", "3");
    const auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "b");
    EXPECT_EQ(keys[2], "c");
}

TEST(SimConfig, ToStringContainsAllEntries)
{
    SimConfig cfg;
    cfg.set("alpha", "1");
    cfg.set("beta", "two");
    const std::string s = cfg.toString();
    EXPECT_NE(s.find("alpha = 1"), std::string::npos);
    EXPECT_NE(s.find("beta = two"), std::string::npos);
}

TEST(SimConfig, MissingKeyIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(cfg.getStr("missing"), testing::ExitedWithCode(1),
                "config key not found");
}

TEST(SimConfig, MalformedIntIsFatal)
{
    SimConfig cfg;
    cfg.set("x", "abc");
    EXPECT_EXIT((void)cfg.getInt("x"), testing::ExitedWithCode(1),
                "not an integer");
}

TEST(SimConfig, MalformedBoolIsFatal)
{
    SimConfig cfg;
    cfg.set("x", "maybe");
    EXPECT_EXIT((void)cfg.getBool("x"), testing::ExitedWithCode(1),
                "not a bool");
}

class ConfigFileTest : public testing::Test
{
  protected:
    /**
     * Write @p contents to a file named after the running test: ctest
     * runs each case as its own process, so a shared name would race.
     */
    std::string
    writeFile(const std::string& contents)
    {
        const std::string name =
            testing::UnitTest::GetInstance()->current_test_info()->name();
        path_ = (std::filesystem::temp_directory_path()
                 / ("fp_config_" + name + ".cfg"))
                    .string();
        std::ofstream out(path_);
        out << contents;
        return path_;
    }

    void
    TearDown() override
    {
        if (!path_.empty())
            std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(ConfigFileTest, LoadsKeyValueLines)
{
    SimConfig cfg;
    cfg.loadFile(writeFile("routing = footprint\nnum_vcs=8\n"));
    EXPECT_EQ(cfg.getStr("routing"), "footprint");
    EXPECT_EQ(cfg.getInt("num_vcs"), 8);
}

TEST_F(ConfigFileTest, SkipsCommentsAndBlankLines)
{
    SimConfig cfg;
    cfg.loadFile(writeFile(
        "# a comment\n\nrouting = dbar   # trailing comment\n\n"));
    EXPECT_EQ(cfg.getStr("routing"), "dbar");
}

TEST_F(ConfigFileTest, TrimsWhitespaceAroundKeyAndValue)
{
    SimConfig cfg;
    cfg.loadFile(writeFile("   traffic   =   shuffle   \n"));
    EXPECT_EQ(cfg.getStr("traffic"), "shuffle");
}

TEST_F(ConfigFileTest, LaterOverridesWin)
{
    SimConfig cfg;
    cfg.setInt("num_vcs", 10);
    cfg.loadFile(writeFile("num_vcs = 4\n"));
    EXPECT_EQ(cfg.getInt("num_vcs"), 4);
    cfg.parseAssignment("num_vcs=16");
    EXPECT_EQ(cfg.getInt("num_vcs"), 16);
}

TEST_F(ConfigFileTest, MalformedLineIsFatal)
{
    SimConfig cfg;
    const std::string path = writeFile("this is not an assignment\n");
    EXPECT_EXIT(cfg.loadFile(path), testing::ExitedWithCode(1),
                "malformed config line 1");
}

TEST_F(ConfigFileTest, MissingFileIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(cfg.loadFile("/nonexistent/file.cfg"),
                testing::ExitedWithCode(1), "cannot open config");
}

TEST(ConfigFileExamples, ShippedConfigsLoad)
{
    // The example configs in examples/configs/ must stay loadable.
    for (const char* name :
         {"baseline.cfg", "hotspot.cfg", "transpose_16x16.cfg"}) {
        const std::string path =
            std::string(FP_SOURCE_DIR) + "/examples/configs/" + name;
        if (!std::filesystem::exists(path))
            GTEST_SKIP() << "source tree not available";
        SimConfig cfg = defaultConfig();
        cfg.loadFile(path);
        EXPECT_GE(cfg.getInt("mesh_width"), 4) << name;
        EXPECT_FALSE(cfg.getStr("routing").empty()) << name;
    }
}

TEST(UnknownKeys, DefaultConfigHasNone)
{
    EXPECT_TRUE(defaultConfig().unknownKeys().empty());
}

TEST(UnknownKeys, DetectsTypodSubsystemKey)
{
    SimConfig cfg = defaultConfig();
    cfg.set("timeseris_out", "x.jsonl");  // typo'd timeseries_out
    cfg.set("audit_intrval", "500");      // typo'd audit_interval
    const auto unknown = cfg.unknownKeys();
    ASSERT_EQ(unknown.size(), 2u);
    EXPECT_EQ(unknown[0], "audit_intrval");
    EXPECT_EQ(unknown[1], "timeseris_out");
}

TEST(UnknownKeys, WarnSuggestsClosestKnownKey)
{
    SimConfig cfg = defaultConfig();
    cfg.set("timeseris_out", "x.jsonl");
    std::ostringstream sink;
    setLogSink(&sink);
    const std::size_t n = cfg.warnUnknownKeys();
    setLogSink(nullptr);
    EXPECT_EQ(n, 1u);
    EXPECT_NE(sink.str().find("timeseris_out"), std::string::npos);
    EXPECT_NE(sink.str().find("did you mean 'timeseries_out'"),
              std::string::npos);
}

TEST(UnknownKeys, RemovedSamplerKeysWarn)
{
    // The periodic-sampler keys are gone (the flight recorder's
    // timeseries_* keys replace them): setting one must warn rather
    // than be silently ignored.
    for (const char* key :
         {"telemetry_out", "telemetry_format", "sample_interval",
          "telemetry_per_router", "heatmap_window"}) {
        EXPECT_FALSE(SimConfig::isKnownKey(key)) << key;
        SimConfig cfg = defaultConfig();
        EXPECT_FALSE(cfg.contains(key)) << key;
        cfg.set(key, "1");
        std::ostringstream sink;
        setLogSink(&sink);
        EXPECT_EQ(cfg.warnUnknownKeys(), 1u) << key;
        setLogSink(nullptr);
        EXPECT_NE(sink.str().find(std::string("unrecognized config key '")
                                  + key + "'"),
                  std::string::npos)
            << key;
    }
}

TEST(UnknownKeys, CleanConfigWarnsNothing)
{
    SimConfig cfg = defaultConfig();
    cfg.set("background_rate", "0.3");  // optional but recognized
    std::ostringstream sink;
    setLogSink(&sink);
    EXPECT_EQ(cfg.warnUnknownKeys(), 0u);
    setLogSink(nullptr);
    EXPECT_TRUE(sink.str().empty());
}

TEST(UnknownKeys, IsKnownKeyCoversNewAuditKeys)
{
    EXPECT_TRUE(SimConfig::isKnownKey("audit"));
    EXPECT_TRUE(SimConfig::isKnownKey("watchdog_interval"));
    EXPECT_TRUE(SimConfig::isKnownKey("chrome_trace_out"));
    EXPECT_FALSE(SimConfig::isKnownKey("watchdogg"));
}

TEST(UnknownKeys, RemovedShardPartitionWarns)
{
    // Shard bands follow measured time now (DESIGN.md §13), so the
    // static partition policy key is gone: setting it must warn
    // rather than be silently ignored.
    EXPECT_FALSE(SimConfig::isKnownKey("shard_partition"));
    SimConfig cfg = defaultConfig();
    EXPECT_FALSE(cfg.contains("shard_partition"));
    cfg.set("shard_partition", "weighted");
    std::ostringstream sink;
    setLogSink(&sink);
    EXPECT_EQ(cfg.warnUnknownKeys(), 1u);
    setLogSink(nullptr);
    EXPECT_NE(sink.str().find("unrecognized config key "
                              "'shard_partition'"),
              std::string::npos);
}

TEST(UnknownKeys, AcceptsTopologyAndShardKeys)
{
    // The topology-layer keys (DESIGN.md §18) and the shard keys must
    // be registered: selecting a topology, concentration,
    // per-dimension link latencies, or thread and shard counts may
    // not trip the unknown-key warning.
    SimConfig cfg = defaultConfig();
    cfg.set("topology", "torus");
    cfg.set("concentration", "4");
    cfg.set("link_latency_x", "2");
    cfg.set("link_latency_y", "3");
    cfg.set("link_latency_local", "1");
    cfg.set("threads", "4");
    cfg.set("shards", "8");
    std::ostringstream sink;
    setLogSink(&sink);
    EXPECT_EQ(cfg.warnUnknownKeys(), 0u);
    setLogSink(nullptr);
    EXPECT_TRUE(sink.str().empty());
    // ...and near-misses still get a suggestion.
    EXPECT_FALSE(SimConfig::isKnownKey("topolgy"));
    EXPECT_FALSE(SimConfig::isKnownKey("link_latency_z"));
}

TEST(DefaultConfig, TopologyDefaultsToUnconcentratedMesh)
{
    const SimConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.getStr("topology"), "mesh");
    EXPECT_EQ(cfg.getInt("concentration"), 1);
    EXPECT_EQ(cfg.getInt("threads"), 1);
    EXPECT_EQ(cfg.getInt("shards"), 0);
    // The per-dimension overrides are deliberately not defaulted:
    // Mesh::fromConfig falls back to link_latency when absent.
    EXPECT_FALSE(cfg.contains("link_latency_x"));
    EXPECT_FALSE(cfg.contains("link_latency_y"));
    EXPECT_FALSE(cfg.contains("link_latency_local"));
}

TEST(UnknownKeys, AcceptsProfilerAndHeatmapKeys)
{
    // The profile_* / heatmap_* observability keys (DESIGN.md §14)
    // must be registered: enabling them may not trip the
    // unknown-key warning.
    SimConfig cfg = defaultConfig();
    cfg.set("profile", "true");
    cfg.set("profile_out", "p.json");
    cfg.set("heatmap", "true");
    cfg.set("heatmap_out", "h.json");
    cfg.set("heatmap_sample_interval", "4");
    std::ostringstream sink;
    setLogSink(&sink);
    EXPECT_EQ(cfg.warnUnknownKeys(), 0u);
    setLogSink(nullptr);
    EXPECT_TRUE(sink.str().empty());
    // ...and a near-miss still gets a suggestion.
    EXPECT_FALSE(SimConfig::isKnownKey("heatmap_widow"));
}

TEST(DefaultConfig, ProfilerAndHeatmapDefaultOff)
{
    const SimConfig cfg = defaultConfig();
    EXPECT_FALSE(cfg.getBool("profile"));
    EXPECT_FALSE(cfg.getBool("heatmap"));
    EXPECT_EQ(cfg.getStr("profile_out"), "profile.json");
    EXPECT_EQ(cfg.getStr("heatmap_out"), "heatmap.json");
    EXPECT_EQ(cfg.getInt("heatmap_sample_interval"), 8);
}

TEST(DefaultConfig, MatchesTable2Baseline)
{
    const SimConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.getInt("mesh_width"), 8);
    EXPECT_EQ(cfg.getInt("mesh_height"), 8);
    EXPECT_EQ(cfg.getInt("num_vcs"), 10);
    EXPECT_EQ(cfg.getInt("vc_buf_size"), 4);
    EXPECT_EQ(cfg.getInt("internal_speedup"), 2);
    EXPECT_EQ(cfg.getStr("routing"), "footprint");
    EXPECT_EQ(cfg.getStr("packet_size"), "1");
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Read @p key through the getter its row's type names. */
void
readAsItsType(const SimConfig& cfg, const ConfigKey& row)
{
    const std::string key(row.key);
    switch (row.type) {
      case KeyType::Str: (void)cfg.getStr(key); break;
      case KeyType::Bool: (void)cfg.getBool(key); break;
      case KeyType::Int: (void)cfg.getInt(key); break;
      case KeyType::Real: (void)cfg.getDouble(key); break;
    }
}

TEST(ConfigTable, HoldsEachKnownKeyOnce)
{
    std::set<std::string_view> keys;
    std::set<std::string_view> optional;
    std::set<std::string_view> execution;
    for (const ConfigKey& row : configKeys()) {
        EXPECT_TRUE(keys.insert(row.key).second) << row.key;
        EXPECT_TRUE(SimConfig::isKnownKey(std::string(row.key)));
        EXPECT_EQ(findConfigKey(row.key), &row);
        if (row.def == nullptr)
            optional.insert(row.key);
        if (!row.identity)
            execution.insert(row.key);
    }
    EXPECT_EQ(keys.size(), 67u);
    EXPECT_EQ(findConfigKey("num_vc"), nullptr);
    // Absence means something for these: another key's value, a
    // trace to name, or a sweep axis that is the single run's value.
    EXPECT_EQ(optional,
              (std::set<std::string_view>{
                  "link_latency_x", "link_latency_y",
                  "link_latency_local", "trace_file", "trace_length",
                  "app", "app2", "sweep_routings", "sweep_meshes",
                  "sweep_traffics"}));
    // Only how the program runs stays out of the run identity.
    EXPECT_EQ(execution,
              (std::set<std::string_view>{"jobs", "bench_out", "console",
                                          "console_interval_ms"}));
}

TEST(ConfigTable, EveryDefaultReadsInItsOwnRange)
{
    // An unset key reads as its row's default through the row's
    // getter, and that default lies in the row's range.
    const SimConfig empty;
    const SimConfig defaults = defaultConfig();
    for (const ConfigKey& row : configKeys()) {
        const std::string key(row.key);
        if (row.def == nullptr) {
            EXPECT_FALSE(defaults.contains(key)) << key;
            continue;
        }
        EXPECT_EQ(empty.getStr(key), row.def) << key;
        EXPECT_EQ(defaults.getStr(key), row.def) << key;
        EXPECT_FALSE(empty.contains(key)) << key;
        readAsItsType(empty, row);
        const double v = row.type == KeyType::Int
            ? static_cast<double>(empty.getInt(key))
            : row.type == KeyType::Real ? empty.getDouble(key) : 0.0;
        if (row.type == KeyType::Int || row.type == KeyType::Real) {
            EXPECT_GE(v, row.min) << key;
            EXPECT_LE(v, row.max) << key;
        }
    }
    EXPECT_EQ(defaults.keys().size(), configKeys().size() - 10);
}

TEST(ConfigTable, OutOfRangeReadsAreFatal)
{
    // A ranged row accepts its bounds, and one past either bound ends
    // its getter in fatal: naming the key.
    std::size_t ranged = 0;
    for (const ConfigKey& row : configKeys()) {
        if (row.min == -kInf && row.max == kInf)
            continue;
        ++ranged;
        const std::string key(row.key);
        ASSERT_TRUE(row.type == KeyType::Int || row.type == KeyType::Real)
            << key;
        std::vector<std::pair<double, bool>> values;  // (value, legal)
        if (row.min != -kInf) {
            values.emplace_back(row.min, true);
            values.emplace_back(row.min - 1, false);
        }
        if (row.max != kInf) {
            values.emplace_back(row.max, true);
            values.emplace_back(row.max + 1, false);
        }
        for (const auto& [v, legal] : values) {
            SimConfig cfg;
            if (row.type == KeyType::Int)
                cfg.setInt(key, static_cast<std::int64_t>(v));
            else
                cfg.setDouble(key, v);
            if (legal) {
                if (row.type == KeyType::Int)
                    EXPECT_EQ(cfg.getInt(key), v) << key;
                else
                    EXPECT_EQ(cfg.getDouble(key), v) << key;
            } else {
                EXPECT_EXIT(readAsItsType(cfg, row),
                            testing::ExitedWithCode(1),
                            "fatal: " + key + " must be ")
                    << key << "=" << v;
            }
        }
    }
    EXPECT_GE(ranged, 19u);
}

TEST(ConfigTable, IntRowsNarrowedToIntStopAtIntMax)
{
    // These readers cast the value to an int: past INT_MAX it would
    // wrap (4294967298 read as 2), so the read must end in fatal:.
    for (const char* key :
         {"mesh_width", "mesh_height", "concentration", "internal_speedup",
          "link_latency", "link_latency_x", "link_latency_y",
          "link_latency_local", "output_fifo_size", "ejection_rate",
          "fp_vc_cap", "fp_converge_threshold", "congestion_threshold",
          "threads", "shards", "steady_windows", "console_interval_ms",
          "watchdog_max_hops", "sweep_seeds"}) {
        SimConfig cfg;
        cfg.set(key, "4294967298");
        EXPECT_EXIT((void)cfg.getInt(key), testing::ExitedWithCode(1),
                    std::string("fatal: ") + key
                        + " must be in \\[-?[0-9]+, 2147483647\\], got "
                          "4294967298")
            << key;
    }
}

TEST(ConfigTable, IntBeyondInt64IsFatal)
{
    // strtoll saturates; an unbounded int64 row must not read that as
    // INT64_MAX.
    SimConfig cfg;
    cfg.set("measure_cycles", "99999999999999999999");
    EXPECT_EXIT((void)cfg.getInt("measure_cycles"),
                testing::ExitedWithCode(1),
                "fatal: config key 'measure_cycles' is not an integer in "
                "the int64 range");
}

TEST(ConfigTable, GetterMustMatchTheRowType)
{
    // A reader using another getter than its row's type names is a
    // bug, not bad input: the getter panics.
    const SimConfig cfg = defaultConfig();
    EXPECT_THROW((void)cfg.getDouble("mesh_width"), InvariantError);
    EXPECT_THROW((void)cfg.getInt("injection_rate"), InvariantError);
    EXPECT_THROW((void)cfg.getBool("seed"), InvariantError);
    EXPECT_THROW((void)cfg.getInt("heatmap"), InvariantError);
    // A key outside the table has no type to check.
    SimConfig untyped;
    untyped.set("x", "3");
    EXPECT_EQ(untyped.getInt("x"), 3);
    EXPECT_DOUBLE_EQ(untyped.getDouble("x"), 3.0);
}

} // namespace
} // namespace footprint
