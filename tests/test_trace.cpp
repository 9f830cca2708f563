/**
 * @file
 * Unit tests for the trace format and the synthetic PARSEC-like trace
 * generator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "topo/mesh.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_gen.hpp"

namespace footprint {
namespace {

class TraceFileTest : public testing::Test
{
  protected:
    std::string
    tmpPath(const std::string& name)
    {
        const auto dir = std::filesystem::temp_directory_path();
        return (dir / ("fp_trace_test_" + name)).string();
    }

    void
    TearDown() override
    {
        for (const auto& p : created_)
            std::remove(p.c_str());
    }

    std::string
    makePath(const std::string& name)
    {
        const std::string p = tmpPath(name);
        created_.push_back(p);
        return p;
    }

  private:
    std::vector<std::string> created_;
};

TEST_F(TraceFileTest, WriteReadRoundTrip)
{
    const std::string path = makePath("roundtrip");
    {
        TraceWriter w(path);
        w.comment("test trace");
        w.append(TraceEvent{0, 1, 2, 3});
        w.append(TraceEvent{5, 4, 5, 1});
        w.append(TraceEvent{5, 6, 7, 2});
        EXPECT_EQ(w.eventCount(), 3u);
    }
    TraceReader r(path);
    const auto events = r.readAll();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0], (TraceEvent{0, 1, 2, 3}));
    EXPECT_EQ(events[1], (TraceEvent{5, 4, 5, 1}));
    EXPECT_EQ(events[2], (TraceEvent{5, 6, 7, 2}));
}

TEST_F(TraceFileTest, CommentsAndBlankLinesAreSkipped)
{
    const std::string path = makePath("comments");
    {
        // Fields may be tab-separated and '+'-signed; a CR before the
        // newline, like any text after the fourth field, is ignored.
        std::ofstream out(path);
        out << "# header\n\n10 1 2 1\n# middle\n11 3 4 2\n"
            << "12\t5\t6\t3\n13 7 8 4\r\n+14 +9 +10 +5 tail\n";
    }
    TraceReader r(path);
    const auto events = r.readAll();
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].cycle, 10);
    EXPECT_EQ(events[1].size, 2);
    EXPECT_EQ(events[2], (TraceEvent{12, 5, 6, 3}));
    EXPECT_EQ(events[3], (TraceEvent{13, 7, 8, 4}));
    EXPECT_EQ(events[4], (TraceEvent{14, 9, 10, 5}));
}

TEST_F(TraceFileTest, StreamingNextMatchesReadAll)
{
    const std::string path = makePath("streaming");
    {
        TraceWriter w(path);
        for (int i = 0; i < 10; ++i)
            w.append(TraceEvent{i, i % 4, (i + 1) % 4, 1});
    }
    TraceReader r(path);
    int count = 0;
    while (auto ev = r.next()) {
        EXPECT_EQ(ev->cycle, count);
        ++count;
    }
    EXPECT_EQ(count, 10);
}

TEST_F(TraceFileTest, UnsortedTraceIsFatal)
{
    const std::string path = makePath("unsorted");
    {
        std::ofstream out(path);
        out << "10 1 2 1\n5 1 2 1\n";
    }
    TraceReader r(path);
    (void)r.next();
    EXPECT_EXIT((void)r.next(), testing::ExitedWithCode(1),
                "not sorted");
}

TEST_F(TraceFileTest, MalformedLineIsFatal)
{
    const std::string path = makePath("malformed");
    {
        std::ofstream out(path);
        out << "10 1 junk\n";
    }
    TraceReader r(path);
    EXPECT_EXIT((void)r.next(), testing::ExitedWithCode(1),
                "malformed");
}

TEST_F(TraceFileTest, OutOfRangeNodeIsFatal)
{
    const std::string path = makePath("node_range");
    {
        std::ofstream out(path);
        out << "# header\n0 999 3 1\n";
    }
    TraceReader r(path, 64);
    EXPECT_EXIT((void)r.next(), testing::ExitedWithCode(1),
                "fatal: trace node id 999 outside \\[0, 64\\) at line 2 "
                "in .*node_range");
}

TEST_F(TraceFileTest, EmptyPacketIsFatal)
{
    const std::string path = makePath("empty_packet");
    {
        std::ofstream out(path);
        out << "0 1 3 0\n";
    }
    TraceReader r(path, 64);
    EXPECT_EXIT((void)r.next(), testing::ExitedWithCode(1),
                "fatal: trace packet size 0 below 1 at line 1 "
                "in .*empty_packet");
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_EXIT(TraceReader{"/nonexistent/trace.txt"},
                testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceGen, DeterministicForSeed)
{
    const Mesh mesh(8, 8);
    const AppProfile p = parsecProfile("fluidanimate");
    const auto a = generateTrace(mesh, p, 500, 42);
    const auto b = generateTrace(mesh, p, 500, 42);
    EXPECT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(TraceGen, DifferentSeedsDiffer)
{
    const Mesh mesh(8, 8);
    const AppProfile p = parsecProfile("fluidanimate");
    const auto a = generateTrace(mesh, p, 500, 1);
    const auto b = generateTrace(mesh, p, 500, 2);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = !(a[i] == b[i]);
    EXPECT_TRUE(differs);
}

TEST(TraceGen, EventsAreSortedAndValid)
{
    const Mesh mesh(8, 8);
    const AppProfile p = parsecProfile("canneal");
    const auto events = generateTrace(mesh, p, 1000, 7);
    ASSERT_FALSE(events.empty());
    std::int64_t last = -1;
    for (const auto& ev : events) {
        EXPECT_GE(ev.cycle, last);
        last = ev.cycle;
        EXPECT_GE(ev.src, 0);
        EXPECT_LT(ev.src, 64);
        EXPECT_GE(ev.dest, 0);
        EXPECT_LT(ev.dest, 64);
        EXPECT_NE(ev.src, ev.dest);
        EXPECT_GE(ev.size, p.minPacket);
        EXPECT_LE(ev.size, p.maxPacket);
    }
}

TEST(TraceGen, LoadTracksProfileIntensity)
{
    const Mesh mesh(8, 8);
    const auto light = generateTrace(
        mesh, parsecProfile("blackscholes"), 2000, 3);
    const auto heavy = generateTrace(
        mesh, parsecProfile("fluidanimate"), 2000, 3);
    EXPECT_GT(heavy.size(), 3 * light.size());
}

TEST(TraceGen, AllProfilesPresent)
{
    const auto profiles = parsecProfiles();
    EXPECT_EQ(profiles.size(), 10u);
    for (const auto& p : profiles) {
        EXPECT_GT(p.onLoad, 0.0);
        EXPECT_GE(p.sharedFraction, 0.0);
        EXPECT_LE(p.sharedFraction, 1.0);
        // Round-trip by name.
        EXPECT_EQ(parsecProfile(p.name).name, p.name);
    }
    EXPECT_EXIT((void)parsecProfile("doom"), testing::ExitedWithCode(1),
                "unknown PARSEC");
}

TEST(TraceGen, MergePreservesOrderAndCount)
{
    const Mesh mesh(4, 4);
    const auto a =
        generateTrace(mesh, parsecProfile("canneal"), 300, 1);
    const auto b =
        generateTrace(mesh, parsecProfile("x264"), 300, 2);
    const auto m = mergeTraces(a, b);
    EXPECT_EQ(m.size(), a.size() + b.size());
    std::int64_t last = -1;
    for (const auto& ev : m) {
        EXPECT_GE(ev.cycle, last);
        last = ev.cycle;
    }
}

TEST_F(TraceFileTest, WriteTraceFileProducesReadableTrace)
{
    const Mesh mesh(4, 4);
    const std::string path = makePath("gen");
    const auto count = writeTraceFile(
        path, mesh, parsecProfile("dedup"), 500, 11);
    TraceReader r(path);
    EXPECT_EQ(r.readAll().size(), count);
}

} // namespace
} // namespace footprint
