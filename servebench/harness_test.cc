#include "harness.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace servebench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(PercentileTest, P99RefusedBelowOneThousandSamples) {
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).ok());
  auto p99 = Percentile(OneTo(1000), 0.99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(*p99, 990.0);  // nearest rank: 10 samples lie beyond it
}

TEST(PercentileTest, P50NeedsTwentySamples) {
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).ok());
  auto p50 = Percentile(OneTo(20), 0.5);
  ASSERT_TRUE(p50.ok());
  EXPECT_EQ(*p50, 10.0);
  EXPECT_FALSE(Percentile(OneTo(100), 1.0).ok());
}

TEST(PercentileTest, SegmentedP99IgnoresABurstInOneSegment) {
  std::vector<double> samples(3000, 1.0);
  // A 40-request burst (1.3% of all, 4% of one segment) sets the overall
  // p99 but only one segment's.
  for (size_t i = 1500; i < 1540; ++i) samples[i] = 100.0;
  EXPECT_EQ(*Percentile(samples, 0.99), 100.0);
  auto robust = SegmentedPercentile(samples, 0.99, 1000);
  ASSERT_TRUE(robust.ok());
  EXPECT_EQ(*robust, 1.0);
  // Too few samples for even one segment: refused like Percentile.
  EXPECT_FALSE(SegmentedPercentile(OneTo(999), 0.99, 1000).ok());
  EXPECT_EQ(*SegmentedPercentile(OneTo(1500), 0.99, 1000),
            *Percentile(OneTo(1500), 0.99));
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

/// A one-worker FIFO server: completes requests in arrival order, sleeping
/// `stall` before serving request `stall_at`.
class FakeServer {
 public:
  FakeServer(OpenLoop& loop, size_t stall_at, std::chrono::milliseconds stall)
      : loop_(loop), stall_at_(stall_at), stall_(stall) {
    worker_ = std::thread([this] { Serve(); });
  }
  ~FakeServer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
  void Submit(size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(i);
    }
    cv_.notify_all();
  }

 private:
  void Serve() {
    for (;;) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        i = queue_.front();
        queue_.pop_front();
      }
      if (i == stall_at_) std::this_thread::sleep_for(stall_);
      loop_.Complete(i);
    }
  }

  OpenLoop& loop_;
  size_t stall_at_;
  std::chrono::milliseconds stall_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<size_t> queue_;
  bool stop_ = false;
  std::thread worker_;
};

constexpr size_t kRequests = 40;
constexpr double kRate = 1000.0;  // one request due every millisecond
constexpr size_t kStallAt = 10;
constexpr double kStallMs = 50.0;

TEST(OpenLoopTest, ServerStallShowsOnRequestsQueuedBehindIt) {
  OpenLoop loop(kRequests, kRate);
  {
    FakeServer server(loop, kStallAt, std::chrono::milliseconds(50));
    loop.Run([&](size_t i) { server.Submit(i); });
  }  // joins the worker: every request has completed
  const std::vector<double> latency = loop.LatenciesMs();
  // Request i > kStallAt cannot finish before request kStallAt's due time
  // plus the stall, i.e. kStallMs - (i - kStallAt) ms after its own due
  // time.
  for (size_t i = kStallAt + 1; i < kRequests; ++i) {
    EXPECT_GE(latency[i] + 0.5, kStallMs - static_cast<double>(i - kStallAt))
        << "request " << i;
  }
}

TEST(OpenLoopTest, GeneratorStallCountsFromDueTimeNotSendTime) {
  OpenLoop loop(kRequests, kRate);
  loop.Run([&](size_t i) {
    // A submit that blocks (e.g. on a full admission queue) delays every
    // later send; the requests themselves complete instantly.
    if (i == kStallAt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    loop.Complete(i);
  });
  const std::vector<double> latency = loop.LatenciesMs();
  const std::vector<double> lag = loop.LagsMs();
  for (size_t i = kStallAt + 1; i < kRequests; ++i) {
    const double floor = kStallMs - static_cast<double>(i - kStallAt);
    EXPECT_GE(latency[i] + 0.5, floor) << "request " << i;
    EXPECT_GE(lag[i] + 0.5, floor) << "request " << i;
    // Timed from the send, the same request would look instantaneous.
    const double from_send =
        static_cast<double>(loop.done_ns(i) - loop.sent_ns(i)) / 1e6;
    EXPECT_LT(from_send, latency[i]);
  }
}

TEST(DeterminismTest, EdgesFollowTheSeed) {
  const auto a = RmatEdges(12, 5000, 7);
  EXPECT_EQ(a, RmatEdges(12, 5000, 7));
  EXPECT_NE(a, RmatEdges(12, 5000, 8));
  for (const auto& [u, v] : a) {
    EXPECT_LT(u, 1u << 12);
    EXPECT_LT(v, 1u << 12);
  }
}

std::vector<tpa::NodeId> Iota(tpa::NodeId n) {
  std::vector<tpa::NodeId> v(n);
  for (tpa::NodeId i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(DeterminismTest, SeedStreamsFollowTheSeed) {
  const auto uniform = UniformDistinctSeeds(Iota(1000), 1000, 3);
  EXPECT_EQ(uniform, UniformDistinctSeeds(Iota(1000), 1000, 3));
  EXPECT_NE(uniform, UniformDistinctSeeds(Iota(1000), 1000, 4));
  EXPECT_EQ(RepeatShare(uniform), 0.0);  // distinct until the nodes run out
  EXPECT_GT(RepeatShare(UniformDistinctSeeds(Iota(1000), 1500, 3)), 0.0);

  const ZipfSampler zipf(Iota(1000), 1.0, 5);
  EXPECT_EQ(zipf.Stream(500, 9),
            ZipfSampler(Iota(1000), 1.0, 5).Stream(500, 9));
  EXPECT_NE(zipf.Stream(500, 9), zipf.Stream(500, 10));
  EXPECT_NE(zipf.NodeOfRank(0), ZipfSampler(Iota(1000), 1.0, 6).NodeOfRank(0));
}

TEST(SeedPopulationTest, OnlyNodesWithOutEdgesAreDrawn) {
  // Node 0 has only a self-loop, node 3 only in-edges, node 4 nothing.
  const std::vector<std::pair<tpa::NodeId, tpa::NodeId>> edges = {
      {0, 0}, {1, 3}, {2, 3}, {1, 2}};
  const std::vector<tpa::NodeId> population = NodesWithOutEdges(edges, 5);
  EXPECT_EQ(population, (std::vector<tpa::NodeId>{1, 2}));
  for (tpa::NodeId s : UniformDistinctSeeds(population, 10, 1)) {
    EXPECT_TRUE(s == 1 || s == 2);
  }
  for (tpa::NodeId s : ZipfSampler(population, 1.0, 2).Stream(100, 3)) {
    EXPECT_TRUE(s == 1 || s == 2);
  }
}

TEST(ZipfSamplerTest, FrequenciesFollowTheRankLaw) {
  constexpr tpa::NodeId kN = 1000;
  constexpr size_t kDraws = 200000;
  const ZipfSampler zipf(Iota(kN), 1.0, 11);
  std::vector<size_t> count(kN, 0);
  for (tpa::NodeId s : zipf.Stream(kDraws, 12)) {
    ASSERT_LT(s, kN);
    ++count[s];
  }
  double harmonic = 0.0;
  for (tpa::NodeId r = 1; r <= kN; ++r) harmonic += 1.0 / r;
  const double top = static_cast<double>(count[zipf.NodeOfRank(0)]) / kDraws;
  EXPECT_NEAR(top, 1.0 / harmonic, 0.05 / harmonic);
  // P(rank 1) / P(rank 2) = 2^s.
  const double ratio = static_cast<double>(count[zipf.NodeOfRank(0)]) /
                       static_cast<double>(count[zipf.NodeOfRank(1)]);
  EXPECT_NEAR(ratio, 2.0, 0.2);
  // The tail is reached: rank 500 has probability ~1/(500 H) ≈ 0.03%.
  EXPECT_GT(count[zipf.NodeOfRank(499)], 0u);
}

TEST(RepeatShareTest, CountsLaterOccurrences) {
  EXPECT_DOUBLE_EQ(RepeatShare({1, 2, 1, 3, 2}), 0.4);
  EXPECT_EQ(RepeatShare({}), 0.0);
}

TEST(SpanRecorderTest, RecordsParentsAndTraces) {
  SpanRecorder spans(true);
  const uint64_t trace = spans.NewTrace();
  uint64_t parent = 0, child = 0;
  spans.Time("outer", 0, trace, [&] {
    child = spans.Add("inner", parent, trace, NowNs(), NowNs());
  }, &parent);
  EXPECT_NE(parent, 0u);
  EXPECT_NE(child, parent);
  EXPECT_EQ(spans.size(), 2u);

  SpanRecorder off(false);
  EXPECT_GE(off.Time("x", 0, off.NewTrace(), [] {}), 0.0);
  EXPECT_EQ(off.size(), 0u);
}

}  // namespace
}  // namespace servebench
