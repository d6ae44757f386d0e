#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

// The benchmark's own machinery, kept apart from the workloads in
// servebench.cc so it can be unit-tested: the percentile rule, the open-loop
// schedule, the seeded input generators, and the in-memory span recorder.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"
#include "util/status.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process (a common origin for
/// every timestamp the benchmark records).
int64_t NowNs();

/// Nearest-rank percentile `q` (in (0, 1)) of `samples`.  Refused with
/// INVALID_ARGUMENT unless at least ten samples lie beyond it — p99 needs
/// 1000 samples, p50 needs 20 — so a reported tail is never one outlier.
tpa::StatusOr<double> Percentile(std::vector<double> samples, double q);

/// Percentile `q` of each run of consecutive samples — as many equal runs
/// of at least `min_segment` samples as fit — and the median of those.  A
/// burst of interference from outside the process inflates the tail of
/// the segment it falls in, not the result.  Same refusal rule as
/// Percentile, applied per segment.
tpa::StatusOr<double> SegmentedPercentile(const std::vector<double>& samples,
                                          double q, size_t min_segment);

/// Plain median (no sample-count rule); 0 for an empty vector.
double Median(std::vector<double> samples);

/// The R-MAT draw sequence for `draws` edges over 2^scale nodes with the
/// usual (0.57, 0.19, 0.19) quadrant split.  Same seed, same edges.
std::vector<std::pair<tpa::NodeId, tpa::NodeId>> RmatEdges(uint32_t scale,
                                                           uint64_t draws,
                                                           uint64_t seed);

/// The query-seed population: nodes with at least one out-edge other than
/// a self-loop, in id order.  On R-MAT about 46% of nodes have none; their
/// RWR is trivially the restart vector, so serving them measures nothing
/// and — at that share — puts the median latency on the boundary between a
/// trivial mode and a real one.
std::vector<tpa::NodeId> NodesWithOutEdges(
    const std::vector<std::pair<tpa::NodeId, tpa::NodeId>>& edges,
    tpa::NodeId n);

/// `count` query seeds drawn uniformly without replacement from
/// `population` (wrapping to a fresh permutation if count exceeds it).
std::vector<tpa::NodeId> UniformDistinctSeeds(
    const std::vector<tpa::NodeId>& population, size_t count, uint64_t seed);

/// Zipf(s) over a population: rank r (1-based) is drawn with probability
/// ∝ 1 / r^s.  Ranks map to members through a seeded permutation, so the
/// hot seeds are arbitrary nodes rather than the lowest ids.
class ZipfSampler {
 public:
  ZipfSampler(const std::vector<tpa::NodeId>& population, double exponent,
              uint64_t seed);

  /// Node id of rank r (0-based), for tests.
  tpa::NodeId NodeOfRank(size_t rank) const { return rank_to_node_[rank]; }
  tpa::NodeId Sample(tpa::Rng& rng) const;
  std::vector<tpa::NodeId> Stream(size_t count, uint64_t seed) const;

 private:
  std::vector<double> cdf_;
  std::vector<tpa::NodeId> rank_to_node_;
};

/// Share of a seed stream's entries whose seed already occurred earlier.
double RepeatShare(const std::vector<tpa::NodeId>& stream);

/// Open-loop load generator: request i is due at start + i / rate,
/// regardless of how earlier requests fared.  Latency counts from the due
/// time, so a stall — in the system or in the generator's own submit call —
/// shows up on every request queued behind it instead of vanishing from
/// the sample (coordinated omission).
class OpenLoop {
 public:
  OpenLoop(size_t count, double rate_per_second);

  /// Runs the schedule on the calling thread: waits until each request's
  /// due time (not at all when already late), records the send time, and
  /// calls `submit(i)`.  `submit` must arrange for Complete(i) to be called
  /// exactly once, from any thread.
  void Run(const std::function<void(size_t)>& submit);

  void Complete(size_t i) {
    done_ns_[i].store(NowNs(), std::memory_order_release);
  }

  /// done − due per request, in ms.  Call after every request completed.
  std::vector<double> LatenciesMs() const;
  /// sent − due per request, in ms: how late the generator ran.
  std::vector<double> LagsMs() const;
  int64_t due_ns(size_t i) const { return due_ns_[i]; }
  int64_t sent_ns(size_t i) const { return sent_ns_[i]; }
  int64_t done_ns(size_t i) const { return done_ns_[i].load(); }

 private:
  double rate_;
  std::vector<int64_t> due_ns_;
  std::vector<int64_t> sent_ns_;
  std::unique_ptr<std::atomic<int64_t>[]> done_ns_;
};

/// One timed interval.  Spans of one request share `trace`; `parent` is the
/// span that caused this one (0 for a root).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store, written out once at the end of a run.  A disabled
/// recorder records nothing and hands out id 0, so the untraced run pays
/// one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// A fresh trace id (one per request or per setup pass).
  uint64_t NewTrace() { return enabled_ ? next_trace_++ : 0; }
  /// Reserves a span id, for a parent recorded after its children.
  uint64_t NewSpanId() { return enabled_ ? next_span_++ : 0; }
  /// Records a finished span and returns its id (`id` 0 takes a fresh one).
  uint64_t Add(std::string name, uint64_t parent, uint64_t trace,
               int64_t start_ns, int64_t end_ns, uint64_t id = 0);
  /// Runs `fn` inside a span whose id is stored to `*span_id` before `fn`
  /// starts; returns fn's wall time in seconds whether or not recording is
  /// enabled.
  double Time(const char* name, uint64_t parent, uint64_t trace,
              const std::function<void()>& fn, uint64_t* span_id = nullptr);

  size_t size() const;
  /// One JSON object per line.
  tpa::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
