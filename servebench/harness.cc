#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>
#include <unordered_set>

namespace servebench {

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

tpa::StatusOr<double> Percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    return tpa::InvalidArgumentError("percentile must lie in (0, 1)");
  }
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  if (beyond + 1e-9 < 10.0) {
    return tpa::InvalidArgumentError(
        "too few samples: " + std::to_string(samples.size()) +
        " leave fewer than 10 beyond the percentile");
  }
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

tpa::StatusOr<double> SegmentedPercentile(const std::vector<double>& samples,
                                          double q, size_t min_segment) {
  const size_t segments = std::max<size_t>(1, samples.size() / min_segment);
  std::vector<double> per_segment;
  for (size_t s = 0; s < segments; ++s) {
    const size_t lo = samples.size() * s / segments;
    const size_t hi = samples.size() * (s + 1) / segments;
    auto p = Percentile(
        std::vector<double>(samples.begin() + lo, samples.begin() + hi), q);
    if (!p.ok()) return p.status();
    per_segment.push_back(*p);
  }
  return Median(per_segment);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

std::vector<std::pair<tpa::NodeId, tpa::NodeId>> RmatEdges(uint32_t scale,
                                                           uint64_t draws,
                                                           uint64_t seed) {
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  tpa::Rng rng(seed);
  std::vector<std::pair<tpa::NodeId, tpa::NodeId>> edges(draws);
  for (auto& [u, v] : edges) {
    u = 0;
    v = 0;
    for (uint32_t bit = scale; bit-- > 0;) {
      const double p = rng.NextDouble();
      if (p < kA) continue;
      if (p < kA + kB) {
        v |= tpa::NodeId{1} << bit;
      } else if (p < kA + kB + kC) {
        u |= tpa::NodeId{1} << bit;
      } else {
        u |= tpa::NodeId{1} << bit;
        v |= tpa::NodeId{1} << bit;
      }
    }
  }
  return edges;
}

namespace {

/// A seeded Fisher–Yates shuffle of `items`.
std::vector<tpa::NodeId> Shuffled(std::vector<tpa::NodeId> items,
                                  tpa::Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
  return items;
}

}  // namespace

std::vector<tpa::NodeId> NodesWithOutEdges(
    const std::vector<std::pair<tpa::NodeId, tpa::NodeId>>& edges,
    tpa::NodeId n) {
  std::vector<bool> has(n, false);
  for (const auto& [u, v] : edges) {
    if (u != v) has[u] = true;
  }
  std::vector<tpa::NodeId> out;
  for (tpa::NodeId v = 0; v < n; ++v) {
    if (has[v]) out.push_back(v);
  }
  return out;
}

std::vector<tpa::NodeId> UniformDistinctSeeds(
    const std::vector<tpa::NodeId>& population, size_t count, uint64_t seed) {
  tpa::Rng rng(seed);
  std::vector<tpa::NodeId> stream;
  stream.reserve(count);
  while (stream.size() < count) {
    const std::vector<tpa::NodeId> perm = Shuffled(population, rng);
    const size_t take = std::min<size_t>(perm.size(), count - stream.size());
    stream.insert(stream.end(), perm.begin(), perm.begin() + take);
  }
  return stream;
}

ZipfSampler::ZipfSampler(const std::vector<tpa::NodeId>& population,
                         double exponent, uint64_t seed)
    : cdf_(population.size()) {
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  tpa::Rng rng(seed);
  rank_to_node_ = Shuffled(population, rng);
}

tpa::NodeId ZipfSampler::Sample(tpa::Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_to_node_[std::min(rank, cdf_.size() - 1)];
}

std::vector<tpa::NodeId> ZipfSampler::Stream(size_t count,
                                             uint64_t seed) const {
  tpa::Rng rng(seed);
  std::vector<tpa::NodeId> stream(count);
  for (tpa::NodeId& s : stream) s = Sample(rng);
  return stream;
}

double RepeatShare(const std::vector<tpa::NodeId>& stream) {
  if (stream.empty()) return 0.0;
  std::unordered_set<tpa::NodeId> seen;
  size_t repeats = 0;
  for (tpa::NodeId s : stream) repeats += !seen.insert(s).second;
  return static_cast<double>(repeats) / static_cast<double>(stream.size());
}

OpenLoop::OpenLoop(size_t count, double rate_per_second)
    : rate_(rate_per_second),
      due_ns_(count),
      sent_ns_(count),
      done_ns_(new std::atomic<int64_t>[count]) {
  for (size_t i = 0; i < count; ++i) done_ns_[i].store(0);
}

void OpenLoop::Run(const std::function<void(size_t)>& submit) {
  const int64_t start = NowNs();
  const double period_ns = 1e9 / rate_;
  for (size_t i = 0; i < due_ns_.size(); ++i) {
    due_ns_[i] =
        start + static_cast<int64_t>(period_ns * static_cast<double>(i));
    int64_t now = NowNs();
    if (now < due_ns_[i]) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns_[i] - now));
      now = NowNs();
    }
    sent_ns_[i] = now;
    submit(i);
  }
}

std::vector<double> OpenLoop::LatenciesMs() const {
  std::vector<double> out(due_ns_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(done_ns_[i].load(std::memory_order_acquire) -
                                 due_ns_[i]) /
             1e6;
  }
  return out;
}

std::vector<double> OpenLoop::LagsMs() const {
  std::vector<double> out(due_ns_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(sent_ns_[i] - due_ns_[i]) / 1e6;
  }
  return out;
}

uint64_t SpanRecorder::Add(std::string name, uint64_t parent, uint64_t trace,
                           int64_t start_ns, int64_t end_ns, uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NewSpanId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), id, parent, trace, start_ns, end_ns});
  return id;
}

double SpanRecorder::Time(const char* name, uint64_t parent, uint64_t trace,
                          const std::function<void()>& fn,
                          uint64_t* span_id) {
  // The id is reserved up front so spans opened inside `fn` can name this
  // one as their parent.
  const uint64_t id = NewSpanId();
  if (span_id != nullptr) *span_id = id;
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  Add(name, parent, trace, start, end, id);
  return static_cast<double>(end - start) / 1e9;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

tpa::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return tpa::InternalError("cannot open " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"trace\": " << s.trace
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  out.close();
  if (!out) return tpa::InternalError("short write to " + path);
  return tpa::OkStatus();
}

}  // namespace servebench
