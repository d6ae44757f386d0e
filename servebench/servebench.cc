// servebench: one serving benchmark of the TPA library, driven through its
// public API exactly as a user would drive it.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir DIR] [--commit SHA]
//
// One run: generate the workload's R-MAT edge list and query-seed stream
// from --seed; set the server up several times (build → preprocess →
// [save → load] → engine create) and keep the last; from one generator
// thread, warm up for seconds/8, drive a closed loop (fixed window of
// outstanding tickets) for seconds/2, then an open loop (the workload's
// fixed request count at its fixed rate, latency counted from each
// request's due time); check a fixed sample of served answers against the
// direct Tpa path and against exact RWR; print every metric by name and
// unit, and as the last line one JSON object
// {correct, attempted, failed, metrics}.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 additionally times
// each layer from the outside (spans around the calls into graph, core, la,
// engine, snapshot, and the out-of-core builder), keeps the spans in memory,
// writes them to DIR/trace-<workload>-seed<n>.jsonl at exit, and reports
// the per-layer metrics plus the tracing overhead.  Exits 1 when an answer
// check fails, 2 on bad arguments or a set-up error.

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cpi.h"
#include "core/tpa.h"
#include "engine/async_query_engine.h"
#include "engine/query_engine.h"
#include "graph/builder.h"
#include "graph/out_of_core.h"
#include "harness.h"
#include "method/tpa_method.h"
#include "snapshot/snapshot.h"
#include "util/cache_info.h"
#include "util/mem_stats.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

namespace fs = std::filesystem;
using tpa::NodeId;

/// One workload.  The open-loop rate is a fixed number, about half the
/// closed-loop throughput the workload reached when the benchmark was
/// defined, so the open loop measures latency below saturation; its
/// request count is fixed too (at least 1000, so p99 has ten samples
/// beyond it).
struct Workload {
  const char* name;
  uint32_t scale;
  uint64_t draws;
  /// topk-snapshot: OutOfCoreGraphBuilder → snapshot save/load → top-k
  /// serving with a byte-budgeted top-k cache and a Zipf seed stream.
  bool snapshot_path;
  double open_rate_qps;
  size_t open_requests;
  /// Set-up passes per run; setup_s is their median.
  int setups;
  /// Served seeds whose answers are checked (and scored for accuracy).
  size_t check_seeds;
};

constexpr Workload kWorkloads[] = {
    {"dense-llc", 17, 1500000, false, 185.0, 2500, 5, 32},
    // Runnable by name but left out of BENCHMARK.json: a run takes ~55 s
    // (1000 open-loop requests at 42/s alone take 24 s), and the three
    // workloads together overrun the time budget of the benchmark's runs.
    {"dense-dram", 19, 8000000, false, 42.0, 1000, 3, 8},
    {"topk-snapshot", 19, 8000000, true, 54.0, 1200, 3, 6},
};

constexpr int kTopK = 10;
/// Zipf exponent of the topk-snapshot seed stream: about a quarter of the
/// requests repeat an earlier seed over a run, so the cache matters while
/// the median request is still a miss (at an exponent near 1 the repeat
/// share nears one half and the median flips between hit and miss).
constexpr double kZipfExponent = 0.9;
constexpr size_t kCacheBytes = size_t{1} << 20;
/// Outstanding tickets in the closed loop: twice what four serving jobs of
/// eight seeds hold, so a queue is always waiting to be grouped.
constexpr size_t kClosedWindow = 64;
constexpr size_t kLayerSeeds = 32;
/// Added to TotalErrorBound when checking a dense answer against exact RWR
/// (the exact reference itself stops at ε = 1e-9).
constexpr double kL1Tolerance = 1e-6;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
} catch (const std::exception&) {  // a malformed number
  return false;
}

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!index_.count(name)) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  std::string Json(const std::vector<std::string>& names) const {
    std::string out = "{";
    for (const std::string& name : names) {
      const Entry& e = entries_[index_.at(name)];
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    out.size() > 1 ? ", " : "", e.name.c_str(),
                    std::isfinite(e.value) ? e.value : -1.0);
      out += buf;
      out += "\"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-26s %14.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

// The metrics of the result line, in BENCHMARK.json's order: end_to_end for
// the untraced run, per_layer for the traced one.
const std::vector<std::string> kEndToEnd = {
    "setup_s",     "throughput_qps", "latency_p50_ms", "latency_p99_ms",
    "peak_rss_mb", "l1_error",       "topk_precision"};

const std::vector<std::string> kPerLayer = {
    "graph.build_s",        "graph.csr_mb",
    "core.preprocess_s",    "core.query_ms",
    "core.family_ms",       "core.merge_ms",
    "core.topk_iterations", "la.spmvt_ns_per_edge",
    "la.spmvt_gbps",        "host.triad_gbps",
    "engine.create_s",      "engine.overhead_ms",
    "engine.mean_group_size", "engine.queue_depth_p99",
    "engine.cache_hit_ratio", "engine.cache_mb",
    "snapshot.save_s",      "snapshot.load_s",
    "snapshot.file_mb",     "ooc.spill_mb",
    "ooc.csr_file_mb",      "disk_mb",
    "gen.sched_lag_p99_ms", "trace.overhead_pct"};

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// The serving state of one set-up pass.  Member order is destruction
/// order in reverse: the engine (which borrows the graph and holds a copy
/// of the Tpa) dies first, then the direct Tpa, then the graph.
struct Server {
  std::unique_ptr<tpa::Graph> graph;                     // in-RAM build
  std::optional<tpa::snapshot::LoadedSnapshot> loaded;  // snapshot path
  std::unique_ptr<tpa::Tpa> tpa;  // in-RAM path: the direct reference
  std::unique_ptr<tpa::AsyncQueryEngine> engine;

  const tpa::Graph& serving_graph() const {
    return loaded ? *loaded->graph : *graph;
  }
  const tpa::Tpa& direct() const { return loaded ? *loaded->tpa : *tpa; }
};

struct SetupTimes {
  double total_s = 0, build_s = 0, preprocess_s = 0, save_s = 0, load_s = 0,
         create_s = 0;
  uint64_t spill_bytes = 0, csr_file_bytes = 0, snapshot_bytes = 0,
           disk_bytes = 0;
};

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void ClearDirectory(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

#define SB_ASSIGN_OR_FAIL(lhs, expr)                                       \
  auto lhs##_or = (expr);                                                  \
  if (!lhs##_or.ok()) {                                                    \
    std::fprintf(stderr, "servebench: %s: %s\n", #expr,                    \
                 lhs##_or.status().ToString().c_str());                    \
    return nullptr;                                                        \
  }                                                                        \
  auto lhs = std::move(lhs##_or).value()

#define SB_OK_OR_FAIL(expr)                                                \
  do {                                                                     \
    const tpa::Status sb_status = (expr);                                  \
    if (!sb_status.ok()) {                                                 \
      std::fprintf(stderr, "servebench: %s: %s\n", #expr,                  \
                   sb_status.ToString().c_str());                          \
      return nullptr;                                                      \
    }                                                                      \
  } while (false)

/// One set-up pass, timed from the generated edge list to an engine ready
/// to serve.  Returns null on error (reported on stderr).
std::unique_ptr<Server> SetUp(
    const Workload& w,
    const std::vector<std::pair<NodeId, NodeId>>& edges,
    const fs::path& work_dir, SpanRecorder& spans, SetupTimes& t) {
  const NodeId n = NodeId{1} << w.scale;
  const uint64_t trace = spans.NewTrace();
  uint64_t root = spans.NewSpanId();
  const int64_t start = NowNs();
  auto server = std::make_unique<Server>();

  if (!w.snapshot_path) {
    std::optional<tpa::StatusOr<tpa::Graph>> built;
    t.build_s = spans.Time("graph.GraphBuilder.Build", root, trace, [&] {
      tpa::GraphBuilder builder(n);
      builder.AddEdges(edges);
      built.emplace(builder.Build());
    });
    SB_ASSIGN_OR_FAIL(graph, std::move(*built));
    server->graph = std::make_unique<tpa::Graph>(std::move(graph));
    std::optional<tpa::StatusOr<tpa::Tpa>> pre;
    t.preprocess_s = spans.Time("core.Tpa.Preprocess", root, trace, [&] {
      pre.emplace(tpa::Tpa::Preprocess(*server->graph, tpa::TpaOptions{}));
    });
    SB_ASSIGN_OR_FAIL(preprocessed, std::move(*pre));
    server->tpa = std::make_unique<tpa::Tpa>(std::move(preprocessed));
    std::optional<tpa::StatusOr<std::unique_ptr<tpa::AsyncQueryEngine>>> eng;
    t.create_s = spans.Time("engine.AsyncQueryEngine.Create", root, trace, [&] {
      eng.emplace(tpa::AsyncQueryEngine::Create(
          *server->graph, std::make_unique<tpa::TpaMethod>(*server->tpa)));
    });
    SB_ASSIGN_OR_FAIL(engine, std::move(*eng));
    server->engine = std::move(engine);
  } else {
    const std::string csr_path = (work_dir / "graph.csr").string();
    const std::string snap_path = (work_dir / "state.tpasnap").string();
    std::optional<tpa::StatusOr<tpa::OutOfCoreGraph>> built;
    t.build_s =
        spans.Time("graph.OutOfCoreGraphBuilder.Build", root, trace, [&] {
          tpa::OutOfCoreOptions options;
          options.csr_path = csr_path;
          auto builder = tpa::OutOfCoreGraphBuilder::Create(n, options);
          if (!builder.ok()) {
            built.emplace(builder.status());
            return;
          }
          for (const auto& [u, v] : edges) {
            const tpa::Status s = builder->AddEdge(u, v);
            if (!s.ok()) {
              built.emplace(s);
              return;
            }
          }
          t.spill_bytes = builder->spilled_bytes();
          built.emplace(builder->Build());
        });
    SB_ASSIGN_OR_FAIL(ooc, std::move(*built));
    t.csr_file_bytes = ooc.file_bytes;
    {
      std::optional<tpa::StatusOr<tpa::Tpa>> pre;
      t.preprocess_s = spans.Time("core.Tpa.Preprocess", root, trace, [&] {
        pre.emplace(tpa::Tpa::Preprocess(*ooc.graph, tpa::TpaOptions{}));
      });
      SB_ASSIGN_OR_FAIL(preprocessed, std::move(*pre));
      tpa::Status saved;
      t.save_s = spans.Time("snapshot.Tpa.SaveSnapshot", root, trace, [&] {
        saved = preprocessed.SaveSnapshot(snap_path);
      });
      SB_OK_OR_FAIL(saved);
    }
    ooc = {};  // serving runs from the snapshot alone
    t.snapshot_bytes = fs::file_size(snap_path);
    std::optional<tpa::StatusOr<tpa::snapshot::LoadedSnapshot>> load;
    t.load_s = spans.Time("snapshot.Tpa.LoadSnapshot", root, trace, [&] {
      tpa::snapshot::LoadOptions options;
      options.mode = tpa::snapshot::LoadMode::kMap;
      options.verify = true;
      load.emplace(tpa::Tpa::LoadSnapshot(snap_path, options));
    });
    SB_ASSIGN_OR_FAIL(loaded, std::move(*load));
    server->loaded.emplace(std::move(loaded));
    std::optional<tpa::StatusOr<std::unique_ptr<tpa::AsyncQueryEngine>>> eng;
    t.create_s = spans.Time("engine.AsyncQueryEngine.Create", root, trace, [&] {
      tpa::QueryEngineOptions options;
      options.top_k = kTopK;
      options.cache_capacity_bytes = kCacheBytes;
      options.cache_topk_only = true;
      eng.emplace(tpa::AsyncQueryEngine::Create(
          *server->loaded->graph,
          std::make_unique<tpa::TpaMethod>(*server->loaded->tpa), options));
    });
    SB_ASSIGN_OR_FAIL(engine, std::move(*eng));
    server->engine = std::move(engine);
    t.disk_bytes = DirectoryBytes(work_dir);
  }
  t.total_s = static_cast<double>(NowNs() - start) / 1e9;
  spans.Add("setup", 0, trace, start, NowNs(), root);
  return server;
}

/// Hands out the workload's query seeds in stream order.
class SeedStream {
 public:
  explicit SeedStream(std::vector<NodeId> seeds) : seeds_(std::move(seeds)) {}
  NodeId Next() {
    const NodeId s = seeds_[pos_ % seeds_.size()];
    ++pos_;
    return s;
  }
  /// The prefix handed out so far (wrapping included).
  std::vector<NodeId> Served() const {
    std::vector<NodeId> out(pos_);
    for (size_t i = 0; i < pos_; ++i) out[i] = seeds_[i % seeds_.size()];
    return out;
  }

 private:
  std::vector<NodeId> seeds_;
  size_t pos_ = 0;
};

/// Counts outstanding tickets of one phase; callbacks release, the
/// generator waits.
class Outstanding {
 public:
  void Acquire(size_t window) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ < window; });
    ++count_;
  }
  void Release() {
    // Notify under the lock: once a drained generator can observe the
    // count, this object may be destroyed, so nothing may touch it after
    // the unlock.
    std::lock_guard<std::mutex> lock(mu_);
    --count_;
    cv_.notify_all();
  }
  void Drain() { Acquire(1), Release(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

struct RunCounters {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
};

/// Records the request's spans (trace mode): the root from `origin_ns`
/// (send time in the closed loop, due time in the open loop) to
/// completion, the Submit call, and the wait for the answer.
void RecordRequest(SpanRecorder& spans, int64_t origin_ns, int64_t sent_ns,
                   int64_t returned_ns, int64_t done_ns) {
  const uint64_t trace = spans.NewTrace();
  const uint64_t root = spans.NewSpanId();
  if (origin_ns < sent_ns) {
    spans.Add("gen.lag", root, trace, origin_ns, sent_ns);
  }
  spans.Add("engine.AsyncQueryEngine.Submit", root, trace, sent_ns,
            returned_ns);
  spans.Add("engine.ticket.pending", root, trace, returned_ns, done_ns);
  spans.Add("request", 0, trace, origin_ns, done_ns, root);
}

/// The closed loop's window is cut into this many equal slices; throughput
/// is the mean of all but the slowest and the fastest slice, so a burst of
/// interference from outside the process is dropped with its slice while
/// the rest of the window still counts.
constexpr size_t kSlices = 8;

struct ClosedLoopResult {
  uint64_t completed_in_window = 0;
  double throughput_qps = 0;
  double seconds = 0;
  uint64_t groups = 0, seeds = 0;
};

/// Closed loop: keeps kClosedWindow tickets outstanding for `seconds`,
/// counting completions per slice of the window.  The first `keep` tickets
/// are returned through `kept` for the answer check.
ClosedLoopResult RunClosedLoop(tpa::AsyncQueryEngine& engine,
                               SeedStream& stream, double seconds,
                               RunCounters& counters, SpanRecorder* spans,
                               size_t keep,
                               std::vector<tpa::QueryTicket>* kept) {
  Outstanding outstanding;
  std::array<std::atomic<uint64_t>, kSlices> per_slice{};
  const auto before = engine.stats();
  const int64_t start = NowNs();
  const int64_t length = static_cast<int64_t>(seconds * 1e9);
  const int64_t end = start + length;
  for (size_t i = 0; NowNs() < end; ++i) {
    outstanding.Acquire(kClosedWindow);
    tpa::SubmitOptions options;
    const int64_t sent = NowNs();
    // Submit-return time, shared with the callback only when tracing.
    std::shared_ptr<std::atomic<int64_t>> returned;
    if (spans != nullptr) returned = std::make_shared<std::atomic<int64_t>>(0);
    options.on_complete = [&, sent, returned](const tpa::QueryResult& r) {
      const int64_t done = NowNs();
      if (!r.status.ok()) counters.failed.fetch_add(1);
      if (done < end) {
        per_slice[static_cast<size_t>((done - start) * static_cast<int64_t>(
                                          kSlices) / length)]
            .fetch_add(1);
      }
      if (returned != nullptr) {
        const int64_t ret = returned->load();
        RecordRequest(*spans, sent, sent, ret ? ret : done, done);
      }
      outstanding.Release();
    };
    counters.attempted.fetch_add(1);
    tpa::QueryTicket ticket = engine.Submit(stream.Next(), options);
    if (returned != nullptr) returned->store(NowNs());
    if (kept != nullptr && i < keep) kept->push_back(std::move(ticket));
  }
  outstanding.Drain();
  const auto after = engine.stats();
  ClosedLoopResult result;
  std::vector<double> slice_qps;
  for (const auto& count : per_slice) {
    result.completed_in_window += count.load();
    slice_qps.push_back(static_cast<double>(count.load()) * kSlices /
                        seconds);
  }
  std::sort(slice_qps.begin(), slice_qps.end());
  result.throughput_qps =
      std::accumulate(slice_qps.begin() + 1, slice_qps.end() - 1, 0.0) /
      static_cast<double>(kSlices - 2);
  result.seconds = seconds;
  result.groups = after.groups_dispatched - before.groups_dispatched;
  result.seeds = after.seeds_dispatched - before.seeds_dispatched;
  return result;
}

struct OpenLoopResult {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> queue_depth;
};

OpenLoopResult RunOpenLoop(tpa::AsyncQueryEngine& engine, SeedStream& stream,
                           size_t count, double rate, RunCounters& counters,
                           SpanRecorder* spans) {
  OpenLoop loop(count, rate);
  Outstanding outstanding;
  std::vector<int64_t> returned(count, 0);
  OpenLoopResult result;
  if (spans != nullptr) result.queue_depth.reserve(count);
  loop.Run([&](size_t i) {
    outstanding.Acquire(count + 1);  // never blocks: only counts for Drain
    tpa::SubmitOptions options;
    options.on_complete = [&, i](const tpa::QueryResult& r) {
      if (!r.status.ok()) counters.failed.fetch_add(1);
      loop.Complete(i);
      outstanding.Release();
    };
    counters.attempted.fetch_add(1);
    engine.Submit(stream.Next(), options);
    if (spans != nullptr) {
      returned[i] = NowNs();
      result.queue_depth.push_back(
          static_cast<double>(engine.stats().queue_depth));
    }
  });
  outstanding.Drain();
  result.latency_ms = loop.LatenciesMs();
  result.lag_ms = loop.LagsMs();
  if (spans != nullptr) {
    for (size_t i = 0; i < count; ++i) {
      RecordRequest(*spans, loop.due_ns(i), loop.sent_ns(i), returned[i],
                    loop.done_ns(i));
    }
  }
  return result;
}

/// STREAM triad a[i] = b[i] + s·c[i] on all cores over three arrays whose
/// total size is at least 4× the last-level cache; median of 5 passes.
double TriadGbps(size_t llc_bytes, unsigned threads) {
  const size_t n = (4 * llc_bytes) / (3 * sizeof(double)) + 1;
  std::vector<double> a(n), b(n), c(n);
  auto slice = [&](unsigned t) {
    return std::pair<size_t, size_t>{n * t / threads, n * (t + 1) / threads};
  };
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const auto [lo, hi] = slice(t);
        body(lo, hi);
      });
    }
    for (std::thread& th : pool) th.join();
  };
  parallel([&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i % 7);
      c[i] = 2.0;
    }
  });
  std::vector<double> rates;
  for (int pass = 0; pass < 5; ++pass) {
    const int64_t start = NowNs();
    parallel([&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    const double s = static_cast<double>(NowNs() - start) / 1e9;
    rates.push_back(3.0 * sizeof(double) * static_cast<double>(n) / s / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return Median(rates);
}

/// Entries of the exact top-k with a positive score (ties among exact
/// zeros are arbitrary and not a ranking).
std::vector<NodeId> ExactTopK(const std::vector<double>& exact) {
  std::vector<NodeId> out;
  for (const tpa::ScoredNode& s : tpa::TopKScores(exact, kTopK)) {
    if (s.score > 0.0) out.push_back(s.node);
  }
  return out;
}

double Precision(const std::vector<NodeId>& exact_top,
                 const std::vector<tpa::ScoredNode>& served_top) {
  if (exact_top.empty()) return 1.0;
  size_t hit = 0;
  for (NodeId v : exact_top) {
    for (const tpa::ScoredNode& s : served_top) hit += s.node == v;
  }
  return static_cast<double>(hit) / static_cast<double>(exact_top.size());
}

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

bool SameTop(const std::vector<tpa::ScoredNode>& a,
             const std::vector<tpa::ScoredNode>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct CheckResult {
  uint64_t failed = 0;
  double mean_l1 = 0;
  double mean_precision = 0;
};

/// The answer check, outside every timed phase: each kept ticket must be
/// OK, bitwise-equal to the direct Tpa path, and (dense answers) within
/// Theorem 2's bound of exact RWR.
CheckResult CheckAnswers(const Workload& w, const Server& server,
                         const std::vector<tpa::QueryTicket>& kept) {
  const tpa::Tpa& direct = server.direct();
  const tpa::TpaOptions& opts = direct.options();
  std::vector<NodeId> seeds;
  for (const tpa::QueryTicket& t : kept) seeds.push_back(t.Wait().seed);
  std::vector<NodeId> distinct = seeds;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  // Exact RWR (CPI to convergence), one seed per core at a time.
  tpa::CpiOptions cpi;
  cpi.restart_probability = opts.restart_probability;
  cpi.tolerance = opts.tolerance;
  std::vector<std::vector<double>> exact(distinct.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> exact_failed{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < distinct.size();) {
        auto r = tpa::Cpi::ExactRwr(server.serving_graph(), distinct[i], cpi);
        if (r.ok()) {
          exact[i] = std::move(r).value();
        } else {
          exact_failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  CheckResult result;
  result.failed = exact_failed.load();
  const double bound =
      tpa::TotalErrorBound(opts.restart_probability, opts.family_window) +
      kL1Tolerance;
  tpa::TopKQueryOptions exact_scores;
  exact_scores.allow_early_termination = false;
  size_t scored = 0;
  for (const tpa::QueryTicket& ticket : kept) {
    const tpa::QueryResult& r = ticket.Wait();
    if (!r.status.ok()) continue;  // already counted when it completed
    const size_t at = std::lower_bound(distinct.begin(), distinct.end(),
                                       r.seed) -
                      distinct.begin();
    if (exact[at].empty()) continue;
    bool ok = true;
    std::vector<double> dense;
    std::vector<tpa::ScoredNode> top;
    if (!w.snapshot_path) {
      dense = direct.Query(r.seed);
      ok = r.scores.size() == dense.size() &&
           std::memcmp(r.scores.data(), dense.data(),
                       dense.size() * sizeof(double)) == 0;
      top = tpa::TopKScores(r.scores, kTopK);
    } else {
      ok = SameTop(r.top, direct.QueryTopK(r.seed, kTopK, exact_scores).top);
      top = r.top;
      dense = direct.Query(r.seed);
    }
    const double l1 = L1(dense, exact[at]);
    ok = ok && l1 <= bound;
    ++scored;
    result.mean_l1 += l1;
    result.mean_precision += Precision(ExactTopK(exact[at]), top);
    if (!ok) {
      std::fprintf(stderr, "servebench: answer check failed for seed %u "
                   "(L1 %.6g, bound %.6g)\n", r.seed, l1, bound);
      ++result.failed;
    }
  }
  if (scored > 0) {
    result.mean_l1 /= static_cast<double>(scored);
    result.mean_precision /= static_cast<double>(scored);
  }
  return result;
}

/// Per-layer timings from outside the program: direct core calls, the
/// propagation kernel, the engine with one outstanding ticket, and (for
/// workloads whose set-up does not persist) the snapshot layer.
void MeasureLayers(const Workload& w, Server& server, const Args& args,
                   const std::vector<NodeId>& population,
                   const fs::path& work_dir, SpanRecorder& spans,
                   RunCounters& counters, Metrics& m) {
  const tpa::Tpa& direct = server.direct();
  const tpa::Graph& graph = server.serving_graph();
  const tpa::TpaOptions& opts = direct.options();
  const std::vector<NodeId> seeds =
      UniformDistinctSeeds(population, kLayerSeeds, Mix(args.seed, 7));

  tpa::CpiOptions family;
  family.restart_probability = opts.restart_probability;
  family.tolerance = opts.tolerance;
  family.start_iteration = 0;
  family.terminal_iteration = opts.family_window - 1;
  family.use_pull = opts.use_pull;
  family.frontier_density_threshold =
      w.snapshot_path ? opts.topk_frontier_density_threshold
                      : opts.frontier_density_threshold;
  tpa::Cpi::Workspace workspace;
  tpa::TopKQueryOptions no_early;
  no_early.allow_early_termination = false;

  std::vector<double> engine_extra_ms, query_ms, family_ms, merge_ms;
  double iterations = 0;
  for (NodeId seed : seeds) {
    // One trace per probed seed: the engine round trip, the direct query,
    // and its family part, under one root span.
    const uint64_t trace = spans.NewTrace();
    const uint64_t root = spans.NewSpanId();
    const int64_t sent = NowNs();
    counters.attempted.fetch_add(1);
    tpa::QueryTicket ticket = server.engine->Submit(seed);
    if (!ticket.Wait().status.ok()) counters.failed.fetch_add(1);
    const double e = MsSince(sent);
    spans.Add("engine.one_outstanding", root, trace, sent, NowNs());
    double q = 0;
    if (!w.snapshot_path) {
      q = spans.Time("core.Tpa.Query", root, trace,
                     [&] { (void)direct.Query(seed); }) * 1e3;
    } else {
      q = spans.Time("core.Tpa.QueryTopK", root, trace, [&] {
            (void)direct.QueryTopK(seed, kTopK, no_early);
          }) * 1e3;
    }
    const double f = spans.Time("core.Cpi.RunT.family", root, trace, [&] {
                       (void)tpa::Cpi::RunT<double>(graph, {seed}, family,
                                                    &workspace);
                     }) * 1e3;
    spans.Add("layer_probe", 0, trace, sent, NowNs(), root);
    // How far the bound-driven top-k runs when allowed to stop early (the
    // engine itself always disables early termination).
    iterations += direct.QueryTopK(seed, kTopK).last_iteration;
    engine_extra_ms.push_back(e - q);
    query_ms.push_back(q);
    family_ms.push_back(f);
    merge_ms.push_back(q - f);
  }
  m.Set("core.query_ms", Median(query_ms), "ms");
  m.Set("core.family_ms", Median(family_ms), "ms");
  m.Set("core.merge_ms", Median(merge_ms), "ms");
  m.Set("core.topk_iterations",
        iterations / static_cast<double>(seeds.size()), "count");
  m.Set("engine.overhead_ms", Median(engine_extra_ms), "ms");

  // The dense transpose propagation kernel (CPI's dense iteration).
  const uint64_t trace = spans.NewTrace();
  const size_t n = graph.num_nodes();
  std::vector<double> x(n, 1.0 / static_cast<double>(n)), y;
  graph.MultiplyTransposeT<double>(x, y);
  std::vector<double> kernel_s;
  const int64_t kernel_start = NowNs();
  while (kernel_s.size() < 5 ||
         (kernel_s.size() < 200 && MsSince(kernel_start) < 500)) {
    kernel_s.push_back(spans.Time("la.CsrMatrix.SpMvTranspose", 0, trace,
                                  [&] { graph.MultiplyTransposeT(x, y); }));
  }
  const double kernel = Median(kernel_s);
  // Compulsory bytes: the out-CSR (offsets, indices, values), x read once,
  // y zeroed once and read-modify-written once.
  const double bytes =
      static_cast<double>(graph.Transition().SizeBytes()) + 3.0 * 8.0 * n;
  m.Set("la.spmvt_ns_per_edge",
        kernel * 1e9 / static_cast<double>(graph.num_edges()), "ns");
  m.Set("la.spmvt_gbps", bytes / kernel / 1e9, "GB/s");

  if (!w.snapshot_path) {
    const std::string path = (work_dir / "layer.tpasnap").string();
    tpa::Status saved;
    m.Set("snapshot.save_s",
          spans.Time("snapshot.Tpa.SaveSnapshot", 0, trace,
                     [&] { saved = direct.SaveSnapshot(path); }),
          "s");
    if (!saved.ok()) counters.failed.fetch_add(1);
    m.Set("snapshot.file_mb", Mb(saved.ok() ? fs::file_size(path) : 0), "MB");
    bool loaded_ok = false;
    m.Set("snapshot.load_s",
          spans.Time("snapshot.Tpa.LoadSnapshot", 0, trace,
                     [&] { loaded_ok = tpa::Tpa::LoadSnapshot(path).ok(); }),
          "s");
    if (!loaded_ok) counters.failed.fetch_add(1);
    fs::remove(path);
  }
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const fs::path out_dir = args.out_dir;
  const fs::path work_dir = out_dir / ("work-" + std::string(w->name));
  ClearDirectory(work_dir);
  SpanRecorder spans(args.trace);
  RunCounters counters;
  Metrics m;
  const NodeId n = NodeId{1} << w->scale;
  // Wall time of each stage of the run, printed for the reader.
  std::string stages;
  int64_t stage_start = NowNs();
  auto stage_done = [&](const char* name) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.2fs", name,
                  MsSince(stage_start) / 1e3);
    stages += buf;
    stage_start = NowNs();
  };

  // Inputs (not timed).
  const auto edges = RmatEdges(w->scale, w->draws, Mix(args.seed, 1));
  constexpr size_t kStreamLength = size_t{1} << 18;
  const std::vector<NodeId> population = NodesWithOutEdges(edges, n);
  std::vector<NodeId> seeds =
      w->snapshot_path
          ? ZipfSampler(population, kZipfExponent, Mix(args.seed, 2))
                .Stream(kStreamLength, Mix(args.seed, 3))
          : UniformDistinctSeeds(population, kStreamLength, Mix(args.seed, 2));
  SeedStream stream(std::move(seeds));
  stage_done("inputs");

  // Set-up, several passes; the last one serves.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Server> server;
  for (int pass = 0; pass < w->setups; ++pass) {
    server.reset();
    ClearDirectory(work_dir);
    SetupTimes t;
    server = SetUp(*w, edges, work_dir, spans, t);
    if (server == nullptr) return 2;
    setups.push_back(t);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  stage_done("setup");
  const SetupTimes& last = setups.back();
  const tpa::Graph& graph = server->serving_graph();
  tpa::AsyncQueryEngine& engine = *server->engine;

  if (args.trace) {
    MeasureLayers(*w, *server, args, population, work_dir, spans, counters,
                  m);
    stage_done("layers");
  }

  // Serving.  A short closed-loop warm-up fills the workspace pool (and the
  // cache on topk-snapshot) before anything is timed.  Its first tickets —
  // the first check_seeds positions of the seed stream, so a fixed sample
  // for a given --seed — are kept for the answer check.
  std::vector<tpa::QueryTicket> kept;
  RunClosedLoop(engine, stream, args.seconds / 8, counters, nullptr,
                w->check_seeds, &kept);
  const double closed_s = args.seconds / 2;
  double overhead_pct = 0.0;
  ClosedLoopResult closed;
  if (!args.trace) {
    closed = RunClosedLoop(engine, stream, closed_s, counters, nullptr, 0,
                           nullptr);
  } else {
    // Untraced and traced blocks alternate (ABAB, so drift over the phase
    // cancels); the ratio of their completions is the tracing overhead.
    // The traced blocks' counters stand for the phase.
    uint64_t plain_done = 0, traced_done = 0;
    for (int block = 0; block < 4; ++block) {
      const bool traced = block % 2 == 1;
      const ClosedLoopResult r =
          RunClosedLoop(engine, stream, closed_s / 4, counters,
                        traced ? &spans : nullptr, 0, nullptr);
      (traced ? traced_done : plain_done) += r.completed_in_window;
      if (traced) {
        closed.seconds += r.seconds;
        closed.groups += r.groups;
        closed.seeds += r.seeds;
        closed.completed_in_window += r.completed_in_window;
      }
    }
    closed.throughput_qps =
        static_cast<double>(closed.completed_in_window) / closed.seconds;
    overhead_pct = 100.0 * (static_cast<double>(plain_done) /
                                static_cast<double>(
                                    std::max<uint64_t>(traced_done, 1)) -
                            1.0);
  }

  const size_t open_count = w->open_requests;
  const OpenLoopResult open =
      RunOpenLoop(engine, stream, open_count, w->open_rate_qps, counters,
                  args.trace ? &spans : nullptr);
  const tpa::QueryEngine::CacheStats cache = engine.engine().cache_stats();

  // Answer check (outside the timed phases).
  stage_done("serve");
  const CheckResult check = CheckAnswers(*w, *server, kept);
  stage_done("check");
  counters.failed.fetch_add(check.failed);

  const double peak_rss_mb = Mb(tpa::PeakRssBytes());
  const size_t llc = tpa::DetectLastLevelCacheBytes();
  const unsigned cores = std::thread::hardware_concurrency();
  const double triad = TriadGbps(llc, std::max(1u, cores));
  stage_done("triad");

  auto p50 = Percentile(open.latency_ms, 0.50);
  auto p99 = SegmentedPercentile(open.latency_ms, 0.99, 1000);
  auto lag99 = Percentile(open.lag_ms, 0.99);
  if (!p50.ok() || !p99.ok() || !lag99.ok()) {
    std::fprintf(stderr, "servebench: %s\n", p99.status().ToString().c_str());
    return 2;
  }
  m.Set("setup_s", median_of(&SetupTimes::total_s), "s");
  m.Set("throughput_qps", closed.throughput_qps, "queries/s");
  m.Set("latency_p50_ms", *p50, "ms");
  m.Set("latency_p99_ms", *p99, "ms");
  m.Set("peak_rss_mb", peak_rss_mb, "MB");
  m.Set("l1_error", check.mean_l1, "L1");
  m.Set("topk_precision", check.mean_precision, "ratio");
  const uint64_t attempted = counters.attempted.load();
  const uint64_t failed = counters.failed.load();
  m.Set("failed_fraction",
        static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  m.Set("disk_mb", Mb(last.disk_bytes), "MB");

  m.Set("graph.build_s", median_of(&SetupTimes::build_s), "s");
  m.Set("graph.csr_mb", Mb(graph.SizeBytes()), "MB");
  m.Set("core.preprocess_s", median_of(&SetupTimes::preprocess_s), "s");
  m.Set("host.triad_gbps", triad, "GB/s");
  m.Set("engine.create_s", median_of(&SetupTimes::create_s), "s");
  m.Set("engine.mean_group_size",
        closed.groups ? static_cast<double>(closed.seeds) /
                            static_cast<double>(closed.groups)
                      : 0.0,
        "count");
  m.Set("engine.queue_depth_p99",
        open.queue_depth.empty() ? 0.0
                                 : Percentile(open.queue_depth, 0.99)
                                       .value(),
        "count");
  m.Set("engine.cache_hit_ratio",
        cache.hits + cache.misses
            ? static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses)
            : 0.0,
        "ratio");
  m.Set("engine.cache_mb", Mb(cache.bytes), "MB");
  if (w->snapshot_path) {
    m.Set("snapshot.save_s", median_of(&SetupTimes::save_s), "s");
    m.Set("snapshot.load_s", median_of(&SetupTimes::load_s), "s");
    m.Set("snapshot.file_mb", Mb(last.snapshot_bytes), "MB");
  }
  m.Set("ooc.spill_mb", Mb(last.spill_bytes), "MB");
  m.Set("ooc.csr_file_mb", Mb(last.csr_file_bytes), "MB");
  m.Set("gen.sched_lag_p99_ms", *lag99, "ms");
  m.Set("gen.repeat_share", RepeatShare(stream.Served()), "ratio");
  m.Set("trace.overhead_pct", overhead_pct, "%");

  server.reset();
  fs::remove_all(work_dir);

  const bool correct = failed == 0;
  std::printf("servebench %s seed=%" PRIu64 " trace=%d\n", w->name, args.seed,
              args.trace ? 1 : 0);
  std::printf("host: cores=%u llc_bytes=%zu triad_gbps=%.3f build=%s "
              "commit=%s\n",
              cores, llc, triad, SERVEBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("load: closed loop window %zu for %.2f s (throughput: mean of "
              "the middle %zu of %zu slices); open loop %zu requests at "
              "%.1f/s (p50 over all, p99: median over segments of >= 1000); "
              "%" PRIu64 " attempted, %" PRIu64 " failed\n",
              kClosedWindow, closed.seconds, kSlices - 2, kSlices, open_count,
              w->open_rate_qps, attempted, failed);
  std::printf("stages:%s\n", stages.c_str());
  m.Print();

  const std::vector<std::string>& reported = args.trace ? kPerLayer : kEndToEnd;
  const std::string metrics_json = m.Json(reported);
  fs::create_directories(out_dir);
  {
    const std::string stem = std::string(w->name) + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    std::ofstream result(out_dir / (stem + ".json"));
    char host[512];
    std::snprintf(host, sizeof(host),
                  "{\"cores\": %u, \"llc_bytes\": %zu, \"triad_gbps\": %.6g, "
                  "\"build_type\": \"%s\", \"commit\": \"%s\"}",
                  cores, llc, triad, SERVEBENCH_BUILD_TYPE,
                  args.commit.c_str());
    result << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
           << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"host\": " << host
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": " << m.Json(m.names()) << "}\n";
    if (args.trace) {
      const tpa::Status s = spans.WriteJsonLines(
          (out_dir / ("trace-" + std::string(w->name) + "-seed" +
                      std::to_string(args.seed) + ".jsonl"))
              .string());
      if (!s.ok()) {
        std::fprintf(stderr, "servebench: %s\n", s.ToString().c_str());
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload dense-llc|dense-dram|"
                 "topk-snapshot --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--commit SHA]\n");
    return 2;
  }
  return servebench::Run(args);
}
