/// Async serving: one engine multiplexing many independent clients through
/// the admission queue — per-query Submit/ticket instead of the blocking
/// QueryBatch latch.  Demonstrates completion callbacks, deadlines,
/// client-side cancellation, and the queue-full backpressure policies.
///
///   $ ./example_async_serving

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "engine/async_query_engine.h"
#include "graph/generators.h"
#include "method/tpa_method.h"

int main() {
  tpa::DcsbmOptions graph_options;
  graph_options.nodes = 20'000;
  graph_options.edges = 200'000;
  graph_options.blocks = 40;
  graph_options.seed = 7;
  auto graph = tpa::GenerateDcsbm(graph_options);
  if (!graph.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }

  // Engine side: preprocessing runs once in Create; the admission queue
  // bounds how many requests may wait, and each serving job answers one
  // of them.
  tpa::QueryEngineOptions engine_options;
  engine_options.num_threads = 4;
  engine_options.top_k = 3;
  engine_options.cache_capacity = 100;
  tpa::AsyncQueryEngineOptions async_options;
  async_options.queue_capacity = 256;
  async_options.queue_full_policy = tpa::QueueFullPolicy::kBlock;
  auto engine = tpa::AsyncQueryEngine::Create(
      *graph, std::make_unique<tpa::TpaMethod>(), engine_options,
      async_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::printf("async engine up: %d workers, queue capacity %zu\n\n",
              (*engine)->engine().num_threads(), async_options.queue_capacity);

  // Client side: fire a burst of queries without waiting for any of them;
  // completion callbacks deliver the results as they land.
  std::atomic<int> delivered{0};
  tpa::SubmitOptions fire_and_forget;
  fire_and_forget.on_complete = [&](const tpa::QueryResult& result) {
    if (result.status.ok() && !result.top.empty()) {
      delivered.fetch_add(1);
    }
  };
  std::vector<tpa::QueryTicket> tickets;
  for (tpa::NodeId seed = 0; seed < 64; ++seed) {
    tickets.push_back((*engine)->Submit(seed * 300, fire_and_forget));
  }

  // A latency-sensitive client attaches a deadline: if the queue cannot get
  // to it in time, it fails fast with DEADLINE_EXCEEDED instead of serving
  // a stale answer.
  tpa::SubmitOptions urgent;
  urgent.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  tpa::QueryTicket urgent_ticket = (*engine)->Submit(123, urgent);

  // Another client changes its mind while still queued.
  tpa::QueryTicket undecided = (*engine)->Submit(456);
  const bool cancelled = undecided.Cancel();

  const tpa::QueryResult& urgent_result = urgent_ticket.Wait();
  std::printf("urgent query: %s\n",
              urgent_result.status.ok()
                  ? "served within deadline"
                  : urgent_result.status.ToString().c_str());
  std::printf("cancel while queued: %s\n",
              cancelled ? "cancelled before serving"
                        : "too late - already being served");

  for (tpa::QueryTicket& ticket : tickets) {
    const tpa::QueryResult& result = ticket.Wait();
    if (!result.status.ok()) {
      std::fprintf(stderr, "seed %u failed: %s\n", result.seed,
                   result.status.ToString().c_str());
      return 1;
    }
  }
  std::printf("burst of %zu queries served; callbacks delivered %d\n",
              tickets.size(), delivered.load());

  const auto stats = (*engine)->stats();
  std::printf(
      "stats: %llu submitted, %llu served, %llu cancelled, %llu expired\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.expired));

  // Destruction shuts down cleanly: admissions stop, everything already
  // admitted is served, then the engine joins its scheduler and pool.
  return 0;
}
