/// Deterministic fault-injection suite for the serving stack: armed
/// failpoints (errors, throws, delays) must fail exactly the tickets they
/// hit — clean per-ticket statuses, exactly-once callbacks, balanced
/// queue-slot accounting — and the engine must keep serving exact answers
/// afterwards.  The real tests need the failpoint sites compiled in
/// (cmake -DTPA_FAILPOINTS=ON); production builds get a single skip.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "engine/async_query_engine.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "method/tpa_method.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace tpa {
namespace {

#if !defined(TPA_FAILPOINTS_ENABLED)

TEST(EngineFaultTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "fault-injection sites are compiled out; rebuild with "
                  "-DTPA_FAILPOINTS=ON to run this suite";
}

#else

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr milliseconds kWaitBudget{30000};

Graph ServingGraph(uint64_t seed = 77) {
  DcsbmOptions options;
  options.nodes = 500;
  options.edges = 5000;
  options.blocks = 10;
  options.seed = seed;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmAllFailpoints(); }
  void TearDown() override { DisarmAllFailpoints(); }
};

TEST_F(EngineFaultTest, InjectedErrorFailsOnlyItsQuery) {
  Graph graph = ServingGraph();
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(engine.ok());
  const QueryResult reference = engine->Query(3);
  ASSERT_TRUE(reference.status.ok());

  ArmFailpoint(
      "tpa.workspace_checkout",
      FailpointAction::Error(ResourceExhaustedError("injected: no workspace")),
      /*skip=*/0, /*count=*/1);
  const QueryResult faulted = engine->Query(3);
  EXPECT_EQ(faulted.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(faulted.scores.empty());

  // The very next query on the same engine is healthy and bitwise equal.
  const QueryResult healthy = engine->Query(3);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status;
  EXPECT_EQ(healthy.scores, reference.scores);
}

TEST_F(EngineFaultTest, ThrownExceptionsAreContainedAsInternalErrors) {
  Graph graph = ServingGraph();
  auto engine =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(engine.ok());

  // A throw at the serving boundary...
  ArmFailpoint("engine.serve_query",
               FailpointAction::Throw("injected serve throw"),
               /*skip=*/0, /*count=*/1);
  const QueryResult at_boundary = engine->Query(8);
  EXPECT_EQ(at_boundary.status.code(), StatusCode::kInternal);
  EXPECT_NE(at_boundary.status.message().find("method threw"),
            std::string::npos)
      << at_boundary.status;

  // ...and one from deep inside the propagation loop both land as a clean
  // INTERNAL on the one query, never unwinding past the engine.
  ArmFailpoint("cpi.iteration",
               FailpointAction::Throw("injected iteration throw"),
               /*skip=*/0, /*count=*/1);
  const QueryResult mid_loop = engine->Query(8);
  EXPECT_EQ(mid_loop.status.code(), StatusCode::kInternal);

  DisarmAllFailpoints();
  EXPECT_TRUE(engine->Query(8).status.ok());
}

TEST_F(EngineFaultTest, DeadlineAbortsARunningQueryWithinOneIteration) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options, {});
  ASSERT_TRUE(async.ok());

  // Each propagation iteration sleeps 25ms, so a 100ms deadline expires a
  // few iterations in — far short of the ~100+ iterations convergence
  // needs.  Without the mid-run check this test would spend seconds.
  ArmFailpoint("cpi.iteration", FailpointAction::Delay(25));
  SubmitOptions options;
  options.deadline = steady_clock::now() + milliseconds(100);
  QueryTicket ticket = (*async)->Submit(5, options);
  ASSERT_TRUE(ticket.WaitFor(kWaitBudget));
  EXPECT_EQ(ticket.Wait().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(ticket.Wait().scores.empty());

  const int64_t iterations = FailpointHits("cpi.iteration");
  EXPECT_GE(iterations, 1);   // the query really was mid-run
  EXPECT_LE(iterations, 20);  // and stopped promptly, not at convergence
  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.aborted + stats.expired, 1u);  // aborted mid-run (or, on
  EXPECT_EQ(stats.completed + stats.expired, 1u);  // a very slow box, expired)

  DisarmAllFailpoints();
  QueryTicket clean = (*async)->Submit(5);
  EXPECT_TRUE(clean.Wait().status.ok());
}

TEST_F(EngineFaultTest, CancelAbortsARunningQueryWithinOneIteration) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options, {});
  ASSERT_TRUE(async.ok());

  ArmFailpoint("cpi.iteration", FailpointAction::Delay(10));
  QueryTicket ticket = (*async)->Submit(7);
  while (ticket.state() == QueryTicket::State::kQueued) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(ticket.state(), QueryTicket::State::kRunning);
  EXPECT_TRUE(ticket.Cancel());  // delivered to the running query
  ASSERT_TRUE(ticket.WaitFor(kWaitBudget));
  EXPECT_EQ(ticket.Wait().status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(ticket.Wait().scores.empty());
  EXPECT_LE(FailpointHits("cpi.iteration"), 60);  // nowhere near convergence

  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.completed, 1u);  // running-cancel completes the ticket...
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.cancelled, 0u);  // ...and is not a queue-phase cancel

  DisarmAllFailpoints();
  QueryTicket clean = (*async)->Submit(7);
  EXPECT_TRUE(clean.Wait().status.ok());
}

TEST_F(EngineFaultTest, ChunkFaultFailsItsTicketsAndNothingElse) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options, {});
  ASSERT_TRUE(async.ok());

  ArmFailpoint("engine.serve_chunk",
               FailpointAction::Error(InternalError("injected chunk fault")),
               /*skip=*/0, /*count=*/1);
  std::atomic<int> callbacks{0};
  SubmitOptions options;
  options.on_complete = [&](const QueryResult&) { callbacks.fetch_add(1); };
  QueryTicket faulted = (*async)->Submit(11, options);
  ASSERT_TRUE(faulted.WaitFor(kWaitBudget));
  EXPECT_EQ(faulted.Wait().status.code(), StatusCode::kInternal);
  EXPECT_EQ(callbacks.load(), 1);

  QueryTicket healthy = (*async)->Submit(11);
  EXPECT_TRUE(healthy.Wait().status.ok());
  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.completed, 2u);  // the faulted ticket completed cleanly
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(EngineFaultTest, FailpointStormKeepsServingAndAccountingExact) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 4;
  AsyncQueryEngineOptions async_options;
  async_options.queue_capacity = 64;
  async_options.max_inflight_jobs = 4;
  async_options.queue_full_policy = QueueFullPolicy::kBlock;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options, async_options);
  ASSERT_TRUE(async.ok());

  // Every fault kind at once, hitting deterministic windows of the load:
  // workspace-checkout errors, serving-boundary throws, serving-job
  // faults, and propagation delays that let queued deadlines expire.
  ArmFailpoint("tpa.workspace_checkout",
               FailpointAction::Error(ResourceExhaustedError("injected")),
               /*skip=*/5, /*count=*/15);
  ArmFailpoint("engine.serve_query",
               FailpointAction::Throw("injected storm throw"),
               /*skip=*/25, /*count=*/10);
  ArmFailpoint("engine.serve_chunk",
               FailpointAction::Error(InternalError("injected chunk fault")),
               /*skip=*/3, /*count=*/4);
  ArmFailpoint("cpi.iteration", FailpointAction::Delay(1), /*skip=*/200,
               /*count=*/50);

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  constexpr int kTickets = kClients * kPerClient;  // 120 concurrent queries
  std::vector<std::atomic<int>> callback_counts(kTickets);
  std::vector<QueryTicket> tickets(kTickets);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int slot = c * kPerClient + i;
        SubmitOptions options;
        if (slot % 7 == 0) {
          options.deadline = steady_clock::now() + milliseconds(5);
        }
        options.on_complete = [&callback_counts, slot](const QueryResult&) {
          callback_counts[slot].fetch_add(1);
        };
        tickets[slot] = (*async)->Submit(
            static_cast<NodeId>((slot * 37) % graph.num_nodes()), options);
        if (slot % 11 == 0) tickets[slot].Cancel();  // queued or running
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int i = 0; i < kTickets; ++i) {
    ASSERT_TRUE(tickets[i].WaitFor(kWaitBudget)) << "ticket " << i;
    EXPECT_TRUE(tickets[i].done()) << "ticket " << i;
  }

  // Exactly one completion callback per ticket, whatever its fate.
  for (int i = 0; i < kTickets; ++i) {
    EXPECT_EQ(callback_counts[i].load(), 1) << "ticket " << i;
  }

  // Queue-slot accounting balances: every submitted ticket is in exactly
  // one terminal bucket, and no slot leaked.
  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kTickets));
  EXPECT_EQ(stats.completed + stats.rejected + stats.cancelled + stats.expired,
            stats.submitted);
  EXPECT_EQ(stats.queue_depth, 0u);

  // With the storm disarmed the same engine serves exact answers again.
  DisarmAllFailpoints();
  auto oracle =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(oracle.ok());
  QueryTicket clean = (*async)->Submit(13);
  const QueryResult& result = clean.Wait();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.scores, oracle->Query(13).scores);
}

#endif  // TPA_FAILPOINTS_ENABLED

}  // namespace
}  // namespace tpa
