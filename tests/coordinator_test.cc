// Tests for the per-query coordinator: STW accounting, dissemination timing
// and latency, result recording, stop semantics.
#include <gtest/gtest.h>

#include <memory>

#include "federation/coordinator.h"
#include "runtime/operators/receiver.h"
#include "shedding/random_shedder.h"

namespace themis {
namespace {

class NullRouter : public BatchRouter {
 public:
  void RouteBatch(NodeId, QueryId, FragmentId, Batch) override {}
  void DeliverResult(QueryId, SimTime, const std::vector<Tuple>&) override {}
};

class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest() : network_(&engine_, Millis(5)) {
    QueryBuilder b(1, "q");
    OperatorId r = b.Add(std::make_unique<ReceiverOp>(), 0);
    OperatorId o = b.Add(std::make_unique<OutputOp>(), 1);
    b.Connect(r, o).SetRoot(o);
    graph_ = std::move(b.Build()).TakeValue();
  }

  Node* MakeHost(NodeId id) {
    nodes_.push_back(std::make_unique<Node>(id, NodeOptions{}, &queue_,
                                            &router_,
                                            std::make_unique<RandomShedder>(
                                                Rng(1))));
    return nodes_.back().get();
  }

  std::vector<Tuple> ResultTuples(double sic, int n = 1) {
    std::vector<Tuple> ts;
    for (int i = 0; i < n; ++i) {
      ts.push_back(Tuple(queue_.now(), sic / n, {Value(1.0)}));
    }
    return ts;
  }

  ParallelEngine engine_{1};
  EventQueue& queue_ = *engine_.queue(0);
  Network network_;
  NullRouter router_;
  std::unique_ptr<QueryGraph> graph_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(CoordinatorTest, TracksSicOverStw) {
  QueryCoordinator::Options opts;
  opts.stw = Seconds(10);
  QueryCoordinator coord(graph_.get(), opts, &queue_, &network_);
  queue_.RunUntil(Seconds(1));
  coord.OnResult(queue_.now(), ResultTuples(0.3));
  queue_.RunUntil(Seconds(2));
  coord.OnResult(queue_.now(), ResultTuples(0.4));
  EXPECT_NEAR(coord.CurrentSic(), 0.7, 1e-12);
  // After the STW passes the first contribution, only the second remains.
  queue_.RunUntil(Seconds(11) + 1);
  EXPECT_NEAR(coord.CurrentSic(), 0.4, 1e-12);
}

TEST_F(CoordinatorTest, DisseminatesToHostsWithLatency) {
  QueryCoordinator::Options opts;
  opts.update_interval = Millis(250);
  QueryCoordinator coord(graph_.get(), opts, &queue_, &network_);
  coord.SetHome(0);
  Node* host = MakeHost(3);
  coord.AddHost(3, host);
  coord.Start();
  coord.OnResult(0, ResultTuples(0.5));

  // First update fires at 250 ms and arrives after the 5 ms link latency.
  queue_.RunUntil(Millis(254));
  EXPECT_FALSE(host->known_query_sic(1).has_value());
  queue_.RunUntil(Millis(256));
  ASSERT_TRUE(host->known_query_sic(1).has_value());
  EXPECT_NEAR(*host->known_query_sic(1), 0.5, 1e-12);
}

TEST_F(CoordinatorTest, DisseminationCountsTraffic) {
  QueryCoordinator::Options opts;
  opts.update_interval = Millis(100);
  QueryCoordinator coord(graph_.get(), opts, &queue_, &network_);
  coord.SetHome(0);
  coord.AddHost(1, MakeHost(1));
  coord.AddHost(2, MakeHost(2));
  coord.Start();
  queue_.RunUntil(Seconds(1));
  // 10 update rounds x 2 hosts, 30 bytes each (§7.6).
  EXPECT_EQ(network_.messages_sent(), 20u);
  EXPECT_EQ(network_.bytes_sent(), 600u);
}

TEST_F(CoordinatorTest, DisseminationCanBeDisabled) {
  QueryCoordinator::Options opts;
  opts.disseminate = false;
  QueryCoordinator coord(graph_.get(), opts, &queue_, &network_);
  coord.SetHome(0);
  coord.AddHost(1, MakeHost(1));
  coord.Start();
  queue_.RunUntil(Seconds(2));
  EXPECT_EQ(network_.messages_sent(), 0u);
}

TEST_F(CoordinatorTest, StopHaltsUpdatesAndResults) {
  QueryCoordinator::Options opts;
  opts.update_interval = Millis(100);
  QueryCoordinator coord(graph_.get(), opts, &queue_, &network_);
  coord.SetHome(0);
  coord.AddHost(1, MakeHost(1));
  coord.Start();
  queue_.RunUntil(Millis(350));
  uint64_t sent_before = network_.messages_sent();
  coord.Stop();
  coord.OnResult(queue_.now(), ResultTuples(0.9));
  queue_.RunUntil(Seconds(2));
  // At most the already-scheduled update fires after Stop().
  EXPECT_LE(network_.messages_sent(), sent_before + 1);
  EXPECT_EQ(coord.result_tuples(), 0u);
}

TEST_F(CoordinatorTest, RecordsResultsWhenEnabled) {
  QueryCoordinator::Options opts;
  opts.record_results = true;
  QueryCoordinator coord(graph_.get(), opts, &queue_, &network_);
  coord.OnResult(Seconds(1), ResultTuples(0.2, 3));
  EXPECT_EQ(coord.results().size(), 3u);
  EXPECT_EQ(coord.result_tuples(), 3u);
  EXPECT_NEAR(coord.results()[0].sic, 0.2 / 3, 1e-12);
}

TEST_F(CoordinatorTest, RecordingOffByDefault) {
  QueryCoordinator coord(graph_.get(), {}, &queue_, &network_);
  coord.OnResult(Seconds(1), ResultTuples(0.2, 3));
  EXPECT_TRUE(coord.results().empty());
  EXPECT_EQ(coord.result_tuples(), 3u);
}

}  // namespace
}  // namespace themis
