// Tests for the XtraPuLP core: exchange protocol, initialization,
// balance/refinement phases, and the full partition pipeline's
// invariants (validity, ghost consistency, balance constraints,
// quality vs. random).
#include <gtest/gtest.h>

#include <numeric>

#include "core/exchange.hpp"
#include "core/init.hpp"
#include "core/state.hpp"
#include "core/xtrapulp.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"

namespace xtra::core {
namespace {

using graph::DistGraph;
using graph::EdgeList;
using graph::VertexDist;

EdgeList two_triangles_bridge() {
  // 0-1-2 triangle, 3-4-5 triangle, bridge 2-3: the canonical
  // two-community graph. A good 2-way partition cuts exactly 1 edge.
  EdgeList el;
  el.n = 6;
  el.edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}};
  return el;
}

class CoreRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CoreRanks, ::testing::Values(1, 2, 3, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

// ---------------------------------------------------------------------------
// ExchangeUpdates (Algorithm 3)

TEST_P(CoreRanks, ExchangeUpdatesSyncsGhosts) {
  const int nranks = GetParam();
  const EdgeList el = two_triangles_bridge();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 1));
    // Every owner labels its vertices with their gid; after one
    // exchange of all owned vertices every ghost label must match.
    std::vector<part_t> parts(g.n_total(), kNoPart);
    std::vector<lid_t> queue;
    for (lid_t v = 0; v < g.n_local(); ++v) {
      parts[v] = static_cast<part_t>(g.gid_of(v));
      queue.push_back(v);
    }
    exchange_updates(comm, g, parts, queue);
    for (lid_t v = g.n_local(); v < g.n_total(); ++v)
      EXPECT_EQ(parts[v], static_cast<part_t>(g.gid_of(v)));
  });
}

TEST_P(CoreRanks, ExchangeWithEmptyQueueIsANoOp) {
  const int nranks = GetParam();
  const EdgeList el = two_triangles_bridge();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    std::vector<part_t> parts(g.n_total(), 3);
    exchange_updates(comm, g, parts, {});
    for (const part_t p : parts) EXPECT_EQ(p, 3);
  });
}

TEST_P(CoreRanks, ExchangeSendsOnlyChangedVertices) {
  const int nranks = GetParam();
  const EdgeList el = two_triangles_bridge();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    std::vector<part_t> parts(g.n_total(), 0);
    // Change only vertex 2 (owned by exactly one rank).
    std::vector<lid_t> queue;
    const lid_t l2 = g.lid_of(2);
    if (l2 != kInvalidLid && g.is_owned(l2)) {
      parts[l2] = 1;
      queue.push_back(l2);
    }
    exchange_updates(comm, g, parts, queue);
    // Vertex 2's ghost copies see 1; everything else stays 0.
    for (lid_t v = g.n_local(); v < g.n_total(); ++v)
      EXPECT_EQ(parts[v], g.gid_of(v) == 2 ? 1 : 0);
  });
}

// ---------------------------------------------------------------------------
// Initialization (Algorithm 2)

TEST_P(CoreRanks, BfsInitAssignsEveryVertexAValidConsistentPart) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(2000, 8, 0.6, 2.3, 3);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 7));
    Params params;
    params.nparts = 5;
    const auto parts = init_bfs_growing(comm, g, params);
    EXPECT_TRUE(check_partition_consistent(comm, g, parts, params.nparts));
  });
}

TEST_P(CoreRanks, BfsInitCoversAllPartsOnConnectedGraph) {
  const int nranks = GetParam();
  const EdgeList el = gen::mesh2d(30, 30);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    Params params;
    params.nparts = 4;
    const auto parts = init_bfs_growing(comm, g, params);
    std::vector<count_t> sizes =
        compute_vertex_sizes(comm, g, parts, params.nparts);
    for (const count_t s : sizes) EXPECT_GT(s, 0);
  });
}

TEST_P(CoreRanks, RandomInitIsDistributionIndependent) {
  const int nranks = GetParam();
  const EdgeList el = two_triangles_bridge();
  // The same (gid, seed) must map to the same part regardless of rank
  // count or distribution — random init hashes the gid.
  std::vector<part_t> ref;
  sim::run_world(1, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 1));
    Params params;
    params.nparts = 3;
    ref = gather_global_parts(comm, g, init_random(comm, g, params));
  });
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
    Params params;
    params.nparts = 3;
    const auto parts = init_random(comm, g, params);
    const auto global = gather_global_parts(comm, g, parts);
    EXPECT_EQ(global, ref);
  });
}

TEST_P(CoreRanks, BlockInitMakesContiguousParts) {
  const int nranks = GetParam();
  const EdgeList el = gen::mesh2d(16, 16);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    Params params;
    params.nparts = 4;
    const auto parts = init_block(comm, g, params);
    const auto global = gather_global_parts(comm, g, parts);
    // Non-decreasing part label over gids, all parts non-empty.
    for (gid_t v = 0; v + 1 < el.n; ++v) EXPECT_LE(global[v], global[v + 1]);
    EXPECT_EQ(global.front(), 0);
    EXPECT_EQ(global.back(), 3);
  });
}

// ---------------------------------------------------------------------------
// PhaseState helpers

TEST(PhaseState, MultiplierRampsFromYToX) {
  PhaseState st;
  st.nprocs = 8;
  st.x = 1.0;
  st.y = 0.25;
  st.i_tot = 10;
  st.iter_tot = 0;
  EXPECT_DOUBLE_EQ(st.mult(), 8 * 0.25);
  st.iter_tot = 10;
  EXPECT_DOUBLE_EQ(st.mult(), 8 * 1.0);
  st.iter_tot = 5;
  EXPECT_DOUBLE_EQ(st.mult(), 8 * 0.625);
}

TEST_P(CoreRanks, SizeComputationsMatchSerialCounts) {
  const int nranks = GetParam();
  const EdgeList el = two_triangles_bridge();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 11));
    // Partition: {0,1,2} -> 0, {3,4,5} -> 1 (cut = bridge only).
    std::vector<part_t> parts(g.n_total());
    for (lid_t v = 0; v < g.n_total(); ++v)
      parts[v] = g.gid_of(v) <= 2 ? 0 : 1;
    const auto sv = compute_vertex_sizes(comm, g, parts, 2);
    EXPECT_EQ(sv, (std::vector<count_t>{3, 3}));
    const auto se = compute_edge_sizes(comm, g, parts, 2);
    EXPECT_EQ(se, (std::vector<count_t>{7, 7}));  // degree sums
    const auto sc = compute_cut_sizes(comm, g, parts, 2);
    EXPECT_EQ(sc, (std::vector<count_t>{1, 1}));  // one bridge, both sides
  });
}

TEST_P(CoreRanks, FoldChangesAggregatesAndResets) {
  const int nranks = GetParam();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    PhaseState st;
    st.size_v = {10, 20};
    st.change_v = {1, -1};
    fold_changes(comm, st);
    EXPECT_EQ(st.size_v[0], 10 + nranks);
    EXPECT_EQ(st.size_v[1], 20 - nranks);
    EXPECT_EQ(st.change_v, (std::vector<count_t>{0, 0}));
  });
}

// ---------------------------------------------------------------------------
// Full pipeline

TEST_P(CoreRanks, PartitionIsValidConsistentAndBalanced) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(3000, 10, 0.55, 2.3, 5);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 13));
    Params params;
    params.nparts = 8;
    const PartitionResult r = partition(comm, g, params);
    EXPECT_TRUE(check_partition_consistent(comm, g, r.parts, params.nparts));
    const auto q = metrics::evaluate_dist(comm, g, r.parts, params.nparts);
    // Vertex balance within the 10% constraint (+ small slack for the
    // distributed estimate).
    EXPECT_LE(q.vertex_imbalance, 1.0 + params.vert_imbalance + 0.05);
    EXPECT_GT(q.edge_cut_ratio, 0.0);
    EXPECT_LT(q.edge_cut_ratio, 1.0);
  });
}

TEST_P(CoreRanks, PartitionBeatsRandomOnCommunityGraph) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(4000, 12, 0.7, 2.5, 9);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 17));
    Params params;
    params.nparts = 4;
    const PartitionResult r = partition(comm, g, params);
    const auto q = metrics::evaluate_dist(comm, g, r.parts, params.nparts);
    // Random 4-way partitioning cuts ~75% of edges; label propagation
    // on a strong community graph must do far better.
    EXPECT_LT(q.edge_cut_ratio, 0.5);
  });
}

TEST_P(CoreRanks, ResultIndependentOfVertexDistributionKind) {
  // Quality may differ across distributions but validity and balance
  // must hold for both.
  const int nranks = GetParam();
  const EdgeList el = gen::mesh2d(40, 40);
  for (const bool random_dist : {false, true}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const VertexDist dist = random_dist
                                  ? VertexDist::random(el.n, nranks, 23)
                                  : VertexDist::block(el.n, nranks);
      const DistGraph g = build_dist_graph(comm, el, dist);
      Params params;
      params.nparts = 6;
      const PartitionResult r = partition(comm, g, params);
      EXPECT_TRUE(
          check_partition_consistent(comm, g, r.parts, params.nparts));
      const auto q = metrics::evaluate_dist(comm, g, r.parts, params.nparts);
      EXPECT_LE(q.vertex_imbalance, 1.2);
    });
  }
}

TEST(Partition, SingleRankSinglePartIsTrivial) {
  const EdgeList el = two_triangles_bridge();
  sim::run_world(1, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 1));
    Params params;
    params.nparts = 1;
    const PartitionResult r = partition(comm, g, params);
    for (const part_t p : r.parts) EXPECT_EQ(p, 0);
    const auto q = metrics::evaluate_dist(comm, g, r.parts, 1);
    EXPECT_EQ(q.cut, 0);
  });
}

TEST(Partition, EdgePhasesCanBeDisabled) {
  const EdgeList el = gen::community_graph(1500, 8, 0.6, 2.3, 2);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 2, 5));
    Params params;
    params.nparts = 4;
    params.edge_phases = false;
    const PartitionResult r = partition(comm, g, params);
    EXPECT_TRUE(check_partition_consistent(comm, g, r.parts, params.nparts));
    EXPECT_EQ(r.edge_stage_seconds, 0.0);
    EXPECT_GT(r.vert_stage_seconds, 0.0);
  });
}

TEST(Partition, AlternativeInitsWork) {
  const EdgeList el = gen::community_graph(1500, 8, 0.6, 2.3, 2);
  for (const InitStrategy init :
       {InitStrategy::kRandom, InitStrategy::kBlock}) {
    sim::run_world(2, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 2, 5));
      Params params;
      params.nparts = 4;
      params.init = init;
      const PartitionResult r = partition(comm, g, params);
      EXPECT_TRUE(
          check_partition_consistent(comm, g, r.parts, params.nparts));
    });
  }
}

// Each rank reads the labels of its owned vertices' out-neighbours, so
// on a directed graph a moved vertex must reach the owners of its
// in-neighbours too. Otherwise those ghosts keep kNoPart and the label
// scan indexes NeighborCounts out of bounds.
TEST(Partition, DirectedGraphKeepsGhostLabelsConsistent) {
  const EdgeList el = gen::webcrawl(4000, 8, 3);
  ASSERT_TRUE(el.directed);
  for (const int nranks : {2, 3}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 5));
      Params params;
      params.nparts = 4;
      const PartitionResult r = partition(comm, g, params);
      EXPECT_TRUE(check_partition_consistent(comm, g, r.parts, params.nparts))
          << nranks << " ranks";
    });
  }
}

// Every init strategy exchanges under the run's exchange settings: a
// byte bound splits the random/block inits' all-ghost sync into more
// phases, and hierarchical sharding adds node-local legs to every
// strategy's exchanges. Neither changes a label.
TEST(Init, HonorsExchangeSettingsOfParams) {
  const EdgeList el = gen::community_graph(1500, 8, 0.6, 2.3, 2);
  const auto run = [&](InitStrategy init, count_t bound,
                       comm::ShardPolicy policy) {
    std::vector<part_t> labels;
    count_t collectives = 0;
    sim::run_world(
        4,
        [&](sim::Comm& comm) {
          const DistGraph g =
              build_dist_graph(comm, el, VertexDist::random(el.n, 4, 5));
          Params params;
          params.nparts = 4;
          params.init = init;
          params.max_exchange_bytes = bound;
          params.shard_policy = policy;
          const count_t before = comm.stats().collectives;
          const std::vector<part_t> parts = initialize_parts(comm, g, params);
          const count_t used = comm.stats().collectives - before;
          const std::vector<part_t> global =
              gather_global_parts(comm, g, parts);
          if (comm.rank() == 0) {
            labels = global;
            collectives = used;
          }
        },
        /*ranks_per_node=*/2);
    return std::make_pair(labels, collectives);
  };
  constexpr auto kFlat = comm::ShardPolicy::kFlat;
  constexpr auto kHier = comm::ShardPolicy::kHierarchical;
  for (const InitStrategy init :
       {InitStrategy::kBfsGrowing, InitStrategy::kRandom,
        InitStrategy::kBlock}) {
    const auto [ref, ref_collectives] = run(init, 0, kFlat);
    const auto [hier, hier_collectives] = run(init, 0, kHier);
    EXPECT_EQ(hier, ref);
    EXPECT_GT(hier_collectives, ref_collectives);
    if (init == InitStrategy::kBfsGrowing) continue;
    const auto [bounded, bounded_collectives] = run(init, 256, kFlat);
    EXPECT_EQ(bounded, ref);
    EXPECT_GT(bounded_collectives, ref_collectives);
  }
}

TEST(Partition, AblationFlagsWork) {
  const EdgeList el = gen::community_graph(1500, 8, 0.6, 2.3, 2);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 2, 5));
    Params params;
    params.nparts = 4;
    params.degree_weighted_balance = false;
    params.init_random_among_assigned = false;
    const PartitionResult r = partition(comm, g, params);
    EXPECT_TRUE(check_partition_consistent(comm, g, r.parts, params.nparts));
  });
}

TEST(Partition, InvalidParamsThrow) {
  const EdgeList el = two_triangles_bridge();
  sim::run_world(1, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 1));
    Params params;
    params.nparts = 0;
    EXPECT_THROW(partition(comm, g, params), std::invalid_argument);
    params.nparts = 100;  // > n
    EXPECT_THROW(partition(comm, g, params), std::invalid_argument);
    params.nparts = 2;
    params.vert_imbalance = -0.5;
    EXPECT_THROW(partition(comm, g, params), std::invalid_argument);
    params.vert_imbalance = 0.1;
    params.outer_iters = 0;
    EXPECT_THROW(partition(comm, g, params), std::invalid_argument);
  });
}

TEST(Partition, DeterministicForFixedSeedAndRanks) {
  const EdgeList el = gen::community_graph(2000, 8, 0.6, 2.3, 4);
  std::vector<part_t> first, second;
  for (int trial = 0; trial < 2; ++trial) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 3, 2));
      Params params;
      params.nparts = 5;
      params.seed = 77;
      const PartitionResult r = partition(comm, g, params);
      const auto global = gather_global_parts(comm, g, r.parts);
      if (comm.rank() == 0) (trial == 0 ? first : second) = global;
    });
  }
  EXPECT_EQ(first, second);
}

TEST(Partition, TwoTrianglesFindsTheBridgeCut) {
  const EdgeList el = two_triangles_bridge();
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    Params params;
    params.nparts = 2;
    params.seed = 3;
    const PartitionResult r = partition(comm, g, params);
    const auto q = metrics::evaluate_dist(comm, g, r.parts, 2);
    EXPECT_EQ(q.cut, 1);  // optimal: cut exactly the bridge
  });
}

TEST(Partition, ReportsTimingsAndCommBytes) {
  const EdgeList el = gen::community_graph(1500, 8, 0.6, 2.3, 2);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 2, 5));
    Params params;
    params.nparts = 4;
    const PartitionResult r = partition(comm, g, params);
    EXPECT_GT(r.total_seconds, 0.0);
    EXPECT_GE(r.total_seconds,
              r.init_seconds + r.vert_stage_seconds + r.edge_stage_seconds -
                  1e-6);
    EXPECT_GT(r.comm_bytes, 0);
  });
}

// Property sweep: many (nparts, seed) combinations keep the invariants.
struct SweepCase {
  int nranks;
  part_t nparts;
  std::uint64_t seed;
};

class PartitionSweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionSweep,
    ::testing::Values(SweepCase{1, 2, 1}, SweepCase{2, 2, 2},
                      SweepCase{2, 7, 3}, SweepCase{3, 16, 4},
                      SweepCase{4, 3, 5}, SweepCase{4, 32, 6}),
    [](const auto& inf) {
      return "r" + std::to_string(inf.param.nranks) + "_p" +
             std::to_string(inf.param.nparts) + "_s" +
             std::to_string(inf.param.seed);
    });

TEST_P(PartitionSweep, InvariantsHold) {
  const auto c = GetParam();
  const EdgeList el = gen::community_graph(2500, 10, 0.6, 2.3, c.seed);
  sim::run_world(c.nranks, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(
        comm, el, VertexDist::random(el.n, c.nranks, c.seed));
    Params params;
    params.nparts = c.nparts;
    params.seed = c.seed;
    const PartitionResult r = partition(comm, g, params);
    EXPECT_TRUE(check_partition_consistent(comm, g, r.parts, c.nparts));
    const auto q = metrics::evaluate_dist(comm, g, r.parts, c.nparts);
    EXPECT_LE(q.vertex_imbalance, 1.0 + params.vert_imbalance + 0.10);
    EXPECT_GE(q.edge_cut_ratio, 0.0);
    EXPECT_LE(q.edge_cut_ratio, 1.0);
    EXPECT_LE(q.cut, q.edges);
    // Every part non-empty (p << n here).
    const auto sizes = compute_vertex_sizes(comm, g, r.parts, c.nparts);
    for (const count_t s : sizes) EXPECT_GT(s, 0);
  });
}

}  // namespace
}  // namespace xtra::core
