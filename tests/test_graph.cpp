// Tests for the distributed graph layer: distributions, CSR build,
// ghosts, degrees, BFS, stats, and file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/dist.hpp"
#include "graph/dist_graph.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "mpisim/comm.hpp"

namespace xtra::graph {
namespace {

/// Small fixed graph used throughout: a 6-cycle with one chord.
EdgeList six_cycle_with_chord() {
  EdgeList el;
  el.n = 6;
  el.directed = false;
  el.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}};
  return el;
}

EdgeList path_graph(gid_t n) {
  EdgeList el;
  el.n = n;
  el.directed = false;
  for (gid_t v = 0; v + 1 < n; ++v) el.edges.push_back({v, v + 1});
  return el;
}

// ---------------------------------------------------------------------------
// VertexDist

TEST(VertexDist, BlockCoversAllVerticesOnce) {
  for (int nranks : {1, 2, 3, 5, 7}) {
    const gid_t n = 23;
    const VertexDist d = VertexDist::block(n, nranks);
    std::vector<int> counts(static_cast<std::size_t>(nranks), 0);
    for (gid_t v = 0; v < n; ++v) {
      const int o = d.owner(v);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, nranks);
      ++counts[static_cast<std::size_t>(o)];
    }
    // Block distribution: sizes differ by at most one and are
    // non-increasing in rank.
    for (int r = 0; r + 1 < nranks; ++r) {
      EXPECT_GE(counts[r], counts[r + 1]);
      EXPECT_LE(counts[r] - counts[r + 1], 1);
    }
  }
}

TEST(VertexDist, BlockIsContiguousAndMatchesRange) {
  const gid_t n = 17;
  const int nranks = 4;
  const VertexDist d = VertexDist::block(n, nranks);
  for (int r = 0; r < nranks; ++r) {
    const auto [lo, hi] = d.block_range(r);
    for (gid_t v = lo; v < hi; ++v) EXPECT_EQ(d.owner(v), r);
  }
  EXPECT_EQ(d.block_range(0).first, 0u);
  EXPECT_EQ(d.block_range(nranks - 1).second, n);
}

TEST(VertexDist, RandomIsDeterministicAndBalanced) {
  const gid_t n = 100000;
  const VertexDist d1 = VertexDist::random(n, 8, 3);
  const VertexDist d2 = VertexDist::random(n, 8, 3);
  std::vector<count_t> counts(8, 0);
  for (gid_t v = 0; v < n; ++v) {
    ASSERT_EQ(d1.owner(v), d2.owner(v));
    ++counts[static_cast<std::size_t>(d1.owner(v))];
  }
  for (const count_t c : counts) {
    EXPECT_GT(c, n / 8 * 0.95);
    EXPECT_LT(c, n / 8 * 1.05);
  }
}

TEST(VertexDist, ExplicitMapReturnsGivenOwners) {
  auto owners = std::make_shared<std::vector<int>>(
      std::vector<int>{2, 0, 1, 1, 2});
  const VertexDist d = VertexDist::explicit_map(5, 3, owners);
  EXPECT_EQ(d.owner(0), 2);
  EXPECT_EQ(d.owner(1), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(4), 2);
}

// ---------------------------------------------------------------------------
// EdgeList helpers

TEST(EdgeList, CanonicalizeDropsLoopsAndDupes) {
  EdgeList el;
  el.n = 4;
  el.edges = {{1, 0}, {0, 1}, {2, 2}, {3, 1}, {1, 3}};
  canonicalize(el);
  EXPECT_EQ(el.edges, (std::vector<Edge>{{0, 1}, {1, 3}}));
}

TEST(EdgeList, SymmetrizedMergesDirections) {
  EdgeList el;
  el.n = 3;
  el.directed = true;
  el.edges = {{0, 1}, {1, 0}, {2, 1}, {2, 2}};
  const EdgeList u = symmetrized(el);
  EXPECT_FALSE(u.directed);
  EXPECT_EQ(u.edges, (std::vector<Edge>{{0, 1}, {1, 2}}));
}

// ---------------------------------------------------------------------------
// DistGraph build

class DistGraphRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, DistGraphRanks, ::testing::Values(1, 2, 3, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(DistGraphRanks, ShapeAndDegreesMatchSerial) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  // Serial reference degrees.
  std::vector<count_t> ref_deg(el.n, 0);
  for (const Edge& e : el.edges) {
    ++ref_deg[e.u];
    ++ref_deg[e.v];
  }
  for (const auto kind : {VertexDist::Kind::kBlock, VertexDist::Kind::kRandom}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const VertexDist dist = kind == VertexDist::Kind::kBlock
                                  ? VertexDist::block(el.n, nranks)
                                  : VertexDist::random(el.n, nranks);
      const DistGraph g = build_dist_graph(comm, el, dist);
      EXPECT_EQ(g.n_global(), el.n);
      EXPECT_EQ(g.m_global(), static_cast<count_t>(el.edges.size()));
      const count_t n_local_sum = comm.allreduce_sum(
          static_cast<count_t>(g.n_local()));
      EXPECT_EQ(n_local_sum, static_cast<count_t>(el.n));
      for (lid_t v = 0; v < g.n_local(); ++v) {
        EXPECT_EQ(g.degree(v), ref_deg[g.gid_of(v)]);
        EXPECT_EQ(g.out_degree(v), ref_deg[g.gid_of(v)]);
      }
      // Ghost degrees must equal the owner's.
      for (lid_t v = g.n_local(); v < g.n_total(); ++v)
        EXPECT_EQ(g.degree(v), ref_deg[g.gid_of(v)]);
    });
  }
}

TEST_P(DistGraphRanks, AdjacencyMatchesSerialNeighborSets) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  std::map<gid_t, std::set<gid_t>> ref;
  for (const Edge& e : el.edges) {
    ref[e.u].insert(e.v);
    ref[e.v].insert(e.u);
  }
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 5));
    for (lid_t v = 0; v < g.n_local(); ++v) {
      std::set<gid_t> got;
      for (const lid_t u : g.neighbors(v)) got.insert(g.gid_of(u));
      EXPECT_EQ(got, ref[g.gid_of(v)]) << "vertex " << g.gid_of(v);
    }
  });
}

TEST_P(DistGraphRanks, GhostsAreExactlyRemoteNeighbors) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    std::set<gid_t> expected_ghosts;
    for (lid_t v = 0; v < g.n_local(); ++v)
      for (const lid_t u : g.neighbors(v))
        if (!g.is_owned(u)) expected_ghosts.insert(g.gid_of(u));
    std::set<gid_t> actual_ghosts;
    for (lid_t v = g.n_local(); v < g.n_total(); ++v) {
      actual_ghosts.insert(g.gid_of(v));
      EXPECT_NE(g.owner_of(v), comm.rank());
    }
    EXPECT_EQ(actual_ghosts, expected_ghosts);
  });
}

TEST_P(DistGraphRanks, LidGidRoundTrip) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 9));
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(g.lid_of(g.gid_of(v)), v);
    // A gid not present locally must be reported absent; find one.
    for (gid_t missing = 0; missing < el.n; ++missing) {
      bool present = false;
      for (lid_t v = 0; v < g.n_total(); ++v)
        if (g.gid_of(v) == missing) present = true;
      if (!present) {
        EXPECT_EQ(g.lid_of(missing), kInvalidLid);
      }
    }
  });
}

TEST_P(DistGraphRanks, SelfLoopsDropped) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 4;
  el.edges = {{0, 0}, {0, 1}, {1, 1}, {2, 3}};
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    EXPECT_EQ(g.m_global(), 2);
  });
}

TEST_P(DistGraphRanks, DirectedBuildSeparatesInAndOut) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 4;
  el.directed = true;
  el.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 0}};
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    EXPECT_TRUE(g.directed());
    EXPECT_EQ(g.m_global(), 4);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const gid_t gid = g.gid_of(v);
      std::set<gid_t> outs, ins;
      for (const lid_t u : g.neighbors(v)) outs.insert(g.gid_of(u));
      for (const lid_t u : g.in_neighbors(v)) ins.insert(g.gid_of(u));
      if (gid == 0) {
        EXPECT_EQ(outs, (std::set<gid_t>{1}));
        EXPECT_EQ(ins, (std::set<gid_t>{2, 3}));
        EXPECT_EQ(g.degree(v), 3);
      }
      if (gid == 3) {
        EXPECT_EQ(outs, (std::set<gid_t>{0}));
        EXPECT_TRUE(ins.empty());
      }
    }
  });
}

// ghost_holders(v) lists each rank that stores owned v as a ghost,
// once, and no other rank. On a directed graph that includes the
// owners of v's in-neighbours: they read v's label through their own
// out-lists.
TEST_P(DistGraphRanks, GhostHoldersAreExactlyTheRanksHoldingTheGhost) {
  const int nranks = GetParam();
  for (const bool directed : {false, true}) {
    EdgeList el = gen::webcrawl(300, 6, 4);
    if (!directed) el = symmetrized(el);
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
      struct Held {
        gid_t gid;
        int rank;
      };
      std::vector<Held> mine;
      for (lid_t v = g.n_local(); v < g.n_total(); ++v)
        mine.push_back({g.gid_of(v), comm.rank()});
      std::map<gid_t, std::set<int>> holders;
      for (const Held& h : comm.allgatherv(mine))
        holders[h.gid].insert(h.rank);
      for (lid_t v = 0; v < g.n_local(); ++v) {
        const std::span<const int> got = g.ghost_holders(v);
        const std::set<int> got_set(got.begin(), got.end());
        EXPECT_EQ(got_set.size(), got.size()) << "duplicate holder";
        EXPECT_EQ(got_set, holders[g.gid_of(v)])
            << "gid " << g.gid_of(v) << (directed ? " directed" : "");
      }
    });
  }
}

TEST(DistGraphEdge, MoreRanksThanVertices) {
  EdgeList el;
  el.n = 2;
  el.edges = {{0, 1}};
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(2, 4));
    EXPECT_EQ(comm.allreduce_sum(static_cast<count_t>(g.n_local())), 2);
    EXPECT_EQ(g.m_global(), 1);
  });
}

TEST(DistGraphEdge, EmptyGraphNoEdges) {
  EdgeList el;
  el.n = 5;
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(5, 2));
    EXPECT_EQ(g.m_global(), 0);
    EXPECT_EQ(g.n_ghost(), 0u);
  });
}

// ---------------------------------------------------------------------------
// BFS and stats

TEST_P(DistGraphRanks, BfsLevelsOnPathGraph) {
  const int nranks = GetParam();
  const EdgeList el = path_graph(12);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 2));
    std::vector<count_t> levels;
    const count_t ecc = bfs_levels(comm, g, 0, levels);
    EXPECT_EQ(ecc, 11);
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(levels[v], static_cast<count_t>(g.gid_of(v)));
  });
}

TEST_P(DistGraphRanks, BfsUnreachableStaysUnreached) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 5;
  el.edges = {{0, 1}, {1, 2}};  // 3, 4 disconnected
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    std::vector<count_t> levels;
    const count_t ecc = bfs_levels(comm, g, 0, levels);
    EXPECT_EQ(ecc, 2);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      if (g.gid_of(v) >= 3) {
        EXPECT_EQ(levels[v], kUnreached);
      }
    }
  });
}

TEST_P(DistGraphRanks, DiameterOfPathIsExact) {
  const int nranks = GetParam();
  const EdgeList el = path_graph(20);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    // Iterated BFS converges to the true diameter on a path.
    EXPECT_EQ(estimate_diameter(comm, g, 4, 10), 19);
  });
}

TEST_P(DistGraphRanks, StatsMatchHandComputed) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 4));
    const GraphStats s = compute_stats(comm, g, 5);
    EXPECT_EQ(s.n, 6u);
    EXPECT_EQ(s.m, 7);
    EXPECT_EQ(s.max_degree, 3);  // vertices 0 and 3 have the chord
    EXPECT_NEAR(s.avg_degree, 14.0 / 6.0, 1e-12);
    EXPECT_GE(s.approx_diameter, 2);
    EXPECT_LE(s.approx_diameter, 3);
  });
}

// ---------------------------------------------------------------------------
// I/O

TEST(GraphIo, TextRoundTrip) {
  EdgeList el = six_cycle_with_chord();
  const std::string path = ::testing::TempDir() + "/xtra_el.txt";
  write_edge_list_text(path, el);
  const EdgeList back = read_edge_list_text(path);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.directed, el.directed);
  EXPECT_EQ(back.edges, el.edges);
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRoundTrip) {
  EdgeList el = six_cycle_with_chord();
  el.directed = true;
  const std::string path = ::testing::TempDir() + "/xtra_el.bin";
  write_edge_list_binary(path, el);
  const EdgeList back = read_edge_list_binary(path);
  EXPECT_EQ(back.n, el.n);
  EXPECT_TRUE(back.directed);
  EXPECT_EQ(back.edges, el.edges);
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_text("/nonexistent/xtra.txt"),
               std::runtime_error);
  EXPECT_THROW(read_edge_list_binary("/nonexistent/xtra.bin"),
               std::runtime_error);
}

TEST(GraphIo, CorruptHeaderThrows) {
  const std::string path = ::testing::TempDir() + "/xtra_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage header\n", f);
  std::fclose(f);
  EXPECT_THROW(read_edge_list_text(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GraphIo, OutOfRangeVertexThrows) {
  const std::string path = ::testing::TempDir() + "/xtra_oor.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("n 3 undirected\n0 7\n", f);
  std::fclose(f);
  EXPECT_THROW(read_edge_list_text(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtra::graph
