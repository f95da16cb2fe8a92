// Tests for the overlapped ghost refresh inside one superstep
// (HaloPlan::overlapped_superstep: boundary sweep, prefetch, mid()
// against the in-flight wire, interior sweep, finish) and the
// analytics that ride it through engine::run: the overlapped
// superstep must be bit-identical to the blocking one, serially and on
// the rank's thread pool; PageRank and k-core must match their
// blocking references exactly; commLP with coalesce_every == 1 must
// match the uncoalesced path bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <vector>

#include "analytics/analytics.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"

namespace xtra {
namespace {

/// CI matrix hook: XTRA_TEST_BACKEND=onesided re-drives the
/// result-correctness tests below over the pull-mode transport.
comm::Backend env_backend() {
  const char* v = std::getenv("XTRA_TEST_BACKEND");
  return v && std::string_view(v) == "onesided" ? comm::Backend::kOneSided
                                                : comm::Backend::kTwoSided;
}

// ---------------------------------------------------------------------------
// HaloPlan::overlapped_superstep

/// Reference superstep: update every owned vertex, then a blocking
/// ghost refresh — what the overlapped superstep must reproduce.
template <typename T, typename Fn>
void blocking_superstep(sim::Comm& comm, graph::HaloPlan& halo,
                        const graph::DistGraph& g, std::vector<T>& vals,
                        Fn&& update) {
  for (lid_t v = 0; v < g.n_local(); ++v) update(v);
  halo.exchange(comm, vals);
}

TEST(HaloOverlap, OverlappedSuperstepBitIdenticalToBlocking) {
  const graph::EdgeList el = gen::erdos_renyi(400, 8, 29);
  for (const comm::ShardPolicy policy :
       {comm::ShardPolicy::kFlat, comm::ShardPolicy::kHierarchical}) {
    for (const count_t bound : {count_t(0), count_t(8), count_t(1) << 14}) {
      sim::run_world(
          6,
          [&](sim::Comm& comm) {
            const auto g = graph::build_dist_graph(
                comm, el, graph::VertexDist::random(el.n, 6, 5));
            graph::HaloPlan ref_halo(comm, g, policy, env_backend());
            graph::HaloPlan halo(comm, g, policy, env_backend());
            ref_halo.set_max_send_bytes(bound);
            halo.set_max_send_bytes(bound);

            std::vector<gid_t> expect(g.n_total()), vals(g.n_total());
            for (lid_t v = 0; v < g.n_total(); ++v)
              expect[v] = vals[v] = g.gid_of(v);
            for (int iter = 1; iter <= 3; ++iter) {
              blocking_superstep(comm, ref_halo, g, expect, [&](lid_t v) {
                expect[v] = expect[v] * 5 + static_cast<gid_t>(iter);
              });
              halo.overlapped_superstep(
                  comm, vals,
                  [&](lid_t v) {
                    vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
                  },
                  [&] { (void)comm.allreduce_sum<count_t>(1); });
              EXPECT_FALSE(halo.prefetch_in_flight());
              ASSERT_EQ(vals, expect) << "bound=" << bound;
            }
          },
          3);
    }
  }
}

// MPI+X: the chunked parallel sweeps must land every superstep in the
// same state as the serial order, with the same wire bytes. This is
// also the case the CI ThreadSanitizer job hammers at threads = 8.
TEST(HaloOverlap, ParallelSuperstepBitIdenticalToSerial) {
  const graph::EdgeList el = gen::erdos_renyi(400, 8, 37);
  sim::run_world(4, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, graph::VertexDist::random(el.n, 4, 5));
    constexpr int kIters = 4;
    // Two sequential runs: serial records its trajectory, the parallel
    // replay must reproduce it superstep by superstep.
    std::vector<std::vector<gid_t>> trace;
    count_t ref_bytes = 0;
    {
      graph::HaloPlan halo(comm, g, comm::ShardPolicy::kFlat, env_backend());
      std::vector<gid_t> vals(g.n_total());
      for (lid_t v = 0; v < g.n_total(); ++v) vals[v] = g.gid_of(v);
      for (int iter = 1; iter <= kIters; ++iter) {
        halo.overlapped_superstep(comm, vals, [&](lid_t v) {
          vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
        });
        trace.push_back(vals);
      }
      ref_bytes = halo.stats().bytes_sent;
    }
    {
      graph::HaloPlan halo(comm, g, comm::ShardPolicy::kFlat, env_backend());
      std::vector<gid_t> vals(g.n_total());
      for (lid_t v = 0; v < g.n_total(); ++v) vals[v] = g.gid_of(v);
      par::ThreadScope threads(8);  // oversubscribes a 4-CPU host
      for (int iter = 1; iter <= kIters; ++iter) {
        halo.overlapped_superstep(
            comm, vals,
            [&](lid_t v) {
              vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
            },
            [] {}, /*parallel=*/true);
        ASSERT_EQ(vals, trace[static_cast<std::size_t>(iter - 1)])
            << "iter=" << iter;
      }
      EXPECT_EQ(halo.stats().bytes_sent, ref_bytes);
    }
  });
}

// ---------------------------------------------------------------------------
// Analytics on the overlapped refresh

TEST(OverlappedAnalytics, PageRankBitIdenticalToBlockingReference) {
  const graph::EdgeList el = gen::community_graph(1000, 8, 0.6, 2.3, 3);
  sim::run_world(4, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, graph::VertexDist::random(el.n, 4, 5));
    constexpr int kIters = 15;
    constexpr double kDamping = 0.85;

    // Blocking reference: the non-overlapped formulation (contrib +
    // dangling in one pass, blocking halo refresh, allreduce, update).
    std::vector<double> ref_rank(g.n_total(),
                                 1.0 / static_cast<double>(g.n_global()));
    {
      graph::HaloPlan halo(comm, g);
      const double n = static_cast<double>(g.n_global());
      std::vector<double> contrib(g.n_total(), 0.0);
      for (int iter = 0; iter < kIters; ++iter) {
        double dangling = 0.0;
        for (lid_t v = 0; v < g.n_local(); ++v) {
          const count_t d = g.degree(v);
          if (d == 0) {
            dangling += ref_rank[v];
            contrib[v] = 0.0;
          } else {
            contrib[v] = ref_rank[v] / static_cast<double>(d);
          }
        }
        halo.exchange(comm, contrib);
        dangling = comm.allreduce_sum(dangling);
        for (lid_t v = 0; v < g.n_local(); ++v) {
          double sum = 0.0;
          for (const lid_t u : g.neighbors(v)) sum += contrib[u];
          ref_rank[v] =
              (1.0 - kDamping) / n + kDamping * (sum + dangling / n);
        }
      }
      halo.exchange(comm, ref_rank);
    }

    const auto pr = analytics::pagerank(comm, g, kIters, kDamping);
    ASSERT_EQ(pr.rank.size(), ref_rank.size());
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(pr.rank[v], ref_rank[v]) << "lid " << v;  // bit-identical
    EXPECT_EQ(pr.info.supersteps, kIters);
  });
}

TEST(OverlappedAnalytics, KcoreBitIdenticalToBlockingReference) {
  const graph::EdgeList el = gen::community_graph(800, 8, 0.6, 2.3, 5);
  sim::run_world(4, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, graph::VertexDist::random(el.n, 4, 5));
    constexpr int kRounds = 12;

    // Blocking reference: the synchronous (Jacobi) h-index sweep with
    // a full blocking ghost refresh per round.
    std::vector<count_t> ref(g.n_total());
    {
      graph::HaloPlan halo(comm, g);
      for (lid_t v = 0; v < g.n_total(); ++v) ref[v] = g.degree(v);
      std::vector<count_t> prev(ref), nbr;
      for (int round = 0; round < kRounds; ++round) {
        bool changed = false;
        for (lid_t v = 0; v < g.n_local(); ++v) {
          nbr.clear();
          for (const lid_t u : g.neighbors(v)) nbr.push_back(prev[u]);
          std::sort(nbr.begin(), nbr.end(), std::greater<count_t>());
          count_t h = 0;
          for (std::size_t i = 0; i < nbr.size(); ++i) {
            if (nbr[i] >= static_cast<count_t>(i + 1))
              h = static_cast<count_t>(i + 1);
            else
              break;
          }
          h = std::min<count_t>(h, g.degree(v));
          if (h < ref[v]) {
            ref[v] = h;
            changed = true;
          }
        }
        halo.exchange(comm, ref);
        prev = ref;
        if (!comm.allreduce_or(changed)) break;
      }
    }

    const auto kc = analytics::kcore_approx(comm, g, kRounds);
    ASSERT_EQ(kc.core.size(), ref.size());
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(kc.core[v], ref[v]) << "lid " << v;
  });
}

TEST(OverlappedAnalytics, CommLpCoalesceEveryOneBitIdenticalToUncoalesced) {
  const graph::EdgeList el = gen::community_graph(600, 8, 0.7, 2.3, 13);
  sim::run_world(4, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, graph::VertexDist::random(el.n, 4, 5));
    // coalesce_every == 1 delivers every changed label every sweep —
    // exactly the full refresh (unchanged ghosts already agree), so
    // the runs must match bit for bit, supersteps included.
    const auto plain = analytics::label_propagation(
        comm, g, 8, comm::ShardPolicy::kFlat, 0);
    const auto co = analytics::label_propagation(
        comm, g, 8, comm::ShardPolicy::kFlat, 1);
    EXPECT_EQ(co.label, plain.label);
    EXPECT_EQ(co.num_communities, plain.num_communities);
    EXPECT_EQ(co.info.supersteps, plain.info.supersteps);
  });
}

TEST(OverlappedAnalytics, CommLpCoalescedRecoversPlantedCommunities) {
  // Two 20-cliques and a single bridge: the planted structure must
  // survive label staleness of up to coalesce_every - 1 sweeps.
  graph::EdgeList el;
  el.n = 40;
  for (gid_t base : {gid_t{0}, gid_t{20}})
    for (gid_t a = base; a < base + 20; ++a)
      for (gid_t b = a + 1; b < base + 20; ++b) el.edges.push_back({a, b});
  el.edges.push_back({5, 25});
  for (const int every : {2, 4}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, 4, 4));
      const auto r = analytics::label_propagation(
          comm, g, 20, comm::ShardPolicy::kFlat, every);
      EXPECT_EQ(r.num_communities, 2) << "every=" << every;
      for (lid_t v = 0; v < g.n_local(); ++v)
        EXPECT_EQ(r.label[v], g.gid_of(v) < 20 ? 0u : 20u)
            << "every=" << every;
    });
  }
}

TEST(OverlappedAnalytics, CommLpCoalescedGhostsConsistentOnExit) {
  // Exit by sweep budget mid-batch: the trailing flush must still
  // deliver everything, leaving every ghost equal to its owner.
  const graph::EdgeList el = gen::erdos_renyi(500, 8, 17);
  sim::run_world(4, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, graph::VertexDist::random(el.n, 4, 5));
    const auto r = analytics::label_propagation(
        comm, g, 5, comm::ShardPolicy::kFlat, 3);
    std::vector<gid_t> check(r.label);
    graph::HaloPlan halo(comm, g);
    halo.exchange(comm, check);
    EXPECT_EQ(check, r.label);
  });
}

}  // namespace
}  // namespace xtra
