// Tests for the unified exchange subsystem (src/comm/): the DestBuckets
// bucketing engine, the (optionally memory-bounded, phased) Exchanger,
// the query/reply round trip, and the statistics plumbing. The phased
// exchange must be bit-identical to a single alltoallv for any
// max_send_bytes — that invariant is what lets every caller opt into
// bounded memory without changing semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string_view>
#include <vector>

#include "analytics/analytics.hpp"
#include "comm/coalescing.hpp"
#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "comm/query_reply.hpp"
#include "core/exchange.hpp"
#include "core/xtrapulp.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"
#include "spmv/spmv.hpp"

namespace xtra {
namespace {

using comm::DestBuckets;
using comm::Exchanger;

/// CI matrix hook: XTRA_TEST_BACKEND=onesided / XTRA_TEST_SHARD=hier
/// re-drive the end-to-end result-correctness tests through the
/// alternate transport. The exact-billing tests never read these.
comm::Backend env_backend() {
  const char* v = std::getenv("XTRA_TEST_BACKEND");
  return v && std::string_view(v) == "onesided" ? comm::Backend::kOneSided
                                                : comm::Backend::kTwoSided;
}

comm::ShardPolicy env_shard() {
  const char* v = std::getenv("XTRA_TEST_SHARD");
  return v && std::string_view(v) == "hier"
             ? comm::ShardPolicy::kHierarchical
             : comm::ShardPolicy::kFlat;
}

// ---------------------------------------------------------------------------
// DestBuckets

TEST(DestBuckets, GroupsRecordsByDestinationInOrder) {
  DestBuckets<int> b;
  b.begin(3);
  b.count(2);
  b.count(0);
  b.count(2);
  b.commit();
  b.push(2, 20);
  b.push(0, 1);
  b.push(2, 21);
  EXPECT_EQ(b.counts(), (std::vector<count_t>{1, 0, 2}));
  EXPECT_EQ(b.records(), (std::vector<int>{1, 20, 21}));
  EXPECT_EQ(b.total(), 3);
}

TEST(DestBuckets, EmptyBuildYieldsEmptyBuffers) {
  DestBuckets<int> b;
  b.begin(4);
  b.commit();
  EXPECT_EQ(b.total(), 0);
  EXPECT_TRUE(b.records().empty());
  EXPECT_EQ(b.counts(), (std::vector<count_t>{0, 0, 0, 0}));
}

TEST(DestBuckets, ReuseShrinksWithoutStaleRecords) {
  DestBuckets<int> b;
  b.build(2, std::vector<int>{1, 2, 3, 4}, [](int) { return 0; },
          [](int v) { return v; });
  EXPECT_EQ(b.total(), 4);
  b.build(2, std::vector<int>{9}, [](int) { return 1; },
          [](int v) { return v; });
  EXPECT_EQ(b.total(), 1);
  EXPECT_EQ(b.records(), (std::vector<int>{9}));
  EXPECT_EQ(b.counts(), (std::vector<count_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Exchanger

/// Every rank sends `per_dest` distinct records to every rank (incl.
/// itself); value encodes (source, dest, index) so misrouted or
/// reordered records are detectable.
std::vector<std::uint64_t> staged_payload(int me, int nranks,
                                          count_t per_dest) {
  std::vector<std::uint64_t> send;
  for (int d = 0; d < nranks; ++d)
    for (count_t i = 0; i < per_dest; ++i)
      send.push_back(static_cast<std::uint64_t>(me) * 1'000'000 +
                     static_cast<std::uint64_t>(d) * 1'000 +
                     static_cast<std::uint64_t>(i));
  return send;
}

TEST(Exchanger, UnboundedMatchesRawAlltoallv) {
  const int nranks = 4;
  const count_t per_dest = 5;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto send = staged_payload(comm.rank(), nranks, per_dest);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      per_dest);
    const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);
    Exchanger ex;
    std::vector<count_t> rcounts;
    const auto got = ex.exchange(comm, send, counts, &rcounts);
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(rcounts, counts);
    EXPECT_EQ(ex.stats().exchanges, 1);
    EXPECT_EQ(ex.stats().phases, 1);
  });
}

class PhasedBounds : public ::testing::TestWithParam<count_t> {};

// 1 record per phase, odd 3-record chunks, exact fit, overshoot.
INSTANTIATE_TEST_SUITE_P(
    MaxSendBytes, PhasedBounds,
    ::testing::Values(sizeof(std::uint64_t), 3 * sizeof(std::uint64_t),
                      4 * 7 * sizeof(std::uint64_t), count_t(1) << 20),
    [](const auto& inf) { return "bytes_" + std::to_string(inf.param); });

TEST_P(PhasedBounds, PhasedResultBitIdenticalToUnbounded) {
  const count_t bound = GetParam();
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Ragged counts: rank r sends (r + d) records to destination d, so
    // ranks disagree about how many phases they need locally.
    std::vector<count_t> counts(static_cast<std::size_t>(nranks));
    std::vector<std::uint64_t> send;
    for (int d = 0; d < nranks; ++d) {
      counts[static_cast<std::size_t>(d)] = comm.rank() + d;
      for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
        send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1'000'000 +
                       static_cast<std::uint64_t>(d) * 1'000 +
                       static_cast<std::uint64_t>(i));
    }
    std::vector<count_t> expect_rcounts;
    const std::vector<std::uint64_t> expect =
        comm.alltoallv(send, counts, &expect_rcounts);

    Exchanger ex(bound);
    std::vector<count_t> rcounts;
    const auto got = ex.exchange(comm, send, counts, &rcounts);
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(rcounts, expect_rcounts);
    // Phase arithmetic: the rank with the largest send total dictates
    // the global phase count.
    const count_t total =
        std::accumulate(counts.begin(), counts.end(), count_t(0));
    const count_t max_total = comm.allreduce_max(total);
    const count_t max_records =
        std::max<count_t>(1, bound / static_cast<count_t>(sizeof(std::uint64_t)));
    const count_t want_phases =
        std::max<count_t>(1, (max_total + max_records - 1) / max_records);
    EXPECT_EQ(ex.stats().phases, want_phases);
    EXPECT_EQ(ex.stats().exchanges, 1);
  });
}

TEST_P(PhasedBounds, StartFinishBitIdenticalToBlocking) {
  const count_t bound = GetParam();
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Same ragged payload as the blocking phased test: rank r sends
    // (r + d) records to destination d.
    std::vector<count_t> counts(static_cast<std::size_t>(nranks));
    std::vector<std::uint64_t> send;
    for (int d = 0; d < nranks; ++d) {
      counts[static_cast<std::size_t>(d)] = comm.rank() + d;
      for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
        send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1'000'000 +
                       static_cast<std::uint64_t>(d) * 1'000 +
                       static_cast<std::uint64_t>(i));
    }
    std::vector<count_t> expect_rcounts;
    const std::vector<std::uint64_t> expect =
        comm.alltoallv(send, counts, &expect_rcounts);

    Exchanger ex(bound);
    ex.start(comm, send, counts);
    EXPECT_TRUE(ex.in_flight());
    EXPECT_EQ(ex.pending().bytes_in_flight(),
              static_cast<count_t>(send.size() * sizeof(std::uint64_t)));
    // The handle owns a snapshot: the caller's buffer is dead the
    // moment start() returns...
    std::fill(send.begin(), send.end(), 0xDEADBEEFu);
    send.clear();
    send.shrink_to_fit();
    // ...and blocking collectives may run while the exchange (all of
    // its phases) is still draining.
    EXPECT_EQ(comm.allreduce_sum<count_t>(1),
              static_cast<count_t>(nranks));
    std::vector<count_t> rcounts;
    const auto got = ex.finish<std::uint64_t>(comm, &rcounts);
    EXPECT_FALSE(ex.in_flight());
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(rcounts, expect_rcounts);
    // Identical result for any bound, plus the overlap ledger.
    EXPECT_EQ(ex.stats().exchanges, 1);
    EXPECT_EQ(ex.stats().overlapped, 1);
    EXPECT_GT(ex.stats().start_seconds + ex.stats().finish_seconds, 0.0);
  });
}

TEST(Exchanger, SplitAndBlockingAgreeOnStatsAndBytes) {
  const int nranks = 4;
  const count_t per_dest = 6;
  const count_t bound = 2 * sizeof(std::uint64_t);  // forces phases
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto send = staged_payload(comm.rank(), nranks, per_dest);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      per_dest);
    Exchanger blocking(bound);
    comm.barrier();
    comm.reset_stats();
    const auto a = blocking.exchange(comm, send, counts);
    const std::vector<std::uint64_t> expect(a.begin(), a.end());
    const count_t blocking_wire = comm.stats().bytes_sent;
    const count_t blocking_colls = comm.stats().collectives;

    Exchanger split(bound);
    comm.barrier();
    comm.reset_stats();
    split.start(comm, send, counts);
    const auto b = split.finish<std::uint64_t>(comm);
    EXPECT_EQ(std::vector<std::uint64_t>(b.begin(), b.end()), expect);
    // Same wire bytes, same number of collectives: overlap is free.
    EXPECT_EQ(comm.stats().bytes_sent, blocking_wire);
    EXPECT_EQ(comm.stats().collectives, blocking_colls);
    EXPECT_EQ(split.stats().phases, blocking.stats().phases);
    EXPECT_EQ(split.stats().bytes_sent, blocking.stats().bytes_sent);
  });
}

TEST(Exchanger, RepeatedExchangesReuseAndReport) {
  sim::run_world(3, [](sim::Comm& comm) {
    Exchanger ex(16);  // 2 records of 8 bytes per phase
    for (int round = 1; round <= 4; ++round) {
      std::vector<count_t> counts(3, round);
      std::vector<std::uint64_t> send(3 * static_cast<std::size_t>(round),
                                      static_cast<std::uint64_t>(round));
      const auto got = ex.exchange(comm, send, counts);
      ASSERT_EQ(got.size(), 3 * static_cast<std::size_t>(round));
      for (const std::uint64_t v : got)
        EXPECT_EQ(v, static_cast<std::uint64_t>(round));
    }
    EXPECT_EQ(ex.stats().exchanges, 4);
    EXPECT_GT(ex.stats().phases, 4);  // later rounds needed > 1 phase
  });
}

TEST(Exchanger, AllLocalTrafficIsWireFree) {
  sim::run_world(3, [](sim::Comm& comm) {
    DestBuckets<std::uint64_t> b;
    b.begin(comm.size());
    for (int i = 0; i < 5; ++i) b.count(comm.rank());
    b.commit();
    for (int i = 0; i < 5; ++i)
      b.push(comm.rank(), static_cast<std::uint64_t>(i));
    Exchanger ex;
    const count_t wire_before = comm.stats().bytes_sent;
    const auto got = ex.exchange(comm, b);
    ASSERT_EQ(got.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(got[i], i);
    // Self-destined data never touches the wire: neither the runtime
    // nor the Exchanger may bill it.
    EXPECT_EQ(comm.stats().bytes_sent, wire_before);
    EXPECT_EQ(ex.stats().bytes_sent, 0);
    EXPECT_EQ(ex.stats().records_sent, 5);
  });
}

TEST(Exchanger, ByteAccountingMatchesRuntimeStats) {
  const int nranks = 4;
  const count_t per_dest = 3;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto send = staged_payload(comm.rank(), nranks, per_dest);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      per_dest);
    Exchanger ex;
    const count_t wire_before = comm.stats().bytes_sent;
    (void)ex.exchange(comm, send, counts);
    // Unbounded mode issues exactly one alltoallv and nothing else, so
    // the Exchanger's ledger must equal the runtime's wire delta:
    // (nranks - 1) peers x per_dest records x 8 bytes.
    const count_t want = (nranks - 1) * per_dest *
                         static_cast<count_t>(sizeof(std::uint64_t));
    EXPECT_EQ(ex.stats().bytes_sent, want);
    EXPECT_EQ(comm.stats().bytes_sent - wire_before, want);
  });
}

TEST(Comm, WorldStatsSumsEveryRank) {
  const int nranks = 4;
  std::vector<count_t> per_rank(static_cast<std::size_t>(nranks), 0);
  std::vector<count_t> aggregated(static_cast<std::size_t>(nranks), 0);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Rank r ships r records to every peer.
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      comm.rank());
    const std::vector<std::uint64_t> send(
        static_cast<std::size_t>(nranks) *
            static_cast<std::size_t>(comm.rank()),
        7);
    (void)comm.alltoallv(send, counts);
    per_rank[static_cast<std::size_t>(comm.rank())] = comm.stats().bytes_sent;
    const sim::CommStats world = comm.world_stats();
    aggregated[static_cast<std::size_t>(comm.rank())] = world.bytes_sent;
    EXPECT_GT(world.collectives, 0);
  });
  const count_t sum =
      std::accumulate(per_rank.begin(), per_rank.end(), count_t(0));
  for (const count_t a : aggregated) EXPECT_EQ(a, sum);
}

// ---------------------------------------------------------------------------
// Exchange edge cases: sub-record bounds and all-empty rounds

TEST(Exchanger, SubRecordBoundClampsToOneRecordPerPhase) {
  // A max_send_bytes smaller than one record must clamp to exactly one
  // record per phase — progress every phase, never a degenerate plan.
  const int nranks = 3;
  const count_t per_dest = 2;
  for (const count_t bound : {count_t(1), count_t(3), count_t(7)}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto send = staged_payload(comm.rank(), nranks, per_dest);
      const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                        per_dest);
      const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);
      Exchanger ex(bound);
      const auto got = ex.exchange(comm, send, counts);
      EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
      // One record per phase: the phase count equals the largest
      // per-rank record total.
      EXPECT_EQ(ex.stats().phases,
                static_cast<count_t>(nranks) * per_dest);
      EXPECT_EQ(ex.stats().exchanges, 1);
    });
  }
}

TEST(Exchanger, AllEmptyBoundedExchangeSkipsTheWire) {
  // When every rank stages zero records, the bounded path already pays
  // one allreduce to agree on phases — it must learn "nothing anywhere"
  // from it and skip the payload collectives entirely, with identical
  // accounting on the blocking and start/finish paths.
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks), 0);
    const std::vector<std::uint64_t> send;

    Exchanger blocking(64);
    comm.barrier();
    comm.reset_stats();
    std::vector<count_t> rcounts;
    const auto got = blocking.exchange(comm, send, counts, &rcounts);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(rcounts, counts);
    EXPECT_EQ(blocking.stats().exchanges, 1);
    EXPECT_EQ(blocking.stats().phases, 0);
    // Exactly the phase-agreement allreduce hit the substrate — no
    // alltoallv was posted.
    EXPECT_EQ(comm.stats().collectives, 1);
    EXPECT_EQ(comm.stats().bytes_sent,
              static_cast<count_t>(sizeof(count_t)));

    Exchanger split(64);
    split.start(comm, send, counts);
    (void)comm.allreduce_sum<count_t>(1);
    const auto got2 = split.finish<std::uint64_t>(comm, &rcounts);
    EXPECT_TRUE(got2.empty());
    EXPECT_EQ(rcounts, counts);
    EXPECT_EQ(split.stats().phases, blocking.stats().phases);
    EXPECT_EQ(split.stats().exchanges, blocking.stats().exchanges);

    // Unbounded mode has no collective to agree with, so it still
    // posts its single (empty) alltoallv — pin that contract too.
    Exchanger unbounded;
    (void)unbounded.exchange(comm, send, counts);
    EXPECT_EQ(unbounded.stats().phases, 1);
  });
}

TEST(Exchanger, EmptyRoundsInterleaveWithNonEmptyOnes) {
  // Ranks alternate between staging work and staging nothing; the
  // all-empty skip must only trigger when *every* rank is empty.
  const int nranks = 3;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    Exchanger ex(16);
    for (int round = 0; round < 4; ++round) {
      const bool all_empty = round == 2;
      std::vector<count_t> counts(static_cast<std::size_t>(nranks), 0);
      std::vector<std::uint64_t> send;
      if (!all_empty && comm.rank() != round % nranks) {
        for (int d = 0; d < nranks; ++d) {
          counts[static_cast<std::size_t>(d)] = 3;
          for (int i = 0; i < 3; ++i)
            send.push_back(static_cast<std::uint64_t>(100 * round + i));
        }
      }
      const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);
      const auto got = ex.exchange(comm, send, counts);
      ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect)
          << "round=" << round;
    }
    EXPECT_EQ(ex.stats().exchanges, 4);
  });
}

// ---------------------------------------------------------------------------
// Hierarchical (node-aware) exchange

/// Deterministic per-(source, dest) record counts with some zero runs.
count_t ragged_count(int src, int dst, int salt) {
  const unsigned h = static_cast<unsigned>(src * 7919 + dst * 104729 +
                                           salt * 1299721);
  return static_cast<count_t>((h >> 3) % 5);  // 0..4 records
}

struct HierCase {
  int nranks;
  int ranks_per_node;
};

class HierWorlds : public ::testing::TestWithParam<HierCase> {};

INSTANTIATE_TEST_SUITE_P(
    Topologies, HierWorlds,
    ::testing::Values(HierCase{4, 1}, HierCase{4, 2}, HierCase{8, 3},
                      HierCase{8, 4}, HierCase{16, 4}, HierCase{16, 16}),
    [](const auto& inf) {
      return "ranks_" + std::to_string(inf.param.nranks) + "_rpn_" +
             std::to_string(inf.param.ranks_per_node);
    });

TEST_P(HierWorlds, HierarchicalBitIdenticalToFlatUnderAnyBound) {
  const auto [nranks, rpn] = GetParam();
  // Adversarial bounds: sub-record, one record, a bound that splits
  // inside the leaders' coalesced per-destination runs (3 records),
  // an odd mid-size, and effectively unbounded.
  for (const count_t bound :
       {count_t(0), count_t(1), count_t(8), count_t(24), count_t(40),
        count_t(1) << 20}) {
    sim::run_world(
        nranks,
        [&](sim::Comm& comm) {
          std::vector<count_t> counts(static_cast<std::size_t>(nranks));
          std::vector<std::uint64_t> send;
          for (int d = 0; d < nranks; ++d) {
            counts[static_cast<std::size_t>(d)] =
                ragged_count(comm.rank(), d, static_cast<int>(bound % 97));
            for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
              send.push_back(static_cast<std::uint64_t>(comm.rank()) *
                                 1'000'000 +
                             static_cast<std::uint64_t>(d) * 1'000 +
                             static_cast<std::uint64_t>(i));
          }
          std::vector<count_t> expect_rcounts;
          const std::vector<std::uint64_t> expect =
              comm.alltoallv(send, counts, &expect_rcounts);

          Exchanger ex(bound, comm::ShardPolicy::kHierarchical);
          std::vector<count_t> rcounts;
          const auto got = ex.exchange(comm, send, counts, &rcounts);
          ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()),
                    expect)
              << "bound=" << bound;
          EXPECT_EQ(rcounts, expect_rcounts);
          EXPECT_EQ(ex.stats().exchanges, 1);
        },
        rpn);
  }
}

TEST_P(HierWorlds, HierarchicalStartFinishSurvivesBufferDestruction) {
  const auto [nranks, rpn] = GetParam();
  for (const count_t bound : {count_t(0), count_t(8), count_t(64)}) {
    sim::run_world(
        nranks,
        [&](sim::Comm& comm) {
          std::vector<count_t> counts(static_cast<std::size_t>(nranks));
          std::vector<std::uint64_t> send;
          for (int d = 0; d < nranks; ++d) {
            counts[static_cast<std::size_t>(d)] =
                ragged_count(comm.rank(), d, 7);
            for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
              send.push_back(static_cast<std::uint64_t>(comm.rank()) *
                                 1'000'000 +
                             static_cast<std::uint64_t>(d) * 1'000 +
                             static_cast<std::uint64_t>(i));
          }
          std::vector<count_t> expect_rcounts;
          const std::vector<std::uint64_t> expect =
              comm.alltoallv(send, counts, &expect_rcounts);

          Exchanger ex(bound, comm::ShardPolicy::kHierarchical);
          ex.start(comm, send, counts);
          EXPECT_TRUE(ex.in_flight());
          // The hierarchical start copies the payload into its own
          // round-1 staging: the caller's buffer is dead immediately,
          // and blocking collectives may interleave mid-flight.
          std::fill(send.begin(), send.end(), 0xDEADBEEFu);
          send.clear();
          send.shrink_to_fit();
          EXPECT_EQ(comm.allreduce_sum<count_t>(1),
                    static_cast<count_t>(nranks));
          std::vector<count_t> rcounts;
          const auto got = ex.finish<std::uint64_t>(comm, &rcounts);
          EXPECT_FALSE(ex.in_flight());
          ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()),
                    expect)
              << "bound=" << bound;
          EXPECT_EQ(rcounts, expect_rcounts);
          EXPECT_EQ(ex.stats().overlapped, 1);
        },
        rpn);
  }
}

TEST(HierarchicalExchange, FewerInterNodeMessagesSameInterNodeBytes) {
  // 8 ranks in 2 nodes of 4, everyone sending to everyone: the flat
  // path ships one message per off-node peer per rank, the
  // hierarchical path exactly one leader-to-leader message per node
  // pair — same payload bytes crossing nodes, far fewer messages.
  const int nranks = 8;
  const count_t per_dest = 5;
  std::vector<count_t> flat_msgs(nranks), hier_msgs(nranks);
  std::vector<count_t> flat_inter(nranks), hier_inter(nranks);
  sim::run_world(
      nranks,
      [&](sim::Comm& comm) {
        const auto send = staged_payload(comm.rank(), nranks, per_dest);
        const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                          per_dest);
        Exchanger flat(0, comm::ShardPolicy::kFlat);
        Exchanger hier(0, comm::ShardPolicy::kHierarchical);
        const auto a = flat.exchange(comm, send, counts);
        const std::vector<std::uint64_t> expect(a.begin(), a.end());
        const auto b = hier.exchange(comm, send, counts);
        EXPECT_EQ(std::vector<std::uint64_t>(b.begin(), b.end()), expect);

        const auto me = static_cast<std::size_t>(comm.rank());
        flat_msgs[me] = flat.stats().inter_node_msgs;
        hier_msgs[me] = hier.stats().inter_node_msgs;
        flat_inter[me] = flat.stats().inter_node_bytes;
        hier_inter[me] = hier.stats().inter_node_bytes;
        // Ledger sanity: inter + intra must cover all wire bytes.
        EXPECT_EQ(flat.stats().inter_node_bytes +
                      flat.stats().intra_node_bytes,
                  flat.stats().bytes_sent);
        EXPECT_EQ(hier.stats().inter_node_bytes +
                      hier.stats().intra_node_bytes,
                  hier.stats().bytes_sent);
      },
      4);
  const auto sum = [](const std::vector<count_t>& v) {
    return std::accumulate(v.begin(), v.end(), count_t(0));
  };
  // Every record crossing a node boundary crosses it exactly once on
  // either path; the hierarchical routing only merges the envelopes.
  EXPECT_EQ(sum(hier_inter), sum(flat_inter));
  // Flat: 8 ranks x 4 off-node peers; hierarchical: 2 leaders x 1.
  EXPECT_EQ(sum(flat_msgs), 32);
  EXPECT_EQ(sum(hier_msgs), 2);
}

TEST(HierarchicalExchange, AllEmptyAndSingleNodeDegenerate) {
  sim::run_world(
      6,
      [](sim::Comm& comm) {
        // All-empty: no wire rounds at all, on any policy.
        Exchanger hier(32, comm::ShardPolicy::kHierarchical);
        const std::vector<count_t> zero(6, 0);
        const std::vector<std::uint64_t> none;
        const auto got = hier.exchange(comm, none, zero);
        EXPECT_TRUE(got.empty());
        EXPECT_EQ(hier.stats().phases, 0);

        // Single node (all six ranks co-located): the leader rounds
        // vanish and nothing crosses a node boundary.
        const std::vector<count_t> counts(6, 2);
        const auto send = staged_payload(comm.rank(), 6, 2);
        const std::vector<std::uint64_t> expect =
            comm.alltoallv(send, counts);
        const auto got2 = hier.exchange(comm, send, counts);
        EXPECT_EQ(std::vector<std::uint64_t>(got2.begin(), got2.end()),
                  expect);
        EXPECT_EQ(hier.stats().inter_node_bytes, 0);
        EXPECT_EQ(hier.stats().inter_node_msgs, 0);
      },
      8);
}

// ---------------------------------------------------------------------------
// Cross-superstep coalescing

TEST(CoalescingExchanger, BatchesRoundsUntilThresholdThenFlushes) {
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // One 8-byte record per destination per round = 32 pending bytes
    // per round; threshold 64 flushes on the second enqueue.
    comm::CoalescingExchanger co(64);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks), 1);
    auto round_payload = [&](int round) {
      std::vector<std::uint64_t> send;
      for (int d = 0; d < nranks; ++d)
        send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1'000'000 +
                       static_cast<std::uint64_t>(d) * 1'000 +
                       static_cast<std::uint64_t>(round));
      return send;
    };

    const auto r1 = co.enqueue(comm, round_payload(1), counts);
    EXPECT_FALSE(r1.has_value());
    EXPECT_EQ(co.pending_rounds(), 1);
    EXPECT_EQ(co.pending_bytes(), 32);

    const auto r2 = co.enqueue(comm, round_payload(2), counts);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(co.pending_bytes(), 0);
    EXPECT_EQ(co.stats().coalesced_flushes, 1);
    // Arrivals are grouped by source; within a source, rounds appear
    // in enqueue order.
    ASSERT_EQ(r2->size(), static_cast<std::size_t>(2 * nranks));
    for (int s = 0; s < nranks; ++s)
      for (int round = 1; round <= 2; ++round)
        EXPECT_EQ((*r2)[static_cast<std::size_t>(s * 2 + round - 1)],
                  static_cast<std::uint64_t>(s) * 1'000'000 +
                      static_cast<std::uint64_t>(comm.rank()) * 1'000 +
                      static_cast<std::uint64_t>(round));

    // Explicit flush drains a partial batch (still collective).
    (void)co.enqueue(comm, round_payload(3), counts);
    std::vector<count_t> rcounts;
    const auto r3 = co.flush<std::uint64_t>(comm, &rcounts);
    ASSERT_EQ(r3.size(), static_cast<std::size_t>(nranks));
    EXPECT_EQ(rcounts,
              std::vector<count_t>(static_cast<std::size_t>(nranks), 1));
    EXPECT_EQ(co.stats().coalesced_flushes, 2);
    // The wire saw two exchanges for three logical rounds.
    EXPECT_EQ(co.stats().exchanges, 2);
  });
}

TEST(CoalescingExchanger, HierarchicalPolicyAppliesToFlushes) {
  sim::run_world(
      8,
      [](sim::Comm& comm) {
        comm::CoalescingExchanger co(0, 0,
                                     comm::ShardPolicy::kHierarchical);
        const std::vector<count_t> counts(8, 2);
        const auto send = staged_payload(comm.rank(), 8, 2);
        const std::vector<std::uint64_t> expect =
            comm.alltoallv(send, counts);
        EXPECT_FALSE(co.enqueue(comm, send, counts).has_value());
        const auto got = co.flush<std::uint64_t>(comm);
        EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()),
                  expect);
        // Two nodes of four: at most one leader-to-leader message.
        EXPECT_LE(co.stats().inter_node_msgs, 1);
      },
      4);
}

// ---------------------------------------------------------------------------
// Query/reply round trip

TEST(QueryReply, RepliesAlignWithQueries) {
  const int nranks = 3;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Ask every rank (incl. self) to square our rank-tagged values;
    // replies must come back in exactly the order we asked.
    DestBuckets<std::uint64_t> b;
    b.begin(nranks);
    for (int d = 0; d < nranks; ++d)
      for (int i = 0; i < 2; ++i) b.count(d);
    b.commit();
    std::vector<std::uint64_t> asked;
    for (int d = 0; d < nranks; ++d)
      for (int i = 0; i < 2; ++i) {
        const auto q = static_cast<std::uint64_t>(
            10 * (comm.rank() + 1) + d * 2 + i);
        b.push(d, q);
        asked.push_back(q);
      }
    Exchanger ex;
    const auto replies = comm::query_reply(
        comm, ex, b.records(), b.counts(),
        [](const std::uint64_t q) { return q * q; });
    ASSERT_EQ(replies.size(), asked.size());
    // records() is grouped by destination in push order — same order
    // the replies use.
    for (std::size_t i = 0; i < asked.size(); ++i)
      EXPECT_EQ(replies[i], b.records()[i] * b.records()[i]);
  });
}

// ---------------------------------------------------------------------------
// End-to-end: bounded exchange through the real callers

TEST(BoundedExchange, HaloRefreshIdenticalUnderAnyBound) {
  const graph::EdgeList el = gen::erdos_renyi(500, 8, 11);
  for (const count_t bound : {count_t(0), count_t(8), count_t(64),
                              count_t(1) << 20}) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, 3, 5));
      graph::HaloPlan halo(comm, g, env_shard(), env_backend());
      halo.set_max_send_bytes(bound);
      std::vector<gid_t> vals(g.n_total(), 0);
      for (lid_t v = 0; v < g.n_local(); ++v) vals[v] = g.gid_of(v) * 3 + 1;
      halo.exchange(comm, vals);
      for (lid_t v = 0; v < g.n_total(); ++v)
        EXPECT_EQ(vals[v], g.gid_of(v) * 3 + 1);
    });
  }
}

TEST(BoundedExchange, HaloPrefetchInterleavedIdenticalUnderAnyBound) {
  // The overlapped prefetch pipeline — boundary compute, prefetch,
  // interior compute (mutating vals mid-flight), collectives in
  // between, finish — must leave vals exactly as the blocking
  // exchange would, for unbounded and multi-phase bounds alike.
  const graph::EdgeList el = gen::erdos_renyi(500, 8, 11);
  for (const count_t bound : {count_t(0), count_t(8), count_t(64),
                              count_t(1) << 20}) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, 3, 5));
      graph::HaloPlan blocking_halo(comm, g, env_shard(), env_backend());
      graph::HaloPlan overlap_halo(comm, g, env_shard(), env_backend());
      blocking_halo.set_max_send_bytes(bound);
      overlap_halo.set_max_send_bytes(bound);
      // Meter only the replayed exchanges, not the constructor's
      // (blocking) registration round.
      overlap_halo.reset_stats();

      std::vector<gid_t> expect(g.n_total());
      std::vector<gid_t> vals(g.n_total());
      for (lid_t v = 0; v < g.n_total(); ++v)
        expect[v] = vals[v] = g.gid_of(v);

      for (int iter = 1; iter <= 3; ++iter) {
        // Reference superstep: update every owned value, then refresh.
        for (lid_t v = 0; v < g.n_local(); ++v)
          expect[v] = expect[v] * 7 + static_cast<gid_t>(iter);
        blocking_halo.exchange(comm, expect);

        // Overlapped superstep: boundary first, ship, interior while
        // the wire drains (with an interleaved allreduce), finish.
        for (const lid_t v : overlap_halo.boundary_lids())
          vals[v] = vals[v] * 7 + static_cast<gid_t>(iter);
        overlap_halo.prefetch_next(comm, vals);
        EXPECT_TRUE(overlap_halo.prefetch_in_flight());
        for (lid_t v = 0; v < g.n_local(); ++v)
          if (!overlap_halo.is_boundary(v))
            vals[v] = vals[v] * 7 + static_cast<gid_t>(iter);
        (void)comm.allreduce_sum<count_t>(1);
        overlap_halo.finish_prefetch(comm, vals);
        EXPECT_FALSE(overlap_halo.prefetch_in_flight());

        ASSERT_EQ(vals, expect) << "bound=" << bound << " iter=" << iter;
      }
      EXPECT_EQ(overlap_halo.stats().overlapped,
                overlap_halo.stats().exchanges);
    });
  }
}

TEST(BoundedExchange, UpdateExchangerSplitMatchesRun) {
  // start(); <unrelated allreduce>; finish() must apply exactly the
  // ghost updates run() would, including when the queue is empty on
  // some ranks and the exchange is multi-phase.
  const graph::EdgeList el = gen::erdos_renyi(400, 10, 17);
  for (const count_t bound : {count_t(0), count_t(sizeof(core::PartUpdate)),
                              count_t(1) << 16}) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::block(el.n, 3));
      core::UpdateExchanger run_ex(bound);
      core::UpdateExchanger split_ex(bound);
      run_ex.set_backend(env_backend());
      split_ex.set_backend(env_backend());
      std::vector<part_t> run_parts(g.n_total(), 0);
      std::vector<part_t> split_parts(g.n_total(), 0);
      for (int it = 0; it < 3; ++it) {
        std::vector<lid_t> queue;
        // Rank 2 sits out every other iteration (still collective).
        if (!(comm.rank() == 2 && it % 2 == 1))
          for (lid_t v = 0; v < g.n_local(); v += 2) {
            run_parts[v] = split_parts[v] =
                static_cast<part_t>((v + static_cast<lid_t>(it)) % 5);
            queue.push_back(v);
          }
        run_ex.run(comm, g, run_parts, queue);

        split_ex.start(comm, g, split_parts, queue);
        (void)comm.allreduce_sum<count_t>(1);  // overlapped local work
        split_ex.finish(comm, g, split_parts);

        ASSERT_EQ(split_parts, run_parts) << "bound=" << bound
                                          << " iter=" << it;
      }
    });
  }
}

TEST(HierarchicalCallers, HaloPrefetchIdenticalUnderHierRouting) {
  // The overlapped halo pipeline, rerouted hierarchically, must leave
  // vals exactly as the flat blocking exchange would — including
  // multi-phase bounds and mid-flight mutation of vals.
  const graph::EdgeList el = gen::erdos_renyi(400, 8, 29);
  for (const count_t bound : {count_t(0), count_t(8), count_t(1) << 14}) {
    sim::run_world(
        6,
        [&](sim::Comm& comm) {
          const auto g = graph::build_dist_graph(
              comm, el, graph::VertexDist::random(el.n, 6, 5));
          graph::HaloPlan flat_halo(comm, g);
          graph::HaloPlan hier_halo(comm, g,
                                    comm::ShardPolicy::kHierarchical);
          flat_halo.set_max_send_bytes(bound);
          hier_halo.set_max_send_bytes(bound);

          std::vector<gid_t> expect(g.n_total());
          std::vector<gid_t> vals(g.n_total());
          for (lid_t v = 0; v < g.n_total(); ++v)
            expect[v] = vals[v] = g.gid_of(v);
          for (int iter = 1; iter <= 3; ++iter) {
            for (lid_t v = 0; v < g.n_local(); ++v)
              expect[v] = expect[v] * 5 + static_cast<gid_t>(iter);
            flat_halo.exchange(comm, expect);

            for (const lid_t v : hier_halo.boundary_lids())
              vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
            hier_halo.prefetch_next(comm, vals);
            for (lid_t v = 0; v < g.n_local(); ++v)
              if (!hier_halo.is_boundary(v))
                vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
            (void)comm.allreduce_sum<count_t>(1);
            hier_halo.finish_prefetch(comm, vals);
            ASSERT_EQ(vals, expect) << "bound=" << bound
                                    << " iter=" << iter;
          }
        },
        3);
  }
}

TEST(HierarchicalCallers, UpdateExchangerIdenticalUnderHierRouting) {
  const graph::EdgeList el = gen::erdos_renyi(300, 10, 31);
  for (const count_t bound : {count_t(0), count_t(sizeof(core::PartUpdate)),
                              count_t(1) << 12}) {
    sim::run_world(
        6,
        [&](sim::Comm& comm) {
          const auto g = graph::build_dist_graph(
              comm, el, graph::VertexDist::block(el.n, 6));
          core::UpdateExchanger flat_ex(bound);
          core::UpdateExchanger hier_ex(bound);
          hier_ex.set_shard_policy(comm::ShardPolicy::kHierarchical);
          std::vector<part_t> flat_parts(g.n_total(), 0);
          std::vector<part_t> hier_parts(g.n_total(), 0);
          for (int it = 0; it < 3; ++it) {
            std::vector<lid_t> queue;
            if (!(comm.rank() % 2 == 0 && it == 1))
              for (lid_t v = 0; v < g.n_local(); v += 3) {
                flat_parts[v] = hier_parts[v] =
                    static_cast<part_t>((v + static_cast<lid_t>(it)) % 4);
                queue.push_back(v);
              }
            flat_ex.run(comm, g, flat_parts, queue);
            hier_ex.start(comm, g, hier_parts, queue);
            (void)comm.allreduce_sum<count_t>(1);
            hier_ex.finish(comm, g, hier_parts);
            ASSERT_EQ(hier_parts, flat_parts) << "bound=" << bound
                                              << " iter=" << it;
          }
        },
        2);
  }
}

TEST(HierarchicalCallers, AnalyticsAndSpmvIdenticalUnderHierRouting) {
  const graph::EdgeList el = gen::erdos_renyi(350, 7, 41);
  sim::run_world(
      6,
      [&](sim::Comm& comm) {
        const auto g = graph::build_dist_graph(
            comm, el, graph::VertexDist::block(el.n, 6));
        const auto wcc_flat = analytics::weakly_connected_components(
            comm, g, comm::ShardPolicy::kFlat);
        const auto wcc_hier = analytics::weakly_connected_components(
            comm, g, comm::ShardPolicy::kHierarchical);
        EXPECT_EQ(wcc_hier.component, wcc_flat.component);
        EXPECT_EQ(wcc_hier.num_components, wcc_flat.num_components);

        const auto lp_flat = analytics::label_propagation(
            comm, g, 4, comm::ShardPolicy::kFlat);
        const auto lp_hier = analytics::label_propagation(
            comm, g, 4, comm::ShardPolicy::kHierarchical);
        EXPECT_EQ(lp_hier.label, lp_flat.label);
        EXPECT_EQ(lp_hier.num_communities, lp_flat.num_communities);

        std::vector<int> owners(el.n);
        for (gid_t v = 0; v < el.n; ++v)
          owners[v] = static_cast<int>(v % 6);
        spmv::DistSpmv flat_spmv(comm, el, owners, spmv::Layout::kOneD);
        spmv::DistSpmv hier_spmv(comm, el, owners, spmv::Layout::kOneD,
                                 comm::ShardPolicy::kHierarchical);
        const auto sf = flat_spmv.run(comm, 5);
        const auto sh = hier_spmv.run(comm, 5);
        // Same arrival grouping and order => bit-identical doubles.
        EXPECT_EQ(sh.checksum, sf.checksum);
      },
      3);
}

TEST(HierarchicalCallers, PartitionBitIdenticalUnderShardPolicy) {
  const graph::EdgeList el = gen::erdos_renyi(300, 6, 23);
  core::Params params;
  params.nparts = 4;
  params.outer_iters = 1;

  auto run = [&](comm::ShardPolicy policy, count_t bound) {
    params.shard_policy = policy;
    params.max_exchange_bytes = bound;
    std::vector<part_t> global;
    sim::run_world(
        6,
        [&](sim::Comm& comm) {
          const auto g = graph::build_dist_graph(
              comm, el, graph::VertexDist::block(el.n, 6));
          const auto r = core::partition(comm, g, params);
          const auto gp = core::gather_global_parts(comm, g, r.parts);
          if (comm.rank() == 0) global = gp;
        },
        2);
    return global;
  };

  const std::vector<part_t> flat = run(comm::ShardPolicy::kFlat, 0);
  ASSERT_EQ(flat.size(), el.n);
  EXPECT_EQ(run(comm::ShardPolicy::kHierarchical, 0), flat);
  EXPECT_EQ(run(comm::ShardPolicy::kHierarchical, 256), flat);
  EXPECT_EQ(run(comm::ShardPolicy::kHierarchical,
                sizeof(core::PartUpdate)),
            flat);
}

TEST(BoundedExchange, PartitionBitIdenticalUnderAnyBound) {
  const graph::EdgeList el = gen::erdos_renyi(300, 6, 23);
  core::Params params;
  params.nparts = 4;
  params.outer_iters = 1;

  auto run = [&](count_t bound) {
    params.max_exchange_bytes = bound;
    std::vector<part_t> global;
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::block(el.n, 3));
      const auto r = core::partition(comm, g, params);
      const auto gp = core::gather_global_parts(comm, g, r.parts);
      if (comm.rank() == 0) global = gp;
    });
    return global;
  };

  const std::vector<part_t> unbounded = run(0);
  ASSERT_EQ(unbounded.size(), el.n);
  // The paper's memory-bounded multi-phase communication must not
  // change the algorithm: one PartUpdate per phase, a modest budget,
  // and effectively-unbounded all agree bit-for-bit.
  EXPECT_EQ(run(sizeof(core::PartUpdate)), unbounded);
  EXPECT_EQ(run(256), unbounded);
  EXPECT_EQ(run(count_t(1) << 24), unbounded);
}

// ---------------------------------------------------------------------------
// One-sided (pull-mode) backend

TEST(OneSidedExchange, BitIdenticalToTwoSidedAndSameWireBytes) {
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Ragged payload: rank r sends (r + d) records to destination d.
    std::vector<count_t> counts(static_cast<std::size_t>(nranks));
    std::vector<std::uint64_t> send;
    for (int d = 0; d < nranks; ++d) {
      counts[static_cast<std::size_t>(d)] = comm.rank() + d;
      for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
        send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1'000'000 +
                       static_cast<std::uint64_t>(d) * 1'000 +
                       static_cast<std::uint64_t>(i));
    }

    comm.barrier();
    comm.reset_stats();
    Exchanger push;
    std::vector<count_t> push_rcounts;
    const auto pushed = push.exchange(comm, send, counts, &push_rcounts);
    const std::vector<std::uint64_t> expect(pushed.begin(), pushed.end());
    const count_t push_wire = comm.stats().bytes_sent;

    comm.barrier();
    comm.reset_stats();
    Exchanger pull(0, comm::ShardPolicy::kFlat, comm::Backend::kOneSided);
    EXPECT_EQ(pull.backend(), comm::Backend::kOneSided);
    std::vector<count_t> pull_rcounts;
    const auto got = pull.exchange(comm, send, counts, &pull_rcounts);
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(pull_rcounts, push_rcounts);
    // Consumers fetch exactly the records the push would have
    // delivered, so the wire payload matches byte for byte; the
    // ledger shows how it traveled.
    EXPECT_EQ(comm.stats().bytes_sent, push_wire);
    EXPECT_EQ(pull.stats().bytes_sent, push.stats().bytes_sent);
    EXPECT_EQ(pull.stats().exchanges, 1);
    EXPECT_EQ(pull.stats().phases, 1);
    EXPECT_GT(pull.stats().one_sided_gets, 0);
    EXPECT_GT(comm.stats().one_sided_bytes, 0);
    EXPECT_EQ(push.stats().one_sided_gets, 0);
  });
}

TEST(OneSidedExchange, StartFinishOverlapsAndSurvivesBufferDeath) {
  const int nranks = 4;
  const count_t per_dest = 6;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    auto send = staged_payload(comm.rank(), nranks, per_dest);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      per_dest);
    const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);

    Exchanger ex(0, comm::ShardPolicy::kFlat, comm::Backend::kOneSided);
    ex.start(comm, send, counts);
    EXPECT_TRUE(ex.in_flight());
    // The snapshot backs the exposed window — the caller's buffer may
    // die, and blocking collectives may run, while peers still pull.
    std::fill(send.begin(), send.end(), 0xDEADBEEFu);
    send.clear();
    send.shrink_to_fit();
    EXPECT_EQ(comm.allreduce_sum<count_t>(1), static_cast<count_t>(nranks));
    const auto got = ex.finish<std::uint64_t>(comm);
    EXPECT_FALSE(ex.in_flight());
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(ex.stats().overlapped, 1);
  });
}

TEST(OneSidedExchange, HierarchicalRoutingBitIdentical) {
  // 8 ranks, 4 per node: every leg of the 3-round hier protocol runs
  // pull-mode, and the result must still match the flat push path.
  const int nranks = 8;
  const count_t per_dest = 5;
  sim::run_world(
      nranks,
      [&](sim::Comm& comm) {
        const auto send = staged_payload(comm.rank(), nranks, per_dest);
        const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                          per_dest);
        const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);

        Exchanger ex(0, comm::ShardPolicy::kHierarchical,
                     comm::Backend::kOneSided);
        std::vector<count_t> rcounts;
        const auto got = ex.exchange(comm, send, counts, &rcounts);
        EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
        EXPECT_GT(ex.stats().one_sided_gets, 0);
        EXPECT_GT(ex.stats().one_sided_bytes, 0);
      },
      4);
}

TEST(OneSidedExchange, CoalescerAndQueryReplyRidePullMode) {
  sim::run_world(3, [](sim::Comm& comm) {
    // Coalesced rounds flush through the pull path...
    comm::CoalescingExchanger co(0, 0, comm::ShardPolicy::kFlat,
                                 comm::Backend::kOneSided);
    DestBuckets<std::uint64_t> b;
    b.build(comm.size(), std::vector<std::uint64_t>{1, 2, 3},
            [&](std::uint64_t v) {
              return static_cast<int>(v) % comm.size();
            },
            [&](std::uint64_t v) {
              return v * 10 + static_cast<std::uint64_t>(comm.rank());
            });
    EXPECT_FALSE(co.enqueue(comm, b).has_value());  // explicit-flush mode
    const auto got = co.flush<std::uint64_t>(comm);
    count_t mine = 0;
    for (std::uint64_t v = 1; v <= 3; ++v)
      if (static_cast<int>(v) % comm.size() == comm.rank())
        mine += comm.size();
    EXPECT_EQ(static_cast<count_t>(got.size()), mine);

    // ...and the query/reply round trip answers correctly end to end.
    Exchanger ex(0, comm::ShardPolicy::kFlat, comm::Backend::kOneSided);
    DestBuckets<std::uint64_t> q;
    q.build(comm.size(), std::vector<std::uint64_t>{0, 1, 2},
            [&](std::uint64_t v) { return static_cast<int>(v) % comm.size(); },
            [](std::uint64_t v) { return v; });
    const auto replies = comm::query_reply(
        comm, ex, q.records(), q.counts(),
        [&](const std::uint64_t& v) { return v * 100 + 7; });
    ASSERT_EQ(replies.size(), q.records().size());
    for (std::size_t i = 0; i < replies.size(); ++i)
      EXPECT_EQ(replies[i], q.records()[i] * 100 + 7);
  });
}

TEST(OneSidedExchange, AllEmptyExchangeStillCollective) {
  sim::run_world(3, [](sim::Comm& comm) {
    Exchanger ex(0, comm::ShardPolicy::kFlat, comm::Backend::kOneSided);
    const std::vector<count_t> counts(3, 0);
    const std::vector<std::uint64_t> send;
    std::vector<count_t> rcounts;
    const auto got = ex.exchange(comm, send, counts, &rcounts);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(rcounts, counts);
    EXPECT_EQ(ex.stats().bytes_sent, 0);
    EXPECT_EQ(ex.stats().one_sided_bytes, 0);
  });
}

}  // namespace
}  // namespace xtra
