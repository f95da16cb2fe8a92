#include "comm/exchanger.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"
#include "util/timer.hpp"

namespace xtra::comm {

namespace {

/// Per-destination counts of the record window [lo, hi) of a
/// destination-grouped send buffer. The buffer is grouped by
/// destination, so every window's per-destination runs are contiguous
/// and in destination order — each window is itself a valid alltoallv
/// send buffer.
void window_counts(const std::vector<count_t>& offsets, count_t lo,
                   count_t hi, std::vector<count_t>& out) {
  const std::size_t nranks = offsets.size() - 1;
  out.resize(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    const count_t a = std::max(lo, offsets[r]);
    const count_t b = std::min(hi, offsets[r + 1]);
    out[r] = std::max<count_t>(0, b - a);
  }
}

}  // namespace

/// State of one hierarchical exchange: three flat sub-exchanges (each
/// independently max_send_bytes-phased) plus the full counts matrix
/// and the per-round destination-grouped staging buffers. Owned lazily
/// by the Exchanger, reused across exchanges.
struct Exchanger::Hier {
  Exchanger gather;   ///< round 1: node-local direct + forward-to-leader
  Exchanger leaders;  ///< round 2: coalesced leader-to-leader alltoallv
  Exchanger scatter;  ///< round 3: leader to final destination

  std::vector<count_t> allcounts;  ///< P x P, row-major by source rank
  std::vector<std::byte> r1_send, r2_send, r3_send;
  std::vector<count_t> r1_counts, r2_counts, r3_counts;
  bool empty = false;       ///< globally zero records this exchange
  bool cross_node = false;  ///< some record crosses a node boundary

  /// Wire-ledger fields of the three sub-exchanges, summed; the parent
  /// rolls the per-exchange delta into its own ExchangeStats.
  struct Sums {
    count_t bytes = 0, phases = 0, inter_b = 0, intra_b = 0, inter_m = 0;
    count_t os_gets = 0, os_bytes = 0;
  };
  Sums sums() const {
    Sums s;
    for (const Exchanger* e : {&gather, &leaders, &scatter}) {
      s.bytes += e->stats_.bytes_sent;
      s.phases += e->stats_.phases;
      s.inter_b += e->stats_.inter_node_bytes;
      s.intra_b += e->stats_.intra_node_bytes;
      s.inter_m += e->stats_.inter_node_msgs;
      s.os_gets += e->stats_.one_sided_gets;
      s.os_bytes += e->stats_.one_sided_bytes;
    }
    return s;
  }
  Sums base;  ///< snapshot taken at start_hier
};

Exchanger::Exchanger(count_t max_send_bytes, ShardPolicy policy,
                     Backend backend)
    : max_send_bytes_(max_send_bytes), policy_(policy), backend_(backend) {}
Exchanger::~Exchanger() = default;
Exchanger::Exchanger(Exchanger&&) noexcept = default;
Exchanger& Exchanger::operator=(Exchanger&&) noexcept = default;

void Exchanger::account_phase(sim::Comm& comm,
                              const std::vector<count_t>& counts,
                              std::size_t elem) {
  const int me = comm.rank();
  const int mynode = comm.node_of(me);
  for (int r = 0; r < comm.size(); ++r) {
    const count_t c = counts[static_cast<std::size_t>(r)];
    if (r == me || c == 0) continue;
    const count_t b = c * static_cast<count_t>(elem);
    if (comm.node_of(r) == mynode) {
      stats_.intra_node_bytes += b;
    } else {
      stats_.inter_node_bytes += b;
      ++stats_.inter_node_msgs;
    }
  }
}

void Exchanger::start_bytes(sim::Comm& comm, const std::byte* send,
                            std::size_t elem,
                            const std::vector<count_t>& counts,
                            StartMode mode) {
  XTRA_ASSERT_MSG(!pending_.active_,
                  "Exchanger::start while an exchange is in flight");
  XTRA_ASSERT(counts.size() == static_cast<std::size_t>(comm.size()));

  // Per-exchange bookkeeping shared by both routing policies (the
  // wire-side ledgers differ: flat bills its payload here, the
  // hierarchical path rolls up its rounds' sub-exchange deltas).
  count_t total = 0;
  for (const count_t c : counts) total += c;
  ++stats_.exchanges;
  stats_.records_sent += total;
  if (mode != StartMode::kBlocking) {
    ++stats_.overlapped;
    stats_.max_inflight_bytes =
        std::max(stats_.max_inflight_bytes,
                 total * static_cast<count_t>(elem));
  }

  if (policy_ == ShardPolicy::kHierarchical) {
    start_hier(comm, send, elem, counts, total);
    return;
  }
  Timer t;
  const int nranks = comm.size();
  const int me = comm.rank();

  // Stage the in-flight state. A snapshotting start() releases the
  // caller's buffer here; start_inplace() and the blocking exchange()
  // alias it instead (their buffers stay valid until the finish half).
  pending_.elem_ = elem;
  pending_.total_ = total;
  pending_.counts_ = counts;
  pending_.offsets_.resize(counts.size() + 1);
  count_t running = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    pending_.offsets_[i] = running;
    running += counts[i];
  }
  pending_.offsets_[counts.size()] = running;
  if (mode == StartMode::kSnapshot) {
    // Nothing staged locally means nothing to snapshot.
    pending_.staging_.resize(static_cast<std::size_t>(total) * elem);
    if (total > 0)
      std::memcpy(pending_.staging_.data(), send,
                  static_cast<std::size_t>(total) * elem);
    pending_.wire_ = pending_.staging_.data();
  } else {
    pending_.wire_ = send;
  }

  if (backend_ == Backend::kOneSided) {
    // Pull mode: no sender-side wire billing (consumers pay per get)
    // and no phase agreement (the pull is receiver-paced).
    start_onesided(comm, elem);
    const double sec1 = t.seconds();
    stats_.seconds += sec1;
    stats_.start_seconds += sec1;
    return;
  }

  for (int r = 0; r < nranks; ++r)
    if (r != me)
      stats_.bytes_sent +=
          counts[static_cast<std::size_t>(r)] * static_cast<count_t>(elem);

  // Agree on a global phase count. Unbounded mode skips the allreduce:
  // all ranks constructed with max_send_bytes == 0 know the answer.
  pending_.nphases_ = 1;
  pending_.max_records_ = std::max<count_t>(total, 1);
  if (max_send_bytes_ > 0) {
    // A bound smaller than one record clamps to exactly one record per
    // phase — every phase makes progress, never a zero-record plan.
    pending_.max_records_ =
        std::max<count_t>(1, max_send_bytes_ / static_cast<count_t>(elem));
    const count_t gmax_total = comm.allreduce_max(total);
    if (gmax_total == 0) {
      // All-empty exchange: every rank staged zero records, so skip
      // the wire entirely — zero phases, an empty grouped-by-source
      // result, and identical accounting on the blocking and
      // start/finish paths.
      pending_.nphases_ = 0;
      pending_.phase_ = 0;
      pending_.active_ = true;
      rcounts_.assign(static_cast<std::size_t>(nranks), 0);
      recv_total_ = 0;
      recv_bytes_.clear();
      const double sec0 = t.seconds();
      stats_.seconds += sec0;
      stats_.start_seconds += sec0;
      return;
    }
    pending_.nphases_ =
        (gmax_total + pending_.max_records_ - 1) / pending_.max_records_;
  }
  pending_.phase_ = 0;
  pending_.active_ = true;
  // Every started exchange rides its own substrate channel, so several
  // Exchangers (halo refreshes, aux exchanges) may be in flight at
  // once. The scan is rank-uniform — collective ordering keeps the
  // in-flight channel sets identical on every rank.
  pending_.channel_ = comm.find_free_channel();

  if (pending_.nphases_ == 1) {
    // Single-phase: post the whole payload; arrival counts and the
    // receive buffer are handled by the finish half.
    account_phase(comm, pending_.counts_, elem);
    (void)comm.alltoallv_bytes_start(pending_.wire_, elem, pending_.counts_,
                                     pending_.channel_, label_);
  } else {
    // Phased mode: learn the final per-source totals up front (one
    // small alltoall), so every phase's arrivals land directly in
    // their final position — the receive side peaks at the payload
    // size, never double-buffers. Then post phase 0.
    rcounts_ = comm.alltoall(pending_.counts_);
    recv_total_ = 0;
    cursor_.resize(static_cast<std::size_t>(nranks));
    for (int s = 0; s < nranks; ++s) {
      cursor_[static_cast<std::size_t>(s)] = recv_total_;
      recv_total_ += rcounts_[static_cast<std::size_t>(s)];
    }
    recv_bytes_.resize(static_cast<std::size_t>(recv_total_) * elem);
    const count_t hi = std::min(pending_.max_records_, total);
    window_counts(pending_.offsets_, 0, hi, phase_counts_);
    account_phase(comm, phase_counts_, elem);
    (void)comm.alltoallv_bytes_start(pending_.wire_, elem, phase_counts_,
                                     pending_.channel_, label_);
  }
  const double sec = t.seconds();
  stats_.seconds += sec;
  stats_.start_seconds += sec;
}

void Exchanger::finish_bytes(sim::Comm& comm) {
  XTRA_ASSERT_MSG(pending_.active_,
                  "Exchanger::finish without a started exchange");
  if (hier_inflight_) {
    finish_hier(comm);
    return;
  }
  if (onesided_inflight_) {
    finish_onesided(comm);
    return;
  }
  Timer t;
  const int nranks = comm.size();
  const std::size_t elem = pending_.elem_;

  if (pending_.nphases_ == 1) {
    recv_total_ =
        comm.alltoallv_bytes_finish(recv_bytes_, &rcounts_, pending_.channel_);
    ++stats_.phases;
  } else {
    // All-empty exchanges (zero phases) skip the loop: nothing was
    // posted and the start half installed the (empty) result.
    const count_t total = pending_.total_;
    while (pending_.phase_ < pending_.nphases_) {
      // Drain phase p, immediately post phase p+1 so it is in flight
      // while p's arrivals are scattered into their final positions.
      (void)comm.alltoallv_bytes_finish(phase_bytes_, &phase_rcounts_,
                                        pending_.channel_);
      ++stats_.phases;
      ++pending_.phase_;
      if (pending_.phase_ < pending_.nphases_) {
        const count_t lo =
            std::min(pending_.phase_ * pending_.max_records_, total);
        const count_t hi = std::min(lo + pending_.max_records_, total);
        window_counts(pending_.offsets_, lo, hi, phase_counts_);
        account_phase(comm, phase_counts_, elem);
        // Successor phases reuse the exchange's channel — it freed the
        // instant the previous phase finished.
        (void)comm.alltoallv_bytes_start(
            pending_.wire_ + static_cast<std::size_t>(lo) * elem, elem,
            phase_counts_, pending_.channel_, label_);
      }
      // Arrivals from source s across phases, concatenated in phase
      // order, are exactly s's single-alltoallv segment (each phase
      // window preserves the within-destination record order).
      std::size_t pos = 0;
      for (int s = 0; s < nranks; ++s) {
        const count_t c = phase_rcounts_[static_cast<std::size_t>(s)];
        if (c == 0) continue;
        const std::size_t len = static_cast<std::size_t>(c) * elem;
        std::memcpy(recv_bytes_.data() +
                        static_cast<std::size_t>(
                            cursor_[static_cast<std::size_t>(s)]) *
                            elem,
                    phase_bytes_.data() + pos, len);
        cursor_[static_cast<std::size_t>(s)] += c;
        pos += len;
      }
    }
#ifndef NDEBUG
    if (pending_.nphases_ > 0)
      // Every cursor must have advanced to the next source's start.
      for (int s = 0; s + 1 < nranks; ++s)
        XTRA_DEBUG_ASSERT(cursor_[static_cast<std::size_t>(s)] ==
                          cursor_[static_cast<std::size_t>(s + 1)] -
                              rcounts_[static_cast<std::size_t>(s + 1)]);
#endif
  }
  pending_.active_ = false;
  pending_.wire_ = nullptr;
  const double sec = t.seconds();
  stats_.seconds += sec;
  stats_.finish_seconds += sec;
}

// ---------------------------------------------------------------------------
// One-sided transport: the start half exposes the staged
// destination-grouped payload in a substrate window, registering the
// per-destination counts as free metadata; the drain half pulls each
// per-source segment passively with win_get and closes the epoch.
// Bit-identity with the two-sided path is by construction — the same
// records are fetched from the same layout the push would have sent —
// and billing moves to the consumer: per-get wire bytes on the
// substrate side, the one_sided_* ledger here.

void Exchanger::start_onesided(sim::Comm& comm, std::size_t elem) {
  pending_.nphases_ = 1;  // the pull completes in one finish
  pending_.phase_ = 0;
  pending_.max_records_ = std::max<count_t>(pending_.total_, 1);
  pending_.win_ = comm.find_free_window();
  pending_.active_ = true;
  onesided_inflight_ = true;
  // The exposure is read-only by protocol: peers pull with win_get and
  // never put, so exposing the (const) staged payload is sound.
  comm.win_expose(
      const_cast<std::byte*>(pending_.wire_),
      static_cast<std::size_t>(pending_.total_) * elem,
      pending_.counts_.data(), pending_.win_, label_);
}

void Exchanger::finish_onesided(sim::Comm& comm) {
  Timer t;
  const int P = comm.size();
  const int me = comm.rank();
  const std::size_t elem = pending_.elem_;
  const int win = pending_.win_;

  // Arrival counts come from every producer's registered metadata —
  // rank s's per-destination counts row — exactly what the two-sided
  // path learns from the substrate's count publication.
  rcounts_.resize(static_cast<std::size_t>(P));
  recv_total_ = 0;
  for (int s = 0; s < P; ++s) {
    const count_t c = comm.win_meta(s, win)[me];
    rcounts_[static_cast<std::size_t>(s)] = c;
    recv_total_ += c;
  }
  recv_bytes_.resize(static_cast<std::size_t>(recv_total_) * elem);
  std::size_t out = 0;
  for (int s = 0; s < P; ++s) {
    const count_t c = rcounts_[static_cast<std::size_t>(s)];
    if (c == 0) continue;
    // Our segment starts after every lower-ranked destination's run in
    // s's destination-grouped exposure.
    const count_t* meta = comm.win_meta(s, win);
    count_t offset = 0;
    for (int q = 0; q < me; ++q) offset += meta[q];
    const std::size_t len = static_cast<std::size_t>(c) * elem;
    comm.win_get(win, s, static_cast<std::size_t>(offset) * elem, len,
                 recv_bytes_.data() + out);
    ++stats_.one_sided_gets;
    if (s != me) {
      const count_t b = c * static_cast<count_t>(elem);
      stats_.one_sided_bytes += b;
      stats_.bytes_sent += b;  // consumer-side wire billing
    }
    out += len;
  }
  // Topology split from the consumer's perspective: a pulled segment
  // crosses nodes exactly when the pushed one would have.
  account_phase(comm, rcounts_, elem);
  ++stats_.phases;
  comm.win_unexpose(win);

  pending_.active_ = false;
  pending_.wire_ = nullptr;
  onesided_inflight_ = false;
  const double sec = t.seconds();
  stats_.seconds += sec;
  stats_.finish_seconds += sec;
}

// ---------------------------------------------------------------------------
// Hierarchical routing: node-local gather -> leader alltoallv ->
// node-local scatter. Every round is a destination-grouped buffer run
// through the flat (phased) machinery of a sub-exchanger, so the
// max_send_bytes contract holds per round; the reassembly below is a
// pure local permutation, which is what makes the result bit-identical
// to the flat path.

void Exchanger::start_hier(sim::Comm& comm, const std::byte* send,
                           std::size_t elem,
                           const std::vector<count_t>& counts,
                           count_t total) {
  Timer t;
  const int P = comm.size();
  if (!hier_) {
    hier_ = std::make_unique<Hier>();
    hier_->gather.label_ = "comm::Exchanger hier-gather";
    hier_->leaders.label_ = "comm::Exchanger hier-leaders";
    hier_->scatter.label_ = "comm::Exchanger hier-scatter";
  }
  Hier& h = *hier_;
  h.base = h.sums();

  // Everyone learns the full counts matrix, so every per-round layout
  // below is computable locally (row s = rank s's per-dest counts). A
  // real MPI build would use neighborhood collectives; here one
  // allgatherv keeps the protocol simple and deterministic.
  h.allcounts = comm.allgatherv(counts);

  pending_.elem_ = elem;
  pending_.total_ = total;
  pending_.nphases_ = 1;
  pending_.phase_ = 0;
  pending_.active_ = true;
  hier_inflight_ = true;

  count_t gtotal = 0;
  for (const count_t c : h.allcounts) gtotal += c;
  h.empty = gtotal == 0;
  if (h.empty) {
    // All-empty exchange: no wire rounds at all (same contract as the
    // flat bounded path) — install the empty result now.
    rcounts_.assign(static_cast<std::size_t>(P), 0);
    recv_total_ = 0;
    recv_bytes_.clear();
    const double sec0 = t.seconds();
    stats_.seconds += sec0;
    stats_.start_seconds += sec0;
    return;
  }
  h.cross_node = false;
  for (int s = 0; s < P && !h.cross_node; ++s)
    for (int d = 0; d < P; ++d)
      if (h.allcounts[static_cast<std::size_t>(s) * P + d] > 0 &&
          comm.node_of(s) != comm.node_of(d)) {
        h.cross_node = true;
        break;
      }

  // Round-1 staging (destination-grouped): each same-node destination
  // gets its direct run; the leader's segment additionally carries
  // every off-node run, ordered by final destination rank — the
  // receiving leader recovers the blocks from the counts matrix.
  const int mynode = comm.my_node();
  const int nb = comm.node_begin(mynode);
  const int ne = comm.node_end(mynode);
  const int L = comm.node_leader(mynode);

  std::vector<count_t> offs(static_cast<std::size_t>(P) + 1, 0);
  for (int d = 0; d < P; ++d)
    offs[static_cast<std::size_t>(d) + 1] =
        offs[static_cast<std::size_t>(d)] +
        counts[static_cast<std::size_t>(d)];

  h.r1_counts.assign(static_cast<std::size_t>(P), 0);
  count_t fwd_total = 0;
  for (int d = 0; d < P; ++d)
    if (comm.node_of(d) != mynode)
      fwd_total += counts[static_cast<std::size_t>(d)];
  for (int q = nb; q < ne; ++q)
    h.r1_counts[static_cast<std::size_t>(q)] =
        counts[static_cast<std::size_t>(q)];
  h.r1_counts[static_cast<std::size_t>(L)] += fwd_total;

  h.r1_send.resize(static_cast<std::size_t>(total) * elem);
  std::byte* out = h.r1_send.data();
  const auto append_run = [&](int d) {
    const std::size_t len =
        static_cast<std::size_t>(counts[static_cast<std::size_t>(d)]) * elem;
    if (len > 0) {
      std::memcpy(out, send + static_cast<std::size_t>(
                                  offs[static_cast<std::size_t>(d)]) *
                                  elem,
                  len);
      out += len;
    }
  };
  for (int q = nb; q < ne; ++q) {
    append_run(q);
    if (q == L)
      for (int d = 0; d < P; ++d)
        if (comm.node_of(d) != mynode) append_run(d);
  }

  h.gather.max_send_bytes_ = max_send_bytes_;
  h.gather.backend_ = backend_;
  h.gather.start_bytes(comm, h.r1_send.data(), elem, h.r1_counts,
                       StartMode::kAlias);
  const double sec = t.seconds();
  stats_.seconds += sec;
  stats_.start_seconds += sec;
}

void Exchanger::finish_hier(sim::Comm& comm) {
  Timer t;
  Hier& h = *hier_;
  const std::size_t elem = pending_.elem_;
  const int P = comm.size();
  const int me = comm.rank();
  const int mynode = comm.my_node();
  const int nb = comm.node_begin(mynode);
  const int ne = comm.node_end(mynode);
  const int L = comm.node_leader(mynode);
  const int nnodes = comm.node_count();
  const auto C = [&](int s, int d) -> count_t {
    return h.allcounts[static_cast<std::size_t>(s) * P + d];
  };

  if (!h.empty) {
    h.gather.finish_bytes(comm);
    // Element offset of each source's round-1 segment (grouped by
    // source; only same-node sources sent anything).
    std::vector<count_t> r1_off(static_cast<std::size_t>(P) + 1, 0);
    for (int s = 0; s < P; ++s)
      r1_off[static_cast<std::size_t>(s) + 1] =
          r1_off[static_cast<std::size_t>(s)] +
          h.gather.rcounts_[static_cast<std::size_t>(s)];

    if (h.cross_node) {
      // --- Round 2: leaders merge their node's forwarded records into
      // one message per destination node, ordered (final dest asc,
      // origin asc) so the receiving leader can carve blocks locally.
      h.r2_counts.assign(static_cast<std::size_t>(P), 0);
      if (me == L) {
        count_t r2_total = 0;
        for (int n = 0; n < nnodes; ++n) {
          if (n == mynode) continue;
          count_t c = 0;
          for (int d = comm.node_begin(n); d < comm.node_end(n); ++d)
            for (int s = nb; s < ne; ++s) c += C(s, d);
          h.r2_counts[static_cast<std::size_t>(comm.node_leader(n))] = c;
          r2_total += c;
        }
        h.r2_send.resize(static_cast<std::size_t>(r2_total) * elem);
        // Per-member cursor into the forwarded part of its round-1
        // segment (past the direct-to-leader run); the build consumes
        // blocks in ascending final-destination order, matching the
        // forwarded layout.
        std::vector<count_t> fwd_cursor(static_cast<std::size_t>(ne - nb));
        for (int s = nb; s < ne; ++s)
          fwd_cursor[static_cast<std::size_t>(s - nb)] =
              r1_off[static_cast<std::size_t>(s)] + C(s, L);
        std::byte* out = h.r2_send.data();
        for (int n = 0; n < nnodes; ++n) {
          if (n == mynode) continue;
          for (int d = comm.node_begin(n); d < comm.node_end(n); ++d)
            for (int s = nb; s < ne; ++s) {
              const count_t c = C(s, d);
              if (c == 0) continue;
              const std::size_t len = static_cast<std::size_t>(c) * elem;
              std::memcpy(
                  out,
                  h.gather.recv_bytes_.data() +
                      static_cast<std::size_t>(
                          fwd_cursor[static_cast<std::size_t>(s - nb)]) *
                          elem,
                  len);
              fwd_cursor[static_cast<std::size_t>(s - nb)] += c;
              out += len;
            }
        }
      } else {
        h.r2_send.clear();
      }
      h.leaders.max_send_bytes_ = max_send_bytes_;
      h.leaders.backend_ = backend_;
      h.leaders.start_bytes(comm, h.r2_send.data(), elem, h.r2_counts,
                            StartMode::kBlocking);
      h.leaders.finish_bytes(comm);

      // --- Round 3: each leader scatters the arrivals to the final
      // destinations in its node, ordered by origin rank ascending.
      h.r3_counts.assign(static_cast<std::size_t>(P), 0);
      if (me == L) {
        count_t r3_total = 0;
        for (int q = nb; q < ne; ++q) {
          count_t c = 0;
          for (int s = 0; s < P; ++s)
            if (comm.node_of(s) != mynode) c += C(s, q);
          h.r3_counts[static_cast<std::size_t>(q)] = c;
          r3_total += c;
        }
        h.r3_send.resize(static_cast<std::size_t>(r3_total) * elem);
        // Element offset of each source leader's round-2 segment, then
        // a per-source-node cursor: blocks are consumed in (final dest
        // asc, origin asc) order, exactly the segment layout.
        std::vector<count_t> r2_off(static_cast<std::size_t>(P) + 1, 0);
        for (int s = 0; s < P; ++s)
          r2_off[static_cast<std::size_t>(s) + 1] =
              r2_off[static_cast<std::size_t>(s)] +
              h.leaders.rcounts_[static_cast<std::size_t>(s)];
        std::vector<count_t> seg_cursor(static_cast<std::size_t>(nnodes), 0);
        for (int n = 0; n < nnodes; ++n)
          seg_cursor[static_cast<std::size_t>(n)] =
              r2_off[static_cast<std::size_t>(comm.node_leader(n))];
        std::byte* out = h.r3_send.data();
        for (int q = nb; q < ne; ++q)
          for (int n = 0; n < nnodes; ++n) {
            if (n == mynode) continue;
            for (int s = comm.node_begin(n); s < comm.node_end(n); ++s) {
              const count_t c = C(s, q);
              if (c == 0) continue;
              const std::size_t len = static_cast<std::size_t>(c) * elem;
              std::memcpy(out,
                          h.leaders.recv_bytes_.data() +
                              static_cast<std::size_t>(
                                  seg_cursor[static_cast<std::size_t>(n)]) *
                                  elem,
                          len);
              seg_cursor[static_cast<std::size_t>(n)] += c;
              out += len;
            }
          }
      } else {
        h.r3_send.clear();
      }
      h.scatter.max_send_bytes_ = max_send_bytes_;
      h.scatter.backend_ = backend_;
      h.scatter.start_bytes(comm, h.r3_send.data(), elem, h.r3_counts,
                            StartMode::kBlocking);
      h.scatter.finish_bytes(comm);
    }

    // --- Final reassembly, grouped by source rank: same-node sources
    // arrive directly in round 1 (the direct run leads each segment);
    // off-node sources arrive from the leader in round 3, already in
    // ascending origin order, so a sequential cursor suffices.
    rcounts_.resize(static_cast<std::size_t>(P));
    recv_total_ = 0;
    for (int s = 0; s < P; ++s) {
      rcounts_[static_cast<std::size_t>(s)] = C(s, me);
      recv_total_ += C(s, me);
    }
    recv_bytes_.resize(static_cast<std::size_t>(recv_total_) * elem);
    std::byte* out = recv_bytes_.data();
    std::size_t remote_pos = 0;
    for (int s = 0; s < P; ++s) {
      const count_t c = C(s, me);
      if (c == 0) continue;
      const std::size_t len = static_cast<std::size_t>(c) * elem;
      if (comm.node_of(s) == mynode) {
        std::memcpy(out,
                    h.gather.recv_bytes_.data() +
                        static_cast<std::size_t>(
                            r1_off[static_cast<std::size_t>(s)]) *
                            elem,
                    len);
      } else {
        std::memcpy(out, h.scatter.recv_bytes_.data() + remote_pos, len);
        remote_pos += len;
      }
      out += len;
    }
  }

  // Roll the rounds' wire ledger into this exchange's stats.
  const Hier::Sums now = h.sums();
  stats_.bytes_sent += now.bytes - h.base.bytes;
  stats_.phases += now.phases - h.base.phases;
  stats_.inter_node_bytes += now.inter_b - h.base.inter_b;
  stats_.intra_node_bytes += now.intra_b - h.base.intra_b;
  stats_.inter_node_msgs += now.inter_m - h.base.inter_m;
  stats_.one_sided_gets += now.os_gets - h.base.os_gets;
  stats_.one_sided_bytes += now.os_bytes - h.base.os_bytes;

  pending_.active_ = false;
  pending_.wire_ = nullptr;
  hier_inflight_ = false;
  const double sec = t.seconds();
  stats_.seconds += sec;
  stats_.finish_seconds += sec;
}

}  // namespace xtra::comm
