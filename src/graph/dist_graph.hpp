// Distributed one-dimensional CSR graph with ghost vertices
// (paper §III-A "Graph Representation").
//
// Each rank owns a subset of vertices (per a VertexDist) and stores:
//   * a CSR over its owned vertices whose adjacency entries are local
//     ids — owned vertices occupy lids [0, n_local), ghosts (one-hop
//     neighbors owned elsewhere) occupy [n_local, n_local + n_ghost);
//   * lid -> gid translation in a flat array and gid -> lid in an
//     open-addressing hash map, exactly as the paper describes;
//   * the *global* degree of every owned and ghost vertex (ghost
//     degrees are fetched from their owners at build time; the vertex
//     balance phase weights neighbor counts by degree(u), so ghosts'
//     degrees must be known locally).
//
// For directed graphs an additional in-edge CSR is kept; the ghost set
// covers both directions. Undirected graphs are stored symmetrically
// (each edge appears in both endpoints' adjacency).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "graph/dist.hpp"
#include "graph/edge_list.hpp"
#include "graph/segcache.hpp"
#include "mpisim/comm.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace xtra::graph {

class DistGraph {
 public:
  /// --- Global shape ---
  gid_t n_global() const { return dist_.n_global(); }
  /// Number of undirected edges (or arcs when directed()).
  count_t m_global() const { return m_global_; }
  bool directed() const { return directed_; }
  const VertexDist& dist() const { return dist_; }
  int rank() const { return rank_; }
  int nranks() const { return dist_.nranks(); }

  /// --- Local shape ---
  lid_t n_local() const { return n_local_; }
  lid_t n_ghost() const { return n_ghost_; }
  lid_t n_total() const { return n_local_ + n_ghost_; }
  /// Number of local adjacency entries (out-edges of owned vertices).
  count_t m_local() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  bool is_owned(lid_t l) const { return l < n_local_; }
  gid_t gid_of(lid_t l) const { return lid_to_gid_[l]; }
  /// Local id of a gid present on this rank, kInvalidLid otherwise.
  lid_t lid_of(gid_t g) const { return gid_to_lid_.find(g); }
  int owner_of_gid(gid_t g) const { return dist_.owner(g); }
  int owner_of(lid_t l) const {
    return l < n_local_ ? rank_ : dist_.owner(lid_to_gid_[l]);
  }

  /// Global degree of a local-or-ghost vertex.
  count_t degree(lid_t l) const { return degree_[l]; }
  /// Local out-degree of an owned vertex (== degree for undirected).
  count_t out_degree(lid_t l) const { return offsets_[l + 1] - offsets_[l]; }

  /// Out-neighborhood of an owned vertex, as local ids. In-core path
  /// only — out-of-core callers must go through arcs().
  std::span<const lid_t> neighbors(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    XTRA_DEBUG_ASSERT(!segcache_);
    return {adj_.data() + offsets_[l],
            static_cast<std::size_t>(offsets_[l + 1] - offsets_[l])};
  }

  /// In-neighborhood (directed graphs only; == neighbors otherwise).
  std::span<const lid_t> in_neighbors(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    XTRA_DEBUG_ASSERT(!segcache_);
    if (!directed_) return neighbors(l);
    return {in_adj_.data() + in_offsets_[l],
            static_cast<std::size_t>(in_offsets_[l + 1] - in_offsets_[l])};
  }

  /// Out-neighborhood through the uniform borrow API: a zero-copy
  /// span wrapper in-core, a pinned/stitched SegmentCache::Ref when
  /// out-of-core. Valid for range-for (`for (lid_t u : g.arcs(v))`).
  NeighborRef arcs(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    if (!segcache_)
      return NeighborRef(std::span<const lid_t>(
          adj_.data() + offsets_[l],
          static_cast<std::size_t>(offsets_[l + 1] - offsets_[l])));
    return segcache_->borrow(offsets_[l], offsets_[l + 1]);
  }

  /// In-neighborhood through the borrow API (== arcs undirected).
  NeighborRef in_arcs(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    if (!directed_) return arcs(l);
    if (!segcache_)
      return NeighborRef(std::span<const lid_t>(
          in_adj_.data() + in_offsets_[l],
          static_cast<std::size_t>(in_offsets_[l + 1] - in_offsets_[l])));
    return segcache_->borrow(in_base_ + in_offsets_[l],
                             in_base_ + in_offsets_[l + 1]);
  }

  count_t in_degree(lid_t l) const {
    if (!directed_) return out_degree(l);
    return in_offsets_[l + 1] - in_offsets_[l];
  }

  /// Ranks other than this one that hold owned vertex l as a ghost:
  /// the distinct owners of its out-neighbours and, for directed
  /// graphs, of its in-neighbours too, in first-seen arc order. These
  /// are exactly the ranks that read l's label. Built on the first call
  /// (two exact-size passes over the adjacency, so rank thread only)
  /// and kept for the graph's lifetime; always empty on a one-rank
  /// world.
  std::span<const int> ghost_holders(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    if (nranks() == 1) return {};
    if (holder_offsets_.empty()) build_ghost_holders();
    return {holders_.data() + holder_offsets_[l],
            static_cast<std::size_t>(holder_offsets_[l + 1] -
                                     holder_offsets_[l])};
  }

  /// All gids this rank stores, owned first then ghosts.
  const std::vector<gid_t>& lid_to_gid() const { return lid_to_gid_; }

  /// Sum over owned vertices of degree (== 2*m_global for undirected
  /// graphs once allreduced).
  count_t local_degree_sum() const;

  /// --- Out-of-core mode (DESIGN.md §9) ---
  /// Move the adjacency arrays into a bounded SegmentCache. Collective
  /// when opt.backing == kRemote (opens the reserved fetch-lane
  /// window). While active, neighbors()/in_neighbors() are forbidden
  /// and every sweep must run serial (the engine keys off
  /// out_of_core()).
  void enable_out_of_core(sim::Comm& comm, const SegCacheOptions& opt);
  /// Restore the in-core arrays; collective for kRemote.
  void disable_out_of_core(sim::Comm& comm);
  bool out_of_core() const { return segcache_ != nullptr; }
  /// Cache ledger so far; all-zero when in-core.
  SegCacheStats segcache_stats() const {
    return segcache_ ? segcache_->stats() : SegCacheStats{};
  }
  const SegmentCache* segcache() const { return segcache_.get(); }

  /// Append vertex l's out-adjacency segment ids to `plan` (dedup vs
  /// the last entry); no-op in-core. Engine drivers build prefetch
  /// plans from the sweep order with these.
  void append_arc_segments(lid_t l, std::vector<count_t>& plan) const;
  void append_in_arc_segments(lid_t l, std::vector<count_t>& plan) const;
  void set_prefetch_plan(std::vector<count_t> plan) const {
    if (segcache_) segcache_->set_plan(std::move(plan));
  }
  void restart_prefetch_plan() const {
    if (segcache_) segcache_->restart_plan();
  }

 private:
  friend DistGraph build_dist_graph(sim::Comm&, const EdgeList&,
                                    const VertexDist&);
  DistGraph(const VertexDist& dist, int rank)
      : dist_(dist), rank_(rank) {}
  void build_ghost_holders() const;

  VertexDist dist_;
  int rank_;
  bool directed_ = false;
  count_t m_global_ = 0;

  lid_t n_local_ = 0;
  lid_t n_ghost_ = 0;
  std::vector<gid_t> lid_to_gid_;
  GidToLidMap gid_to_lid_;

  std::vector<count_t> offsets_;  // n_local + 1
  std::vector<lid_t> adj_;
  std::vector<count_t> in_offsets_;  // directed only
  std::vector<lid_t> in_adj_;

  std::vector<count_t> degree_;  // n_local + n_ghost, global degrees

  // Out-of-core state: when segcache_ is set, adj_/in_adj_ are empty
  // and live in the cache's backing as the concatenation
  // [adj_ | in_adj_]; in_base_ is the in-region's entry offset.
  // Mutable so the const engine/analytics surface can borrow and
  // steer prefetch; logically the graph is still read-only.
  mutable std::unique_ptr<SegmentCache> segcache_;
  count_t in_base_ = 0;

  // ghost_holders() CSR over owned lids, empty until first use; a
  // read-only cache of the adjacency, hence mutable.
  mutable std::vector<count_t> holder_offsets_;  // n_local + 1
  mutable std::vector<int> holders_;
};

/// Build the distributed graph collectively. Every rank passes the same
/// EdgeList (each rank ingests its slice of the edge array; ownership
/// of endpoints then drives an all-to-all edge exchange, as a parallel
/// loader would). Self-loops are dropped; duplicate edges are kept.
DistGraph build_dist_graph(sim::Comm& comm, const EdgeList& el,
                           const VertexDist& dist);

}  // namespace xtra::graph
