#include "core/state.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::core {

std::vector<count_t> compute_vertex_sizes(sim::Comm& comm,
                                          const graph::DistGraph& g,
                                          const std::vector<part_t>& parts,
                                          part_t nparts) {
  std::vector<count_t> sizes(static_cast<std::size_t>(nparts), 0);
  for (lid_t v = 0; v < g.n_local(); ++v) {
    XTRA_DEBUG_ASSERT(parts[v] >= 0 && parts[v] < nparts);
    ++sizes[static_cast<std::size_t>(parts[v])];
  }
  comm.allreduce_sum(sizes);
  return sizes;
}

std::vector<count_t> compute_edge_sizes(sim::Comm& comm,
                                        const graph::DistGraph& g,
                                        const std::vector<part_t>& parts,
                                        part_t nparts) {
  std::vector<count_t> sizes(static_cast<std::size_t>(nparts), 0);
  for (lid_t v = 0; v < g.n_local(); ++v)
    sizes[static_cast<std::size_t>(parts[v])] += g.degree(v);
  comm.allreduce_sum(sizes);
  return sizes;
}

std::vector<count_t> compute_cut_sizes(sim::Comm& comm,
                                       const graph::DistGraph& g,
                                       const std::vector<part_t>& parts,
                                       part_t nparts) {
  // Per-chunk integer partials: the sum is exact in any order, so the
  // result does not depend on the thread count.
  const auto np = static_cast<std::size_t>(nparts);
  const auto n = static_cast<count_t>(g.n_local());
  const count_t nchunks = par::chunk_count(n);
  std::vector<count_t> partial(static_cast<std::size_t>(nchunks) * np, 0);
  const auto count_chunk = [&](count_t c, count_t lo, count_t hi) {
    count_t* cut = partial.data() + static_cast<std::size_t>(c) * np;
    for (count_t i = lo; i < hi; ++i) {
      const auto v = static_cast<lid_t>(i);
      const part_t pv = parts[v];
      for (const lid_t u : g.arcs(v))
        if (parts[u] != pv) ++cut[static_cast<std::size_t>(pv)];
    }
  };
  if (g.out_of_core()) {
    // Segment borrows must stay on the rank thread (see PhaseScan).
    for (count_t c = 0; c < nchunks; ++c)
      count_chunk(c, c * par::kChunkGrain,
                  std::min(n, (c + 1) * par::kChunkGrain));
  } else {
    par::for_chunks(n, count_chunk);
  }
  std::vector<count_t> sizes(np, 0);
  for (std::size_t k = 0; k < partial.size(); ++k) sizes[k % np] += partial[k];
  comm.allreduce_sum(sizes);
  return sizes;
}

void fold_changes(sim::Comm& comm, PhaseState& st) {
  auto fold = [&comm](std::vector<count_t>& sizes,
                      std::vector<count_t>& changes) {
    if (changes.empty()) return;
    comm.allreduce_sum(changes);
    for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] += changes[i];
    std::fill(changes.begin(), changes.end(), 0);
  };
  fold(st.size_v, st.change_v);
  fold(st.size_e, st.change_e);
  // Cut sizes are NOT folded: a vertex move's cut delta depends on its
  // neighbors' labels, which other ranks may change in the same
  // iteration, so summed deltas drift from the truth (unlike Cv/Ce,
  // which depend only on the moved vertex). The edge phases recompute
  // Sc exactly after each ghost exchange instead.
}

void refresh_cut_sizes(sim::Comm& comm, const graph::DistGraph& g,
                       const std::vector<part_t>& parts, PhaseState& st) {
  st.size_c = compute_cut_sizes(comm, g, parts, st.nparts);
  std::fill(st.change_c.begin(), st.change_c.end(), 0);
}

}  // namespace xtra::core
