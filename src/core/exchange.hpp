// ExchangeUpdates — Algorithm 3, the partitioner's only point-to-point
// communication pattern.
//
// Each rank queues owned vertices whose part label changed this
// superstep. For every queued vertex we send (gid, new_part) once to
// each rank that holds it as a ghost, then apply the incoming records
// to our ghost labels. The paper's toSend mask (each vertex reaches
// each rank once) is precomputed per vertex by
// DistGraph::ghost_holders(), so an exchange never walks adjacency.
// The two passes over the queue around prefix-summed offsets mirror
// Algorithm 3 exactly — they live in comm::DestBuckets; the wire trip
// (optionally phased under a max_send_bytes budget, per the paper's
// memory-bounded multi-phase communication) lives in comm::Exchanger.
#pragma once

#include <vector>

#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "core/params.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/types.hpp"

namespace xtra::core {

/// One part-assignment update on the wire.
struct PartUpdate {
  gid_t gid;
  part_t part;
};

/// Persistent ExchangeUpdates engine: owns the bucketing scratch and
/// the (possibly phased) exchanger, so calling run() once per
/// label-propagation iteration reallocates nothing. PhaseState holds
/// one so every balance/refine iteration reuses the same buffers.
class UpdateExchanger {
 public:
  /// max_send_bytes == 0: unbounded single alltoallv per exchange.
  explicit UpdateExchanger(count_t max_send_bytes = 0)
      : ex_(max_send_bytes) {
    ex_.set_label("core::UpdateExchanger");
  }

  /// Collective. `queue` holds owned local ids whose entry in `parts`
  /// changed; on return the ghost entries of `parts` reflect all
  /// peers' updates. Safe to call with empty queues (still collective).
  /// A thin start()+finish() wrapper.
  void run(sim::Comm& comm, const graph::DistGraph& g,
           std::vector<part_t>& parts, const std::vector<lid_t>& queue);

  /// Collective halves of run(), for overlapping the wire with local
  /// work: start() buckets the queued updates and kicks off the
  /// transfer (parts and queue are released when it returns); local
  /// compute that does not read ghost labels — e.g. fold_changes'
  /// allreduce — may run before finish() applies the arrivals.
  void start(sim::Comm& comm, const graph::DistGraph& g,
             const std::vector<part_t>& parts,
             const std::vector<lid_t>& queue);
  void finish(sim::Comm& comm, const graph::DistGraph& g,
              std::vector<part_t>& parts);

  /// Apply the exchange settings of `params`: max_exchange_bytes,
  /// shard_policy and backend.
  void configure(const Params& params) {
    ex_.set_max_send_bytes(params.max_exchange_bytes);
    ex_.set_shard_policy(params.shard_policy);
    ex_.set_backend(params.backend);
  }
  void set_max_send_bytes(count_t bytes) { ex_.set_max_send_bytes(bytes); }
  void set_shard_policy(comm::ShardPolicy policy) {
    ex_.set_shard_policy(policy);
  }
  void set_backend(comm::Backend backend) { ex_.set_backend(backend); }
  const comm::ExchangeStats& stats() const { return ex_.stats(); }
  void reset_stats() { ex_.reset_stats(); }

 private:
  comm::DestBuckets<PartUpdate> buckets_;
  comm::Exchanger ex_;
};

/// One-shot convenience wrapper: builds an unbounded, flat, two-sided
/// UpdateExchanger per call. Hot loops should hold a persistent one.
void exchange_updates(sim::Comm& comm, const graph::DistGraph& g,
                      std::vector<part_t>& parts,
                      const std::vector<lid_t>& queue);

}  // namespace xtra::core
