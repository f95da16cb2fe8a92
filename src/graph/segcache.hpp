// graph::SegmentCache — fixed-size edge segments behind a bounded
// frame pool, the out-of-core path for DistGraph adjacency
// (DESIGN.md §9).
//
// The rank's concatenated adjacency entries ([adj_ | in_adj_], lid_t
// each) are cut into fixed-size segments and moved wholesale into a
// backing store at enable time: either an unlinked spill file mapped
// read-only (MmapBacking, via io::SpillFile) or a window exposed by a
// designated memory rank and fetched with win_get over the reserved
// fetch lane (RemoteBacking, via comm::FetchLane). A bounded pool of
// frames caches resident segments; borrow() hands out RAII
// NeighborRefs that pin their frame until destroyed, and a clock
// sweep over unpinned frames picks eviction victims. Prefetch follows
// a plan of upcoming segment ids the engine supplies from the access
// order it already knows (boundary-first dense sweeps, frontier scan
// order); prefetched bytes are billed to the ledger but not to the
// modeled stall clock, so a plan that lands converts demand stalls
// into overlap — the same trade PR 4's drain steps make for ghost
// refreshes.
//
// All borrow/prefetch bookkeeping is single-threaded by design: the
// remote backing issues substrate calls, and the comm verifier's
// thread guard (rightly) forbids those inside parallel regions, so
// every sweep that touches an out-of-core graph runs serial. The
// engine enforces that via DistGraph::out_of_core().
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "comm/fetch_lane.hpp"
#include "graph/io.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace xtra::graph {

enum class SegBacking {
  kMmap,    ///< segments in an unlinked local spill file
  kRemote,  ///< segments hosted by a memory rank, pulled via win_get
};

struct SegCacheOptions {
  count_t budget_bytes = 0;         ///< frame-pool budget (>= 1 frame always)
  count_t segment_bytes = 1 << 12;  ///< segment size; rounded to >= 1 entry
  SegBacking backing = SegBacking::kMmap;
  bool prefetch = true;
  int prefetch_depth = 4;  ///< frames to run ahead of the plan cursor
  int host_rank = 0;       ///< memory rank for kRemote
};

/// Deterministic cache ledger; folded into comm::ExchangeStats by the
/// engine so it reaches Stats::to_json / COMM_STATS_JSON.
struct SegCacheStats {
  count_t seg_hits = 0;
  count_t seg_misses = 0;
  count_t seg_evictions = 0;
  count_t seg_prefetch_hits = 0;
  count_t seg_fetch_bytes = 0;
  /// Modeled demand-fetch latency (alpha + bytes/beta per miss, the
  /// substrate's wire constants) — prefetched segments bill zero, so
  /// this is the overlap win, measured deterministically.
  double seg_stall_seconds = 0.0;
};

class SegmentCache {
 public:
  /// RAII view of one vertex's adjacency. Either points into a pinned
  /// frame (released on destruction) or owns a stitched/bounced copy
  /// when the range spans segments or no frame could be pinned.
  class Ref {
   public:
    Ref() = default;
    /// Wrap an in-core span — used by DistGraph when no cache is
    /// active, so call sites are uniform across both paths.
    explicit Ref(std::span<const lid_t> s)
        : data_(s.data()), size_(s.size()) {}
    Ref(Ref&& o) noexcept { move_from(o); }
    Ref& operator=(Ref&& o) noexcept {
      if (this != &o) {
        release();
        move_from(o);
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { release(); }

    const lid_t* data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const lid_t* begin() const { return data_; }
    const lid_t* end() const { return data_ + size_; }
    lid_t operator[](std::size_t i) const {
      XTRA_DEBUG_ASSERT(i < size_);
      return data_[i];
    }
    std::span<const lid_t> span() const { return {data_, size_}; }

   private:
    friend class SegmentCache;
    void release();
    void move_from(Ref& o) {
      data_ = o.data_;
      size_ = o.size_;
      cache_ = o.cache_;
      frame_ = o.frame_;
      owned_ = std::move(o.owned_);
      o.data_ = nullptr;
      o.size_ = 0;
      o.cache_ = nullptr;
      o.frame_ = -1;
    }

    const lid_t* data_ = nullptr;
    std::size_t size_ = 0;
    SegmentCache* cache_ = nullptr;  ///< set iff a frame is pinned
    int frame_ = -1;
    std::vector<lid_t> owned_;  ///< stitched / bounced copy
  };

  /// Collective when opt.backing == kRemote (opens the fetch lane).
  /// Consumes `entries` — they live in the backing afterwards.
  SegmentCache(sim::Comm& comm, std::vector<lid_t>&& entries,
               const SegCacheOptions& opt);
  ~SegmentCache();
  SegmentCache(const SegmentCache&) = delete;
  SegmentCache& operator=(const SegmentCache&) = delete;

  /// Borrow entry range [begin, end) of the concatenated adjacency.
  /// Rank thread only, outside any par::for_chunks region (asserted).
  Ref borrow(count_t begin, count_t end);

  /// Install / restart the prefetch plan: segment ids in expected
  /// access order. The cursor tolerates skips (bounded look-ahead);
  /// off-plan accesses fall back to sequential next-segment prefetch.
  void set_plan(std::vector<count_t> plan);
  void restart_plan() { plan_cursor_ = 0; }

  /// Read the whole entry store back out (unbilled) — used by
  /// DistGraph::disable_out_of_core to return to in-core mode.
  std::vector<lid_t> read_all();

  /// Collective when the backing is remote (closes the fetch lane).
  /// The destructor closes a still-open lane itself, so destruction
  /// without close() is fine wherever ranks destroy symmetrically;
  /// call close() explicitly when the teardown point matters.
  void close(sim::Comm& comm);

  const SegCacheStats& stats() const { return stats_; }
  count_t num_segments() const { return nseg_; }
  count_t num_frames() const { return static_cast<count_t>(frames_.size()); }
  count_t entries_per_segment() const { return seg_entries_; }
  count_t total_entries() const { return total_entries_; }
  SegBacking backing() const { return opt_.backing; }
  bool resident(count_t seg) const {
    return frame_of_[static_cast<std::size_t>(seg)] >= 0;
  }
  int pinned_frames() const;
  /// Segment id holding entry index `e`.
  count_t segment_of(count_t e) const { return e / seg_entries_; }

 private:
  static constexpr count_t kNoSeg = -1;
  static constexpr int kPlanLookahead = 16;

  struct Frame {
    count_t seg = kNoSeg;
    int pins = 0;
    bool refbit = false;
    bool prefetched = false;  ///< fetched ahead, not yet touched
    std::vector<lid_t> data;
  };

  count_t seg_len(count_t seg) const;
  /// Raw backing read of entry range; bills fetch bytes, and the
  /// stall clock iff `demand`.
  void read_raw(count_t entry_begin, count_t n_entries, lid_t* dst,
                bool demand);
  int find_victim(bool for_prefetch);
  /// Pin `seg` into a frame (fetching on miss); -1 if every frame is
  /// pinned — the caller bounces instead of evicting a borrowed frame.
  int acquire(count_t seg);
  void unpin(int frame);
  void maybe_prefetch(count_t just_used);
  bool prefetch_one(count_t seg);

  SegCacheOptions opt_;
  sim::Comm* comm_ = nullptr;  ///< retained for remote fetches
  count_t total_entries_ = 0;
  count_t seg_entries_ = 0;
  count_t nseg_ = 0;
  std::vector<Frame> frames_;
  std::vector<int> frame_of_;  ///< seg -> frame, -1 if absent
  std::size_t clock_hand_ = 0;
  std::vector<count_t> plan_;
  std::size_t plan_cursor_ = 0;
  SegCacheStats stats_;

  std::unique_ptr<SpillFile> spill_;
  comm::FetchLane lane_;
};

/// Uniform adjacency view for both the in-core and out-of-core paths.
using NeighborRef = SegmentCache::Ref;

}  // namespace xtra::graph
