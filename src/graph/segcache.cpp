#include "graph/segcache.hpp"

#include <algorithm>
#include <cstring>

#include "util/parallel.hpp"

namespace xtra::graph {

void SegmentCache::Ref::release() {
  if (cache_ != nullptr && frame_ >= 0) cache_->unpin(frame_);
  cache_ = nullptr;
  frame_ = -1;
  data_ = nullptr;
  size_ = 0;
  owned_.clear();
}

SegmentCache::SegmentCache(sim::Comm& comm, std::vector<lid_t>&& entries,
                           const SegCacheOptions& opt)
    : opt_(opt), comm_(&comm) {
  total_entries_ = static_cast<count_t>(entries.size());
  seg_entries_ = std::max<count_t>(
      1, opt_.segment_bytes / static_cast<count_t>(sizeof(lid_t)));
  nseg_ = (total_entries_ + seg_entries_ - 1) / seg_entries_;
  const count_t seg_bytes = seg_entries_ * static_cast<count_t>(sizeof(lid_t));
  // Budget 0 (or anything under one segment) still gets one frame —
  // the cache degrades to per-access fetches, it never deadlocks.
  const count_t by_budget = std::max<count_t>(1, opt_.budget_bytes / seg_bytes);
  const count_t nframes = std::min(by_budget, std::max<count_t>(nseg_, 1));
  frames_.resize(static_cast<std::size_t>(nframes));
  frame_of_.assign(static_cast<std::size_t>(nseg_), -1);

  const std::size_t blob_bytes = entries.size() * sizeof(lid_t);
  if (opt_.backing == SegBacking::kMmap) {
    spill_ = std::make_unique<SpillFile>();
    if (blob_bytes > 0) spill_->append(entries.data(), blob_bytes);
    spill_->finalize();
  } else {
    lane_.open(comm, entries.empty() ? nullptr : entries.data(), blob_bytes,
               opt_.host_rank);
  }
  entries.clear();
  entries.shrink_to_fit();
}

SegmentCache::~SegmentCache() {
  // Closing the remote lane is collective (win_unexpose); destruction
  // is only safe where every rank destroys at the same point in its
  // collective sequence — true anywhere a graph goes out of scope in
  // this BSP codebase. Explicit close() first is still fine (no-op
  // here then).
  if (opt_.backing == SegBacking::kRemote && lane_.is_open() && comm_)
    lane_.close(*comm_);
}

void SegmentCache::close(sim::Comm& comm) {
  if (opt_.backing == SegBacking::kRemote) lane_.close(comm);
}

count_t SegmentCache::seg_len(count_t seg) const {
  const count_t begin = seg * seg_entries_;
  return std::min(seg_entries_, total_entries_ - begin);
}

void SegmentCache::read_raw(count_t entry_begin, count_t n_entries,
                            lid_t* dst, bool demand) {
  const std::size_t off =
      static_cast<std::size_t>(entry_begin) * sizeof(lid_t);
  const std::size_t len = static_cast<std::size_t>(n_entries) * sizeof(lid_t);
  if (opt_.backing == SegBacking::kMmap) {
    spill_->read(off, len, dst);
  } else {
    lane_.get(*comm_, off, len, dst);
  }
  stats_.seg_fetch_bytes += static_cast<count_t>(len);
  if (demand) {
    // Same deterministic latency model for both backings, so the
    // prefetch contract (on < off) holds without wall-clock noise.
    stats_.seg_stall_seconds +=
        sim::kModelAlphaSeconds +
        static_cast<double>(len) / sim::kModelBytesPerSecond;
  }
}

int SegmentCache::find_victim(bool for_prefetch) {
  const std::size_t n = frames_.size();
  // Clock sweep: first pass grants second chances (clears refbits),
  // so within 2n steps either a cold unpinned frame turns up or every
  // frame is pinned. Prefetch victims additionally skip frames whose
  // prefetched data hasn't been touched yet — prefetch must not evict
  // its own not-yet-consumed work.
  for (std::size_t step = 0; step < 2 * n; ++step) {
    Frame& f = frames_[clock_hand_];
    const std::size_t at = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f.pins > 0) continue;
    if (for_prefetch && f.prefetched) continue;
    if (f.refbit) {
      f.refbit = false;
      continue;
    }
    return static_cast<int>(at);
  }
  return -1;
}

int SegmentCache::acquire(count_t seg) {
  XTRA_DEBUG_ASSERT(seg >= 0 && seg < nseg_);
  const int resident_frame = frame_of_[static_cast<std::size_t>(seg)];
  if (resident_frame >= 0) {
    Frame& f = frames_[static_cast<std::size_t>(resident_frame)];
    ++stats_.seg_hits;
    if (f.prefetched) {
      ++stats_.seg_prefetch_hits;
      f.prefetched = false;
    }
    f.refbit = true;
    ++f.pins;
    return resident_frame;
  }
  ++stats_.seg_misses;
  const int victim = find_victim(/*for_prefetch=*/false);
  if (victim < 0) return -1;  // every frame pinned: caller bounces
  Frame& f = frames_[static_cast<std::size_t>(victim)];
  if (f.seg != kNoSeg) {
    frame_of_[static_cast<std::size_t>(f.seg)] = -1;
    ++stats_.seg_evictions;
  }
  const count_t len = seg_len(seg);
  f.data.resize(static_cast<std::size_t>(len));
  read_raw(seg * seg_entries_, len, f.data.data(), /*demand=*/true);
  f.seg = seg;
  f.pins = 1;
  f.refbit = true;
  f.prefetched = false;
  frame_of_[static_cast<std::size_t>(seg)] = victim;
  return victim;
}

void SegmentCache::unpin(int frame) {
  Frame& f = frames_[static_cast<std::size_t>(frame)];
  XTRA_DEBUG_ASSERT(f.pins > 0);
  --f.pins;
}

int SegmentCache::pinned_frames() const {
  int n = 0;
  for (const Frame& f : frames_)
    if (f.pins > 0) ++n;
  return n;
}

bool SegmentCache::prefetch_one(count_t seg) {
  if (seg < 0 || seg >= nseg_) return false;
  if (frame_of_[static_cast<std::size_t>(seg)] >= 0) return true;
  const int victim = find_victim(/*for_prefetch=*/true);
  if (victim < 0) return false;
  Frame& f = frames_[static_cast<std::size_t>(victim)];
  if (f.seg != kNoSeg) {
    frame_of_[static_cast<std::size_t>(f.seg)] = -1;
    ++stats_.seg_evictions;
  }
  const count_t len = seg_len(seg);
  f.data.resize(static_cast<std::size_t>(len));
  read_raw(seg * seg_entries_, len, f.data.data(), /*demand=*/false);
  f.seg = seg;
  f.pins = 0;
  f.refbit = true;
  f.prefetched = true;
  frame_of_[static_cast<std::size_t>(seg)] = victim;
  return true;
}

void SegmentCache::maybe_prefetch(count_t just_used) {
  if (!opt_.prefetch || frames_.size() <= 1) return;
  const count_t want = std::min<count_t>(
      opt_.prefetch_depth, static_cast<count_t>(frames_.size()) - 1);
  // Try to locate the access on the plan within a bounded look-ahead:
  // the plan is advisory, so a site the engine didn't enumerate (or a
  // skipped vertex) must not derail the cursor permanently.
  const std::size_t limit =
      std::min(plan_.size(), plan_cursor_ + kPlanLookahead);
  std::size_t matched = plan_.size();
  for (std::size_t i = plan_cursor_; i < limit; ++i) {
    if (plan_[i] == just_used) {
      matched = i;
      break;
    }
  }
  if (matched < plan_.size()) {
    plan_cursor_ = matched + 1;
    count_t fetched = 0;
    for (std::size_t i = plan_cursor_; i < plan_.size() && fetched < want;
         ++i) {
      const count_t s = plan_[i];
      if (frame_of_[static_cast<std::size_t>(s)] >= 0) continue;
      if (!prefetch_one(s)) break;
      ++fetched;
    }
    return;
  }
  // Off-plan: sequential next-segments fallback.
  count_t fetched = 0;
  for (count_t s = just_used + 1; s < nseg_ && fetched < want; ++s) {
    if (frame_of_[static_cast<std::size_t>(s)] >= 0) continue;
    if (!prefetch_one(s)) break;
    ++fetched;
  }
}

SegmentCache::Ref SegmentCache::borrow(count_t begin, count_t end) {
  XTRA_DEBUG_ASSERT(begin >= 0 && begin <= end && end <= total_entries_);
  // The frame pool is unsynchronized and a remote miss is a substrate
  // call, so out-of-core sweeps must run their chunks serially on the
  // rank thread, never through par::for_chunks.
  XTRA_ASSERT_MSG(!par::in_parallel_region(),
                  "segment borrow inside a parallel region");
  Ref ref;
  if (begin == end) return ref;  // zero-degree: no fetch, no stats
  const count_t first = begin / seg_entries_;
  const count_t last = (end - 1) / seg_entries_;
  if (first == last) {
    const int frame = acquire(first);
    if (frame >= 0) {
      const Frame& f = frames_[static_cast<std::size_t>(frame)];
      ref.cache_ = this;
      ref.frame_ = frame;
      ref.data_ = f.data.data() + (begin - first * seg_entries_);
      ref.size_ = static_cast<std::size_t>(end - begin);
    } else {
      // Every frame is pinned by live borrows: refuse to evict and
      // bounce — read exactly the requested range into the ref.
      ref.owned_.resize(static_cast<std::size_t>(end - begin));
      read_raw(begin, end - begin, ref.owned_.data(), /*demand=*/true);
      ref.data_ = ref.owned_.data();
      ref.size_ = ref.owned_.size();
    }
    maybe_prefetch(first);
    return ref;
  }
  // Range spans segments: stitch into a ref-owned buffer one segment
  // at a time, so a single frame always suffices (budget < one
  // segment's worth of vertices still works).
  ref.owned_.resize(static_cast<std::size_t>(end - begin));
  lid_t* out = ref.owned_.data();
  for (count_t s = first; s <= last; ++s) {
    const count_t s_begin = std::max(begin, s * seg_entries_);
    const count_t s_end = std::min(end, s * seg_entries_ + seg_len(s));
    const int frame = acquire(s);
    if (frame >= 0) {
      const Frame& f = frames_[static_cast<std::size_t>(frame)];
      std::memcpy(out, f.data.data() + (s_begin - s * seg_entries_),
                  static_cast<std::size_t>(s_end - s_begin) * sizeof(lid_t));
      unpin(frame);
    } else {
      read_raw(s_begin, s_end - s_begin, out, /*demand=*/true);
    }
    out += s_end - s_begin;
    maybe_prefetch(s);
  }
  ref.data_ = ref.owned_.data();
  ref.size_ = ref.owned_.size();
  return ref;
}

void SegmentCache::set_plan(std::vector<count_t> plan) {
  plan_ = std::move(plan);
  plan_cursor_ = 0;
}

std::vector<lid_t> SegmentCache::read_all() {
  std::vector<lid_t> out(static_cast<std::size_t>(total_entries_));
  if (total_entries_ == 0) return out;
  const std::size_t bytes =
      static_cast<std::size_t>(total_entries_) * sizeof(lid_t);
  if (opt_.backing == SegBacking::kMmap) {
    spill_->read(0, bytes, out.data());
  } else {
    lane_.get(*comm_, 0, bytes, out.data());
  }
  return out;
}

}  // namespace xtra::graph
