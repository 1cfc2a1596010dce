// Ring-buffered SoA lane queue: the buffer between two vector-engine stages.
//
// Each pipeline edge holds waiting lanes as parallel power-of-two rings —
// one u32 ring per column, one ring of root ids, and (for adapter stages) a
// ring of std::any items — sharing a single head/size. A firing gathers its
// up-to-v front lanes into a dense window (zero-copy when the front run
// doesn't wrap, one bounded memcpy when it does), and a completed firing
// appends its compacted survivors in one pass, expanding per-lane output
// counts into per-item root ids as it goes. Capacity is retained across
// firings and runs, so steady state touches the allocator never.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/lane_batch.hpp"
#include "util/assert.hpp"

namespace ripple::runtime {

class SoaQueue {
 public:
  /// Shape the queue for its producer's output representation. Clears
  /// contents; keeps capacity.
  void configure(std::size_t field_count, bool carries_items) {
    field_count_ = carries_items ? 0 : field_count;
    carries_items_ = carries_items;
    head_ = 0;
    size_ = 0;
    high_water_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  /// Largest size reached since configure().
  std::size_t high_water() const noexcept { return high_water_; }
  bool empty() const noexcept { return size_ == 0; }

  void reserve(std::size_t capacity) {
    if (capacity > capacity_) grow_to(round_up_pow2(capacity));
  }

  /// Push one lane (arrival path).
  void push_fields(const std::uint32_t* fields, RootId root) {
    RIPPLE_ASSERT(!carries_items_, "push_fields() on an item queue");
    ensure_room(1);
    const std::size_t slot = (head_ + size_) & mask_;
    for (std::size_t f = 0; f < field_count_; ++f) fields_[f][slot] = fields[f];
    roots_[slot] = root;
    grow_size(1);
  }

  void push_item(Item item, RootId root) {
    RIPPLE_ASSERT(carries_items_, "push_item() on a typed queue");
    ensure_room(1);
    const std::size_t slot = (head_ + size_) & mask_;
    items_[slot] = std::move(item);
    roots_[slot] = root;
    grow_size(1);
  }

  /// Append a completed firing's outputs: `emitter` holds them dense in lane
  /// order; `lane_roots[k]` is the root of input lane k, replicated across
  /// that lane's outputs.
  void append(const BatchEmitter& emitter, const RootId* lane_roots) {
    const std::size_t n = emitter.total();
    if (n == 0) return;
    ensure_room(n);
    // Root expansion first (shared by both representations).
    {
      std::size_t out = 0;
      const std::uint32_t* counts = emitter.counts();
      for (std::size_t lane = 0; lane < emitter.lanes(); ++lane) {
        for (std::uint32_t c = 0; c < counts[lane]; ++c) {
          roots_[(head_ + size_ + out) & mask_] = lane_roots[lane];
          ++out;
        }
      }
      RIPPLE_ASSERT(out == n, "emitter counts disagree with total");
    }
    if (carries_items_) {
      Item* src = const_cast<BatchEmitter&>(emitter).items();
      for (std::size_t i = 0; i < n; ++i) {
        items_[(head_ + size_ + i) & mask_] = std::move(src[i]);
      }
    } else {
      for (std::size_t f = 0; f < field_count_; ++f) {
        const std::uint32_t* src = emitter.column(f);
        std::uint32_t* ring = fields_[f].data();
        const std::size_t tail = (head_ + size_) & mask_;
        const std::size_t first = std::min(n, capacity_ - tail);
        std::copy(src, src + first, ring + tail);
        std::copy(src + first, src + n, ring);
      }
    }
    grow_size(n);
  }

  /// Expose the front `n` lanes as a dense window. Columns and roots point
  /// either directly into the rings (front run contiguous) or into the
  /// provided scratch after one wrap-fixing copy. For item queues the items
  /// pointer addresses the ring front directly (wrap handled by the caller
  /// iterating via item_at()).
  struct FrontWindow {
    std::array<const std::uint32_t*, kMaxLaneFields> field{};
    const RootId* roots = nullptr;
  };
  struct GatherScratch {
    std::array<std::vector<std::uint32_t>, kMaxLaneFields> field;
    std::vector<RootId> roots;
  };

  FrontWindow gather_front(std::size_t n, GatherScratch& scratch) const {
    RIPPLE_ASSERT(n <= size_, "gather past end of SoaQueue");
    FrontWindow window;
    const bool contiguous = head_ + n <= capacity_;
    if (contiguous) {
      for (std::size_t f = 0; f < field_count_; ++f) {
        window.field[f] = fields_[f].data() + head_;
      }
      window.roots = roots_.data() + head_;
      return window;
    }
    const std::size_t first = capacity_ - head_;
    for (std::size_t f = 0; f < field_count_; ++f) {
      auto& dense = scratch.field[f];
      dense.resize(n);
      std::copy(fields_[f].begin() + head_, fields_[f].end(), dense.begin());
      std::copy(fields_[f].begin(), fields_[f].begin() + (n - first),
                dense.begin() + first);
      window.field[f] = dense.data();
    }
    scratch.roots.resize(n);
    std::copy(roots_.begin() + head_, roots_.end(), scratch.roots.begin());
    std::copy(roots_.begin(), roots_.begin() + (n - first),
              scratch.roots.begin() + first);
    window.roots = scratch.roots.data();
    return window;
  }

  /// Mutable access to the i-th item from the front (item queues; the
  /// consumer moves out of it before discard_front()).
  Item& item_at(std::size_t i) {
    RIPPLE_ASSERT(i < size_, "item_at past end of SoaQueue");
    return items_[(head_ + i) & mask_];
  }
  RootId root_at(std::size_t i) const { return roots_[(head_ + i) & mask_]; }

  void discard_front(std::size_t n) {
    RIPPLE_ASSERT(n <= size_, "discard past end of SoaQueue");
    head_ = (head_ + n) & mask_;
    size_ -= n;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = kMinCapacity;
    while (p < n) p *= 2;
    return p;
  }

  void grow_size(std::size_t n) {
    size_ += n;
    high_water_ = std::max(high_water_, size_);
  }

  void ensure_room(std::size_t extra) {
    if (size_ + extra > capacity_) grow_to(round_up_pow2(size_ + extra));
  }

  void grow_to(std::size_t new_capacity) {
    // Re-linearize into fresh storage (rare: capacity only ever grows).
    for (std::size_t f = 0; f < field_count_; ++f) {
      std::vector<std::uint32_t> fresh(new_capacity);
      for (std::size_t i = 0; i < size_; ++i) {
        fresh[i] = fields_[f][(head_ + i) & mask_];
      }
      fields_[f] = std::move(fresh);
    }
    if (carries_items_) {
      std::vector<Item> fresh(new_capacity);
      for (std::size_t i = 0; i < size_; ++i) {
        fresh[i] = std::move(items_[(head_ + i) & mask_]);
      }
      items_ = std::move(fresh);
    }
    std::vector<RootId> fresh_roots(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh_roots[i] = roots_[(head_ + i) & mask_];
    }
    roots_ = std::move(fresh_roots);
    head_ = 0;
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;
  }

  std::size_t field_count_ = 0;
  bool carries_items_ = false;
  std::array<std::vector<std::uint32_t>, kMaxLaneFields> fields_;
  std::vector<Item> items_;
  std::vector<RootId> roots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace ripple::runtime
