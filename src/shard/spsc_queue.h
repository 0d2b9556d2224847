#ifndef ASTREAM_SHARD_SPSC_QUEUE_H_
#define ASTREAM_SHARD_SPSC_QUEUE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parker.h"

namespace astream::shard {

/// Generic single-producer/single-consumer ring for shard ingress: the
/// control thread enqueues, one pump thread drains. Same index discipline
/// as spe::SpscRing (power-of-two slots, acquire/release index pair,
/// cached opposite index on a separate cache line) — this is what retires
/// the mutex MPMC Channel from the external push path.
///
/// Blocking Push/Pop spin briefly, then park on a Parker (common/parker.h)
/// with no timeout: each side publishes its index with a seq_cst store
/// and then wakes the other side only if it announced itself parked, and
/// the parked side re-checks the index after announcing. So a push that
/// lands in the consumer's check-then-park window is seen by one of the
/// two, never lost, and an uncontended Push or Pop pays one extra load.
/// A consumer parked on an empty ring wakes on the first push; a producer
/// parked on a full ring wakes once the ring is half drained.
///
/// Close() wins over full: a producer parked on a full ring observes the
/// close and gives up; the consumer drains whatever was published before
/// reporting closed.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer. False when the ring is full or closed.
  bool TryPush(T&& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    consumer_.Wake();
    return true;
  }

  /// Producer. Blocks (spin, then park) until space; false when closed.
  bool Push(T item) {
    for (int spins = 0;;) {
      if (TryPush(std::move(item))) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      if (spins < kSpins) {
        ++spins;
      } else {
        producer_.ParkUntil([this] { return CanPush(); });
      }
    }
  }

  /// Consumer. False when empty (closed or not).
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_seq_cst);
    // A parked producer sleeps until the ring is half drained (CanPush),
    // so a full ring costs one wake per capacity/2 items, not one per
    // item. While it is parked tail_ is stable.
    if (producer_.Parked() &&
        tail_.load(std::memory_order_acquire) - (head + 1) <= capacity_ / 2) {
      producer_.Wake();
    }
    return true;
  }

  /// Consumer. Blocks until an item arrives or the ring is closed AND
  /// drained (then false — the shutdown signal).
  bool Pop(T* out) {
    for (int spins = 0;;) {
      if (TryPop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check after observing close: items published before the
        // close must still drain.
        return TryPop(out);
      }
      if (spins < kSpins) {
        ++spins;
      } else {
        consumer_.ParkUntil([this] { return CanPop(); });
      }
    }
  }

  void Close() {
    closed_.store(true, std::memory_order_seq_cst);
    producer_.Wake();
    consumer_.Wake();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate occupancy (either thread; racy by design).
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return capacity_; }

 private:
  static constexpr int kSpins = 256;

  // Park conditions, read seq_cst (the Parker contract). CanPush runs on
  // the producer (tail_ is its own): a producer that found the ring full
  // resumes once it is at most half full. CanPop runs on the consumer.
  bool CanPush() const {
    return closed_.load(std::memory_order_seq_cst) ||
           tail_.load(std::memory_order_relaxed) -
                   head_.load(std::memory_order_seq_cst) <=
               capacity_ / 2;
  }
  bool CanPop() const {
    return closed_.load(std::memory_order_seq_cst) ||
           tail_.load(std::memory_order_seq_cst) !=
               head_.load(std::memory_order_relaxed);
  }

  const size_t capacity_;
  const size_t mask_;
  std::vector<T> slots_;

  alignas(64) std::atomic<uint64_t> tail_{0};  // producer-owned
  alignas(64) uint64_t head_cache_ = 0;        // producer's view of head
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer-owned
  alignas(64) uint64_t tail_cache_ = 0;        // consumer's view of tail
  alignas(64) std::atomic<bool> closed_{false};

  alignas(64) Parker producer_;  // producer parks here on a full ring
  alignas(64) Parker consumer_;  // consumer parks here on an empty ring
};

}  // namespace astream::shard

#endif  // ASTREAM_SHARD_SPSC_QUEUE_H_
