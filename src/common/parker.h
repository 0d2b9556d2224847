#ifndef ASTREAM_COMMON_PARKER_H_
#define ASTREAM_COMMON_PARKER_H_

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace astream {

/// Park/wake handshake for ONE waiting thread, with no lost wakeups and no
/// timed fallback. A waker that finds nobody parked pays one load; the
/// mutex is taken only to hand a wakeup to a parked thread.
///
/// Protocol: the waiter, holding `mu_`, stores `parked_` and then re-reads
/// its condition; the waker publishes the condition and then reads
/// `parked_`. All four accesses are seq_cst, so at least one side sees the
/// other (Dekker): the waiter finds the condition true and does not sleep,
/// or the waker finds it parked. In that case the waker locks and unlocks
/// `mu_` before notifying, and the waiter holds `mu_` from its re-check
/// until cv_.wait releases it, so the notify lands after the waiter is
/// enqueued on the condition variable.
///
/// Contract: the waker publishes the condition with a seq_cst store or
/// read-modify-write before calling Wake(), and `ready` reads it with a
/// seq_cst load.
class Parker {
 public:
  /// Waiter. Returns once `ready()` holds.
  template <typename Ready>
  void ParkUntil(Ready&& ready) {
    if (ready()) return;
    std::unique_lock<std::mutex> lock(mu_);
    parked_.store(true, std::memory_order_seq_cst);
    while (!ready()) cv_.wait(lock);
    parked_.store(false, std::memory_order_relaxed);
  }

  /// Whether the waiter is parked (seq_cst, like Wake()'s check). Lets a
  /// waker test a costlier condition only when someone waits on it.
  bool Parked() const { return parked_.load(std::memory_order_seq_cst); }

  /// Waker, after publishing the waiter's condition.
  void Wake() {
    if (!parked_.load(std::memory_order_seq_cst)) return;
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> parked_{false};
};

}  // namespace astream

#endif  // ASTREAM_COMMON_PARKER_H_
