#ifndef ASTREAM_COMMON_CALLBACK_SLOT_H_
#define ASTREAM_COMMON_CALLBACK_SLOT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace astream {

/// A callback that control threads replace and sink threads invoke once
/// per output row. Invoking takes no lock, copies no std::function and
/// changes no refcount: Set() publishes a heap copy with a release store,
/// and the call operator reads it with one acquire load and calls it in
/// place.
///
/// A replaced callback may still be running on a sink thread, so it is
/// not freed: the slot keeps every callback it published until the slot
/// itself is destroyed. Bound: one retained callback per Set() call.
/// Result callbacks are set once or twice per job, from the control
/// plane. Owners destroy the slot only after joining the threads that
/// invoke it.
template <typename Function>
class CallbackSlot {
 public:
  CallbackSlot() = default;
  CallbackSlot(const CallbackSlot&) = delete;
  CallbackSlot& operator=(const CallbackSlot&) = delete;

  /// Any thread. An empty `fn` clears the slot.
  void Set(Function fn) {
    std::lock_guard<std::mutex> lock(mu_);
    const Function* next = nullptr;
    if (fn) {
      published_.push_back(std::make_unique<const Function>(std::move(fn)));
      next = published_.back().get();
    }
    current_.store(next, std::memory_order_release);
  }

  /// Any thread; a no-op while the slot is empty.
  template <typename... Args>
  void operator()(Args&&... args) const {
    const Function* fn = current_.load(std::memory_order_acquire);
    if (fn != nullptr) (*fn)(std::forward<Args>(args)...);
  }

 private:
  std::atomic<const Function*> current_{nullptr};
  std::mutex mu_;  // serializes Set(); never taken by invokers
  std::vector<std::unique_ptr<const Function>> published_;
};

}  // namespace astream

#endif  // ASTREAM_COMMON_CALLBACK_SLOT_H_
