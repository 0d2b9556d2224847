#ifndef ASTREAM_SPE_STATE_H_
#define ASTREAM_SPE_STATE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "spe/row.h"

namespace astream::spe {

/// Append-only binary encoder for operator state snapshots (Sec. 3.3).
/// Variable-length framing is intentionally avoided: fixed 64-bit integers
/// keep the format trivial to audit in tests.
///
/// Rows are deduplicated by payload identity within one writer: the first
/// occurrence of a CoW rep emits its definition (leaf columns, or a
/// composed node's two children) and assigns it a dense id; every later
/// Row sharing that rep emits an 8-byte reference. A checkpoint of K rows
/// fanned out from one payload therefore costs one payload + K refs, and
/// the matching reader restores the *sharing* (all K rows reference one
/// rep again), not K copies.
class StateWriter {
 public:
  void WriteI64(int64_t v);
  void WriteU64(uint64_t v) { WriteI64(static_cast<int64_t>(v)); }
  void WriteBool(bool v) { WriteI64(v ? 1 : 0); }
  void WriteBytes(const void* data, size_t size);
  void WriteString(const std::string& s);
  void WriteRow(const Row& row);
  void WriteBitset(const DynamicBitset& b);

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  /// Emits a rep as a back-reference or a definition (see WriteRow tags).
  void WriteRepNode(const void* rep);

  std::vector<uint8_t> buffer_;
  /// Rep pointer -> dense id, in definition order.
  std::unordered_map<const void*, uint64_t> row_reps_;
};

/// Decoder matching StateWriter. Reads past the end return an error status
/// once and zero values thereafter; callers check Ok() after a batch of
/// reads (keeps restore code linear, no per-read error plumbing).
class StateReader {
 public:
  explicit StateReader(std::vector<uint8_t> buffer)
      : buffer_(std::move(buffer)) {}

  int64_t ReadI64();
  uint64_t ReadU64() { return static_cast<uint64_t>(ReadI64()); }
  bool ReadBool() { return ReadI64() != 0; }
  std::string ReadString();
  Row ReadRow();
  DynamicBitset ReadBitset();

  bool Ok() const { return !failed_; }
  bool AtEnd() const { return pos_ == buffer_.size(); }

 private:
  /// Decodes one rep node, mirroring StateWriter::WriteRepNode's id
  /// assignment order so references restore payload sharing.
  Row ReadRepNode(int depth);

  std::vector<uint8_t> buffer_;
  size_t pos_ = 0;
  bool failed_ = false;
  /// Dense id -> restored Row, in definition order.
  std::vector<Row> rep_table_;
};

/// In-memory store of completed checkpoints: per checkpoint id, a map from
/// (stage, instance) to the operator's serialized state, plus the source
/// replay offsets recorded when the barrier was injected.
///
/// The lifecycle methods are virtual so durable implementations (e.g.
/// storage::DurableCheckpointStore, which persists each completed
/// checkpoint as a run file) can slot in wherever the facade or harness
/// takes a CheckpointStore*.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;
  struct Checkpoint {
    int64_t id = 0;
    /// Key: stage_index * 1000003 + instance_index.
    std::map<int64_t, std::vector<uint8_t>> operator_state;
    /// Number of elements each external source had pushed before the
    /// barrier (replay starts here).
    std::map<int, int64_t> source_offsets;
    bool complete = false;
  };

  static int64_t StateKey(int stage, int instance) {
    return static_cast<int64_t>(stage) * 1000003 + instance;
  }

  virtual void BeginCheckpoint(int64_t id,
                               std::map<int, int64_t> source_offsets);
  virtual void AddOperatorState(int64_t id, int stage, int instance,
                                std::vector<uint8_t> state);
  /// Marks a checkpoint complete once all `expected_states` snapshots are
  /// in, then prunes: only the newest `retention` completed checkpoints
  /// are kept (plus any in-flight incomplete ones), so the store stays
  /// bounded in long runs. Outstanding shared_ptr references keep pruned
  /// checkpoints alive for readers mid-restore.
  virtual void MaybeComplete(int64_t id, size_t expected_states);

  /// Completed checkpoints to retain (default 2; minimum 1).
  void SetRetention(size_t keep_completed);

  /// Checkpoints currently held (completed + in-flight) — exported as the
  /// `state.checkpoints_retained` gauge.
  virtual size_t NumRetained() const;

  /// Latest complete checkpoint, or nullptr.
  virtual std::shared_ptr<const Checkpoint> LatestComplete() const;
  virtual std::shared_ptr<const Checkpoint> Get(int64_t id) const;

  /// Blocks until checkpoint `id` is complete and returns it; nullptr once
  /// `deadline` passes or `interrupted()` holds. MaybeComplete wakes the
  /// wait when a checkpoint completes and WakeWaiters when an engine
  /// fails, so neither is polled for. `interrupted` runs under the store's
  /// mutex and must not call back into the store.
  std::shared_ptr<const Checkpoint> WaitForComplete(
      int64_t id, std::chrono::steady_clock::time_point deadline,
      const std::function<bool()>& interrupted);
  /// Re-evaluates every waiter's `interrupted` (engines call this from
  /// their failure path).
  void WakeWaiters();

 protected:
  /// Checkpoint `id` if it is complete, else nullptr. Caller holds mutex_.
  virtual std::shared_ptr<const Checkpoint> CompleteLocked(int64_t id) const;

  mutable std::mutex mutex_;
  /// Signalled under mutex_ on every completion and by WakeWaiters.
  std::condition_variable complete_cv_;
  size_t retention_ = 2;
  std::map<int64_t, std::shared_ptr<Checkpoint>> checkpoints_;
};

}  // namespace astream::spe

#endif  // ASTREAM_SPE_STATE_H_
