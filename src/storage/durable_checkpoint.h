#ifndef ASTREAM_STORAGE_DURABLE_CHECKPOINT_H_
#define ASTREAM_STORAGE_DURABLE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spe/state.h"
#include "storage/run_file.h"

namespace astream::storage {

/// CheckpointStore persisted on the run-file format: in-flight checkpoints
/// stage in RAM (the base store), and the moment one completes it is
/// written — fsync'd, then atomically renamed — to `<dir>/ckpt-<id>.run`
/// and dropped from RAM. Reads (LatestComplete/Get) always load from disk,
/// so a store constructed over an existing directory after a process
/// restart recovers exactly what the previous process durably finished;
/// torn files from a crash mid-write fail CRC/footer validation and are
/// skipped (and deleted) during the constructor's directory scan.
///
/// Run layout: entry key = operator state key (stage * 1000003 + instance;
/// the session stage -1 sorts first), payload = the operator's serialized
/// state; footer meta = checkpoint id + source replay offsets.
class DurableCheckpointStore : public spe::CheckpointStore {
 public:
  struct Options {
    /// fsync before rename. On by default: these files must survive the
    /// writing process.
    bool sync = true;
  };

  explicit DurableCheckpointStore(std::string dir)
      : DurableCheckpointStore(std::move(dir), Options()) {}
  DurableCheckpointStore(std::string dir, Options options);

  void MaybeComplete(int64_t id, size_t expected_states) override;
  size_t NumRetained() const override;
  std::shared_ptr<const Checkpoint> LatestComplete() const override;
  std::shared_ptr<const Checkpoint> Get(int64_t id) const override;

  const std::string& dir() const { return dir_; }
  /// Torn / unreadable checkpoint files discarded by the directory scan.
  int64_t torn_files_skipped() const { return torn_files_skipped_; }
  /// Completed-checkpoint writes that failed (checkpoint left incomplete;
  /// a later snapshot arrival retries).
  int64_t write_failures() const { return write_failures_; }

 protected:
  std::shared_ptr<const Checkpoint> CompleteLocked(int64_t id) const override;

 private:
  std::string PathFor(int64_t id) const;
  /// Persists a staged checkpoint as a run file. Caller holds mutex_.
  bool Persist(const Checkpoint& cp);
  std::shared_ptr<const Checkpoint> Load(int64_t id) const;

  const std::string dir_;
  const Options options_;
  /// Ids with a durable, validated file on disk (newest = rbegin).
  std::map<int64_t, std::string> files_;
  int64_t torn_files_skipped_ = 0;
  int64_t write_failures_ = 0;
};

/// Checkpoint hand-off: replays a completed checkpoint taken elsewhere
/// (another shard, a previous process) into `store` through the standard
/// Begin/Add/MaybeComplete lifecycle, so it lands exactly as if `store`
/// had taken it — a DurableCheckpointStore persists it as a run file
/// immediately. Fails if the import did not become complete in `store`
/// (e.g. a durable write failure).
Status ImportCheckpoint(spe::CheckpointStore* store,
                        const spe::CheckpointStore::Checkpoint& checkpoint);

}  // namespace astream::storage

#endif  // ASTREAM_STORAGE_DURABLE_CHECKPOINT_H_
