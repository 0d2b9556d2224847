#include "storage/durable_checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

namespace astream::storage {

namespace fs = std::filesystem;

DurableCheckpointStore::DurableCheckpointStore(std::string dir,
                                               Options options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string path = entry.path().string();
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::remove(path.c_str());  // leftover from a crash mid-write
      continue;
    }
    if (name.rfind("ckpt-", 0) != 0) continue;
    const int64_t id = std::atoll(name.c_str() + 5);
    // Full validation (CRC included): a file that survives this scan is a
    // checkpoint recovery may rely on.
    auto reader = RunReader::Open(path, /*verify_crc=*/true);
    if (!reader.ok()) {
      ++torn_files_skipped_;
      std::remove(path.c_str());
      continue;
    }
    files_[id] = path;
  }
}

std::string DurableCheckpointStore::PathFor(int64_t id) const {
  return dir_ + "/ckpt-" + std::to_string(id) + ".run";
}

bool DurableCheckpointStore::Persist(const Checkpoint& cp) {
  RunWriter::Options wopts;
  wopts.sync = options_.sync;
  RunWriter writer(PathFor(cp.id), wopts);
  // std::map iteration is key-sorted, satisfying the writer's
  // non-decreasing-key contract (session stage -1 first).
  for (const auto& [state_key, state] : cp.operator_state) {
    if (!writer.Append(state_key, state.data(), state.size()).ok()) {
      return false;
    }
  }
  spe::StateWriter meta;
  meta.WriteI64(cp.id);
  meta.WriteU64(cp.source_offsets.size());
  for (const auto& [port, offset] : cp.source_offsets) {
    meta.WriteI64(port);
    meta.WriteI64(offset);
  }
  writer.SetMeta(meta.TakeBuffer());
  return writer.Finish().ok();
}

void DurableCheckpointStore::MaybeComplete(int64_t id,
                                           size_t expected_states) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = checkpoints_.find(id);
  if (it == checkpoints_.end()) return;
  if (it->second->operator_state.size() < expected_states) return;
  if (!Persist(*it->second)) {
    // Left incomplete and staged; the facade calls MaybeComplete after
    // every snapshot arrival, so a transient write failure retries.
    ++write_failures_;
    return;
  }
  // Durable: the RAM staging copy is no longer needed.
  checkpoints_.erase(it);
  files_[id] = PathFor(id);
  while (files_.size() > retention_) {
    std::remove(files_.begin()->second.c_str());
    files_.erase(files_.begin());
  }
  complete_cv_.notify_all();
}

size_t DurableCheckpointStore::NumRetained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.size() + checkpoints_.size();
}

std::shared_ptr<const spe::CheckpointStore::Checkpoint>
DurableCheckpointStore::Load(int64_t id) const {
  auto reader = RunReader::Open(PathFor(id), /*verify_crc=*/true);
  if (!reader.ok()) return nullptr;
  auto cp = std::make_shared<Checkpoint>();
  int64_t key = 0;
  std::vector<uint8_t> payload;
  while ((*reader)->Next(&key, &payload)) {
    cp->operator_state[key] = payload;
  }
  if (!(*reader)->status().ok()) return nullptr;
  spe::StateReader meta((*reader)->meta());
  cp->id = meta.ReadI64();
  const uint64_t num_sources = meta.ReadU64();
  for (uint64_t i = 0; i < num_sources && meta.Ok(); ++i) {
    const int port = static_cast<int>(meta.ReadI64());
    cp->source_offsets[port] = meta.ReadI64();
  }
  if (!meta.Ok() || cp->id != id) return nullptr;
  cp->complete = true;
  return cp;
}

std::shared_ptr<const spe::CheckpointStore::Checkpoint>
DurableCheckpointStore::LatestComplete() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Disk is the single source of truth — recovery after a restart reads
  // the same bytes a warm process does.
  for (auto it = files_.rbegin(); it != files_.rend(); ++it) {
    auto cp = Load(it->first);
    if (cp != nullptr) return cp;
  }
  return nullptr;
}

std::shared_ptr<const spe::CheckpointStore::Checkpoint>
DurableCheckpointStore::Get(int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CompleteLocked(id);
}

std::shared_ptr<const spe::CheckpointStore::Checkpoint>
DurableCheckpointStore::CompleteLocked(int64_t id) const {
  if (files_.find(id) == files_.end()) return nullptr;
  return Load(id);
}

Status ImportCheckpoint(spe::CheckpointStore* store,
                        const spe::CheckpointStore::Checkpoint& checkpoint) {
  if (!checkpoint.complete) {
    return Status::InvalidArgument("cannot import incomplete checkpoint");
  }
  store->BeginCheckpoint(checkpoint.id, checkpoint.source_offsets);
  for (const auto& [state_key, state] : checkpoint.operator_state) {
    // Invert StateKey(stage, instance) = stage * 1000003 + instance with
    // floor semantics: the session pseudo-stage is -1, whose keys are
    // negative, and C++ integer division truncates toward zero.
    const int64_t stage64 =
        state_key >= 0 ? state_key / 1000003
                       : -((-state_key + 1000002) / 1000003);
    const int instance =
        static_cast<int>(state_key - stage64 * 1000003);
    store->AddOperatorState(checkpoint.id, static_cast<int>(stage64),
                            instance, state);
  }
  store->MaybeComplete(checkpoint.id, checkpoint.operator_state.size());
  auto imported = store->Get(checkpoint.id);
  if (imported == nullptr || !imported->complete) {
    return Status::Internal("checkpoint import failed to complete");
  }
  return Status::OK();
}

}  // namespace astream::storage
