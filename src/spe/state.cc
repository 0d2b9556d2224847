#include "spe/state.h"

#include <cstring>

namespace astream::spe {

void StateWriter::WriteI64(int64_t v) {
  WriteBytes(&v, sizeof(v));
}

void StateWriter::WriteBytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
}

void StateWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

// Row encoding, tag-prefixed (see the class comment on dedup):
//   0              empty row
//   1, id          back-reference to an already-defined rep
//   2, n, v...     leaf definition (n columns); defines the next dense id
//   3, left, right composed definition (children encoded recursively
//                  first, so their ids precede the parent's)
void StateWriter::WriteRow(const Row& row) {
  if (row.rep_ == nullptr) {
    WriteU64(0);
    return;
  }
  WriteRepNode(row.rep_.get());
}

void StateWriter::WriteRepNode(const void* rep) {
  const auto* r = static_cast<const Row::Rep*>(rep);
  auto it = row_reps_.find(r);
  if (it != row_reps_.end()) {
    WriteU64(1);
    WriteU64(it->second);
    return;
  }
  if (r->left == nullptr) {
    WriteU64(2);
    WriteU64(r->flat.size());
    // One bulk append; values are raw little-endian i64s, so this is
    // byte-identical to writing them one at a time.
    WriteBytes(r->flat.data(), r->flat.size() * sizeof(Value));
  } else {
    WriteU64(3);
    WriteRepNode(r->left.get());
    WriteRepNode(r->right.get());
  }
  // Ids are dense in definition-completion order (children before their
  // composed parent); the reader appends to its table in the same order.
  row_reps_.emplace(r, row_reps_.size());
}

void StateWriter::WriteBitset(const DynamicBitset& b) {
  WriteU64(b.NumWords());
  for (size_t i = 0; i < b.NumWords(); ++i) WriteU64(b.Word(i));
}

int64_t StateReader::ReadI64() {
  if (pos_ + sizeof(int64_t) > buffer_.size()) {
    failed_ = true;
    return 0;
  }
  int64_t v;
  std::memcpy(&v, buffer_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::string StateReader::ReadString() {
  const uint64_t size = ReadU64();
  if (failed_ || pos_ + size > buffer_.size()) {
    failed_ = true;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(buffer_.data() + pos_), size);
  pos_ += size;
  return s;
}

Row StateReader::ReadRow() { return ReadRepNode(0); }

Row StateReader::ReadRepNode(int depth) {
  // Composed reps nest one level per join stage; 64 is far beyond any
  // topology and guards against a corrupt buffer recursing unboundedly.
  if (failed_ || depth > 64) {
    failed_ = true;
    return Row();
  }
  const uint64_t tag = ReadU64();
  if (failed_) return Row();
  switch (tag) {
    case 0:
      return Row();
    case 1: {
      const uint64_t id = ReadU64();
      if (failed_ || id >= rep_table_.size()) {
        failed_ = true;
        return Row();
      }
      return rep_table_[id];
    }
    case 2: {
      const uint64_t n = ReadU64();
      if (failed_ || n > (buffer_.size() - pos_) / sizeof(int64_t)) {
        failed_ = true;
        return Row();
      }
      std::vector<Value> values(n);
      std::memcpy(values.data(), buffer_.data() + pos_,
                  n * sizeof(Value));
      pos_ += n * sizeof(Value);
      Row row(std::move(values));
      rep_table_.push_back(row);
      return row;
    }
    case 3: {
      Row left = ReadRepNode(depth + 1);
      Row right = ReadRepNode(depth + 1);
      if (failed_) return Row();
      Row row = Row::Concat(left, right);
      rep_table_.push_back(row);
      return row;
    }
    default:
      failed_ = true;
      return Row();
  }
}

DynamicBitset StateReader::ReadBitset() {
  const uint64_t n = ReadU64();
  if (failed_ || n > (buffer_.size() - pos_) / sizeof(uint64_t)) {
    failed_ = true;
    return {};
  }
  std::vector<uint64_t> words;
  words.reserve(n);
  for (uint64_t i = 0; i < n; ++i) words.push_back(ReadU64());
  DynamicBitset b;
  b.FromWords(words);
  return b;
}

void CheckpointStore::BeginCheckpoint(int64_t id,
                                      std::map<int, int64_t> source_offsets) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto cp = std::make_shared<Checkpoint>();
  cp->id = id;
  cp->source_offsets = std::move(source_offsets);
  checkpoints_[id] = std::move(cp);
}

void CheckpointStore::AddOperatorState(int64_t id, int stage, int instance,
                                       std::vector<uint8_t> state) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = checkpoints_.find(id);
  if (it == checkpoints_.end()) return;
  it->second->operator_state[StateKey(stage, instance)] = std::move(state);
}

void CheckpointStore::MaybeComplete(int64_t id, size_t expected_states) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = checkpoints_.find(id);
  if (it == checkpoints_.end()) return;
  if (it->second->operator_state.size() < expected_states) return;
  it->second->complete = true;
  complete_cv_.notify_all();
  // Retention: keep the newest `retention_` completed checkpoints and all
  // in-flight ones; erase older completed entries (recovery only ever
  // reads LatestComplete or an explicitly held shared_ptr).
  size_t completed_kept = 0;
  for (auto rit = checkpoints_.rbegin(); rit != checkpoints_.rend();) {
    if (!rit->second->complete) {
      ++rit;
      continue;
    }
    if (completed_kept < retention_) {
      ++completed_kept;
      ++rit;
      continue;
    }
    rit = decltype(rit)(checkpoints_.erase(std::next(rit).base()));
  }
}

void CheckpointStore::SetRetention(size_t keep_completed) {
  std::lock_guard<std::mutex> lock(mutex_);
  retention_ = keep_completed == 0 ? 1 : keep_completed;
}

size_t CheckpointStore::NumRetained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoints_.size();
}

std::shared_ptr<const CheckpointStore::Checkpoint>
CheckpointStore::LatestComplete() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (it->second->complete) return it->second;
  }
  return nullptr;
}

std::shared_ptr<const CheckpointStore::Checkpoint> CheckpointStore::Get(
    int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = checkpoints_.find(id);
  return it == checkpoints_.end() ? nullptr : it->second;
}

std::shared_ptr<const CheckpointStore::Checkpoint>
CheckpointStore::CompleteLocked(int64_t id) const {
  auto it = checkpoints_.find(id);
  if (it == checkpoints_.end() || !it->second->complete) return nullptr;
  return it->second;
}

std::shared_ptr<const CheckpointStore::Checkpoint>
CheckpointStore::WaitForComplete(
    int64_t id, std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& interrupted) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (auto cp = CompleteLocked(id)) return cp;
    if (interrupted && interrupted()) return nullptr;
    if (complete_cv_.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      return CompleteLocked(id);
    }
  }
}

void CheckpointStore::WakeWaiters() {
  std::lock_guard<std::mutex> lock(mutex_);
  complete_cv_.notify_all();
}

}  // namespace astream::spe
