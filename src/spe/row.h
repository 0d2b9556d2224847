#ifndef ASTREAM_SPE_ROW_H_
#define ASTREAM_SPE_ROW_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace astream::spe {

/// Column value. The workloads of the paper (Sec. 4.2.1) use integer keys
/// and integer payload fields, so a single integer value type suffices.
using Value = int64_t;

/// A flat tuple of values. By convention column 0 is the partitioning key.
/// Join results concatenate the two input rows (left columns first).
///
/// Copy-on-write: the payload is a refcounted immutable rep, so copying a
/// Row is a pointer bump — the Router's per-query fan-out and broadcast
/// edges share one payload across all consumers (Sec. 3.2.2's "data copy"
/// becomes a reference). Mutation goes through Mutate(), which clones the
/// columns only when the payload is actually shared. Join outputs are
/// composed reps holding references to both parent rows (left ++ right)
/// without copying either side; composed rows flatten lazily on Mutate().
///
/// Thread safety: reps are immutable once shared, so concurrent reads of
/// Rows referencing one payload are safe. Mutate() requires the usual
/// exclusive access to the Row *object* (the payload refcount takes care
/// of other owners).
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values)
      : rep_(values.empty() ? nullptr
                            : std::make_shared<Rep>(std::move(values))) {}
  // Builds the rep in place: delegating through a temporary vector makes
  // GCC 12 report a spurious -Wfree-nonheap-object at every call site.
  Row(std::initializer_list<Value> values)
      : rep_(values.size() == 0 ? nullptr : std::make_shared<Rep>(values)) {}

  /// Partitioning key (column 0). Rows in flight always have >= 1 column.
  Value key() const {
    const Rep* r = rep_.get();
    if (r == nullptr) return 0;
    while (r->left != nullptr) r = r->left.get();
    return r->flat.empty() ? 0 : r->flat[0];
  }

  Value At(size_t i) const {
    const Rep* r = rep_.get();
    assert(r != nullptr && i < NumColumns());
    while (r->left != nullptr) {
      const size_t left_cols = ColsOf(r->left.get());
      if (i < left_cols) {
        r = r->left.get();
      } else {
        i -= left_cols;
        r = r->right.get();
      }
    }
    return r->flat[i];
  }

  size_t NumColumns() const { return ColsOf(rep_.get()); }

  /// Columns as one contiguous vector. Flat rows return the shared payload
  /// directly; composed (join-output) rows materialize into a scratch
  /// buffer owned by the caller.
  const std::vector<Value>& values() const {
    if (rep_ == nullptr) return EmptyColumns();
    if (rep_->left == nullptr) return rep_->flat;
    // Composed rep: materialize once and memoize. The cache is built from
    // immutable parents under the rep's once_flag and published with a
    // release store; concurrent readers take the acquire fast path.
    const std::vector<Value>* flat =
        rep_->flatten_view.load(std::memory_order_acquire);
    if (flat == nullptr) {
      rep_->BuildFlattenCache();
      flat = rep_->flatten_view.load(std::memory_order_acquire);
    }
    return *flat;
  }

  /// Appends all columns to `out` (flattens composed rows).
  void AppendTo(std::vector<Value>* out) const { AppendRep(rep_.get(), out); }

  /// Mutable access with copy-on-write semantics: the columns are cloned
  /// iff the payload is shared with another Row (or composed); a uniquely
  /// owned flat payload is handed out as-is. Callers may resize.
  std::vector<Value>& Mutate() {
    if (rep_ == nullptr || rep_.use_count() > 1 || rep_->left != nullptr) {
      auto fresh = std::make_shared<Rep>();
      if (rep_ != nullptr) {
        fresh->flat.reserve(NumColumns());
        AppendTo(&fresh->flat);
      }
      rep_ = std::move(fresh);
    }
    return rep_->flat;
  }

  /// Left ++ right concatenation (windowed join output, Fig. 7). Composes
  /// by reference: neither parent's columns are copied; both parents'
  /// payloads are frozen by the extra reference (their own Mutate() will
  /// copy).
  static Row Concat(const Row& left, const Row& right) {
    if (left.rep_ == nullptr) return right;
    if (right.rep_ == nullptr) return left;
    Row row;
    row.rep_ = std::make_shared<Rep>(left.rep_, right.rep_);
    return row;
  }

  /// True iff the two rows reference the same payload (zero-copy sharing —
  /// observability and tests).
  bool SharesStorageWith(const Row& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  /// True for join outputs composed from two parent rows (not yet
  /// flattened).
  bool IsComposed() const { return rep_ != nullptr && rep_->left != nullptr; }

  bool operator==(const Row& other) const {
    if (rep_ == other.rep_) return true;
    const size_t n = NumColumns();
    if (n != other.NumColumns()) return false;
    for (size_t i = 0; i < n; ++i) {
      if (At(i) != other.At(i)) return false;
    }
    return true;
  }
  bool operator!=(const Row& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  // State serialization walks reps directly to deduplicate shared
  // payloads by identity (StateWriter::WriteRepNode).
  friend class StateWriter;
  friend class StateReader;

  struct Rep {
    Rep() = default;
    explicit Rep(std::vector<Value> v) : flat(std::move(v)) {}
    explicit Rep(std::initializer_list<Value> v) : flat(v) {}
    Rep(std::shared_ptr<const Rep> l, std::shared_ptr<const Rep> r)
        : left(std::move(l)),
          right(std::move(r)),
          ncols(static_cast<uint32_t>(ColsOf(left.get()) +
                                      ColsOf(right.get()))) {}

    void BuildFlattenCache() const;

    std::vector<Value> flat;  // leaf storage (empty for composed reps)
    // Set iff this rep is a composed (concat) node.
    std::shared_ptr<const Rep> left;
    std::shared_ptr<const Rep> right;
    uint32_t ncols = 0;  // composed nodes only; leaves use flat.size()
    // Lazily materialized flat view of a composed rep (values() support).
    // `flatten_cache` owns the vector; readers go through the atomic
    // pointer (acquire) so the fast path never races the call_once
    // publisher.
    mutable std::unique_ptr<const std::vector<Value>> flatten_cache;
    mutable std::atomic<const std::vector<Value>*> flatten_view{nullptr};
    mutable std::once_flag flatten_once;
  };

  static size_t ColsOf(const Rep* r) {
    if (r == nullptr) return 0;
    return r->left != nullptr ? r->ncols : r->flat.size();
  }

  static void AppendRep(const Rep* r, std::vector<Value>* out);
  static const std::vector<Value>& EmptyColumns();

  // Logically const once shared; Mutate() re-establishes unique ownership
  // before handing out mutable access.
  std::shared_ptr<Rep> rep_;
};

}  // namespace astream::spe

#endif  // ASTREAM_SPE_ROW_H_
