#ifndef ASTREAM_CORE_ISOLATION_H_
#define ASTREAM_CORE_ISOLATION_H_

#include <map>
#include <memory>
#include <mutex>

#include "core/astream.h"

namespace astream::core {

/// De-sharing (DESIGN.md §14): ejects a metered "whale" query out of the
/// shared plan into its own dedicated AStreamJob, and hands it back once
/// its cost drops. Output across the migration is byte-identical to the
/// never-migrated shared plan: every window of the whale is emitted
/// exactly once, by exactly one of the two jobs.
///
/// The manager is a facade over the primary job. Route Submit / Cancel /
/// Push* / Pump / SetResultCallback through it so it can (a) remember
/// descriptors for re-submission, (b) duplicate the live feed into the
/// dedicated job while one exists, and (c) rewrite re-admitted query ids
/// back to the id the client knows.
///
/// Migration protocol (all on the control thread):
///
///   Eject:  flush + checkpoint the primary; cancel the whale there
///           (windows ending at or before the cancel marker D1 still
///           drain from the shared plan); restore the checkpoint into a
///           fresh dedicated job; cancel every minnow in it; dup-feed
///           tuples and watermarks from then on. The dedicated egress
///           passes only whale windows ending after D1.
///   Handback: re-submit the whale to the primary with align_origin = its
///           original creation time, so its window lattice re-anchors on
///           the original grid: first shared window [A, A + length) with
///           A = AlignForward(deploy marker, origin, slide). The dedicated
///           job owns window ends up to B = A + length - slide, then
///           drains and dies; primary output under the new id is rewritten
///           to the client-visible id.
///
/// Whale detection and auto re-admission run in Maintain(), polled from
/// the control thread; policy knobs live in SloOptions.
class IsolationManager {
 public:
  /// `primary` must outlive the manager. Policy comes from
  /// primary->options().slo; metering must be on for detection to work.
  explicit IsolationManager(AStreamJob* primary);
  ~IsolationManager();

  IsolationManager(const IsolationManager&) = delete;
  IsolationManager& operator=(const IsolationManager&) = delete;

  /// Facade over the primary job (dup-fed to the dedicated job when one
  /// exists). Ids returned/accepted are client-visible ids.
  Result<QueryId> Submit(const QueryDescriptor& desc);
  Result<AStreamJob::SubmitOutcome> SubmitWithOutcome(
      const QueryDescriptor& desc);
  Status Cancel(QueryId id);
  /// Feeds the primary job and, while a whale is ejected, its dedicated
  /// job too.
  PushResult Push(int stream, TimestampMs event_time, spe::Row row);
  void PushWatermark(TimestampMs watermark);
  int Pump(bool force = false);
  void SetResultCallback(AStreamJob::ResultCallback callback);

  /// Policy poll (control thread): detect + eject a whale, arm a pending
  /// hand-back once its re-admission deploys, finish a hand-back whose
  /// boundary the watermark passed, auto-readmit a cooled-down whale.
  Status Maintain();

  /// Manual controls (Maintain drives these from policy; tests and the
  /// scenario runner call them directly for determinism).
  Status EjectWhale(QueryId id);
  Status BeginReadmit();

  bool HasDedicated() const { return dedicated_ != nullptr; }
  /// Client-visible id of the currently ejected whale (-1 = none).
  QueryId whale() const { return whale_; }
  bool handing_back() const { return readmit_id_ != -1; }
  int64_t desharings() const { return desharings_; }
  /// The whale's dedicated job (tests; nullptr when none).
  AStreamJob* dedicated() { return dedicated_.get(); }

 private:
  /// The primary-job id currently serving client-visible id `id`.
  QueryId InternalId(QueryId id) const;
  QueryId ExternalId(QueryId internal) const;
  void InstallPrimaryCallback();
  /// Hand-back boundary B once the re-admitted whale's creation marker is
  /// known (it may deploy late when the re-admission was queued).
  void MaybeArmHandover();
  /// Watermark reached B: drain + destroy the dedicated job.
  void FinishHandback();
  Status WaitForCheckpoint(
      int64_t id,
      std::shared_ptr<const spe::CheckpointStore::Checkpoint>* out);
  void TeardownDedicated(bool drain);

  AStreamJob* primary_;
  std::unique_ptr<AStreamJob> dedicated_;

  /// Descriptors by client-visible id (facade submissions only).
  std::map<QueryId, QueryDescriptor> descs_;
  /// Primary id -> client-visible id for re-admitted whales.
  std::map<QueryId, QueryId> rewrite_;
  /// Client-visible id -> current primary id (inverse of rewrite_).
  std::map<QueryId, QueryId> internal_of_;

  QueryId whale_ = -1;           // client-visible id of the ejected whale
  QueryId whale_internal_ = -1;  // its id inside the dedicated job
  QueryId readmit_id_ = -1;      // its new primary id during hand-back
  TimestampMs whale_origin_ = kMinTimestamp;  // original lattice anchor C
  TimestampMs last_watermark_ = kMinTimestamp;
  int64_t desharings_ = 0;
  obs::Counter* m_desharings_ = nullptr;

  /// Egress filter state, read by sink threads in threaded mode.
  /// split_time_ = D1 (whale windows ending after it come from the
  /// dedicated job); handover_end_ = B (ends after it come from the
  /// primary again; kMaxTimestamp while no hand-back is armed).
  std::mutex cb_mutex_;
  TimestampMs split_time_ = kMinTimestamp;
  TimestampMs handover_end_ = kMaxTimestamp;
  AStreamJob::ResultCallback user_cb_;
};

}  // namespace astream::core

#endif  // ASTREAM_CORE_ISOLATION_H_
