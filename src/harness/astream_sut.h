#ifndef ASTREAM_HARNESS_ASTREAM_SUT_H_
#define ASTREAM_HARNESS_ASTREAM_SUT_H_

#include <memory>

#include "core/astream.h"
#include "harness/sut.h"

namespace astream::harness {

/// Thin adapter exposing an AStreamJob through the SUT interface.
class AStreamSut : public StreamSut {
 public:
  explicit AStreamSut(core::AStreamJob::Options options)
      : options_(options) {}

  Status Start() override {
    auto job = core::AStreamJob::Create(options_);
    ASTREAM_RETURN_IF_ERROR(job.status());
    job_ = std::move(job).value();
    return job_->Start();
  }

  core::PushResult Push(int stream, TimestampMs event_time,
                        spe::Row row) override {
    return job_->Push(stream, event_time, std::move(row));
  }
  void PushWatermark(TimestampMs watermark) override {
    job_->PushWatermark(watermark);
  }

  Result<core::QueryId> Submit(const core::QueryDescriptor& desc) override {
    return job_->Submit(desc);
  }
  Status Cancel(core::QueryId id) override { return job_->Cancel(id); }

  void Pump() override { job_->Pump(false); }

  bool WaitDeployed(TimestampMs timeout_ms) override {
    job_->Pump(true);
    return job_->WaitForDeployment(timeout_ms);
  }

  void FinishAndWait() override { job_->FinishAndWait(); }
  void Stop() override { job_->Stop(); }

  QosView qos() const override {
    return QosView::Of(job_->metrics(), job_->trace());
  }
  size_t QueuedElements() const override { return job_->QueuedElements(); }
  const char* name() const override { return "AStream"; }

  core::AStreamJob* job() { return job_.get(); }

 private:
  core::AStreamJob::Options options_;
  std::unique_ptr<core::AStreamJob> job_;
};

}  // namespace astream::harness

#endif  // ASTREAM_HARNESS_ASTREAM_SUT_H_
