#include "daemon.h"

#include <utility>

namespace bgpcu::benchpipe {

namespace {

api::ServiceConfig service_config() {
  api::ServiceConfig config;
  config.stream.window_epochs = kWindowEpochs;
  return config;
}

store::StoreConfig store_config(const std::string& data_dir) {
  store::StoreConfig config;
  config.dir = data_dir;
  config.sync = store::SyncPolicy::kEpoch;
  config.checkpoint_every_epochs = kCheckpointEvery;
  return config;
}

}  // namespace

double EpochOutcome::through_publish_ms() const {
  double ms = 0;
  for (const auto& stage : stages) {
    ms += ms_between(stage.start, stage.end);
    if (stage.end == publish_end) break;
  }
  return ms;
}

Daemon::Daemon(const std::string& watch_dir, const std::string& data_dir,
               const registry::AllocationRegistry& registry)
    : service_(service_config()), store_(store_config(data_dir)), feed_(watch_dir, registry, ".mrt") {}

store::RecoveryStats Daemon::recover() {
  auto stats = store_.recover(service_);
  if (!stats.feed_marks.empty()) feed_.restore_marks(stats.feed_marks);
  // As in bgpcu_serve: a recovered engine's current epoch already holds its
  // replayed batch, so the next ingesting poll opens a new epoch.
  ingest_polls_ = stats.recovered ? 1 : 0;
  return stats;
}

EpochOutcome Daemon::step(bool cadence_checkpoint) {
  EpochOutcome out;
  auto t = Clock::now();
  const auto stage = [&](const char* name) {
    const auto now = Clock::now();
    out.stages.push_back({name, t, now});
    t = now;
  };

  auto poll = feed_.poll();
  stage("feed.poll");
  out.failed_files = poll.failed.size();
  if (poll.empty()) return out;
  out.ingested = true;
  out.files = std::move(poll.files);
  out.sanitizer_in = poll.sanitation.input;
  out.sanitizer_out = poll.sanitation.output;
  out.decode_errors = poll.extraction.decode_errors;

  if (ingest_polls_ > 0) {
    (void)service_.advance_epoch();
    stage("api.advance_epoch");
  }
  ++ingest_polls_;
  out.epoch = service_.epoch();
  store_.append_epoch_batch(out.epoch, poll.batch, feed_.export_marks());
  stage("store.append_epoch_batch");
  (void)service_.ingest(std::move(poll.batch));
  stage("api.ingest");
  (void)service_.query({.kind = api::QueryKind::kSnapshot});
  stage("api.snapshot");
  out.delta = service_.publish();
  stage("api.publish");
  out.publish_end = t;
  store_.append_epoch_delta(out.delta);
  stage("store.append_epoch_delta");
  if (cadence_checkpoint) {
    (void)store_.maybe_checkpoint(service_);
    stage("store.maybe_checkpoint");
  }
  return out;
}

void trace_epoch(Tracer& tracer, const EpochOutcome& epoch, const char* root_name,
                 std::uint64_t trace, SpanId parent) {
  if (!tracer.enabled()) return;
  const auto root = tracer.add(root_name, trace, parent, epoch.start(), epoch.end());
  for (const auto& stage : epoch.stages) {
    tracer.add(stage.name, trace, root, stage.start, stage.end);
  }
}

}  // namespace bgpcu::benchpipe
