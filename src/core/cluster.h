// The whole replicated DDBS under one deterministic simulation: sites,
// network, catalog, metrics, history recorder, plus failure-injection and
// convenience drivers for tests, examples and benches.
//
// This is the library's main public entry point:
//
//   Config cfg;               // pick protocol knobs
//   Cluster cluster(cfg, 42); // seed => fully reproducible run
//   cluster.bootstrap();
//   auto r = cluster.run_txn(0, {{OpKind::kWrite, 7, 100}});
//   cluster.crash_site(2);
//   ...
//   cluster.recover_site(2);
//   cluster.settle();         // drain in-flight work
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/report.h"
#include "common/timeseries.h"
#include "core/runtime.h"
#include "core/site.h"
#include "net/network.h"
#include "recovery/episode.h"
#include "replication/catalog.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "verify/history.h"
#include "verify/online_verifier.h"

namespace ddbs {

class Cluster : public ClusterRuntime {
 public:
  Cluster(Config cfg, uint64_t seed);

  // Bring every site up at t=0 with all data items holding initial_value.
  void bootstrap(Value initial_value = 0) override;

  // ---- workload ----

  // Submit asynchronously; `done` fires when the transaction finishes.
  void submit(SiteId origin, std::vector<LogicalOp> ops,
              CoordinatorBase::DoneFn done) override;

  // Submit and drive the simulation until this transaction finishes
  // (other scheduled activity advances too). Tests & examples.
  TxnResult run_txn(SiteId origin, std::vector<LogicalOp> ops) override;

  // ---- failure injection ----

  // Both are safe under arbitrary (possibly machine-generated) fault
  // schedules: an out-of-range SiteId is rejected with a warning, crashing
  // an already-down site and recovering a site that is not down are
  // no-ops. Returns whether the action was applied.
  bool crash_site(SiteId s) override;
  bool recover_site(SiteId s) override;
  void crash_site_at(SimTime t, SiteId s) override;
  void recover_site_at(SimTime t, SiteId s) override;

  // ---- time control ----

  SimTime now() const override { return sched_.now(); }
  SimTime local_now(SiteId) const override { return sched_.now(); }
  void run_until(SimTime t) override { sched_.run_until(t); }
  // Run until the event queue only contains periodic detector noise or is
  // empty; bounded by max_time.
  void settle(SimTime max_time = 60'000'000) override;

  // ---- scheduling ----

  EventId post(SiteId site, SimTime at, EventFn fn) override;
  EventId post_after(SiteId site, SimTime delay, EventFn fn) override;
  bool cancel(SiteId, EventId id) override { return sched_.cancel(id); }
  void schedule_global(SimTime at, EventFn fn) override;

  // ---- introspection ----

  Site& site(SiteId s) override { return *sites_[static_cast<size_t>(s)]; }
  using ClusterRuntime::site;
  const Config& config() const override { return cfg_; }
  const Catalog& catalog() const override { return cat_; }
  Scheduler& scheduler() { return sched_; }
  Network& network() override { return net_; }
  Metrics& metrics() override { return metrics_; }
  HistoryRecorder& history() override { return recorder_; }
  using ClusterRuntime::history;
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  // Alias of tracer(): perfbench reads spans().recorded().
  const Tracer& spans() const { return tracer_; }
  const EpisodeTracker& episodes() const { return episodes_; }
  const TimeSeries& timeseries() const { return series_; }
  // Non-null when cfg.online_verify (and record_history) are set.
  OnlineVerifier* online_verifier() { return verifier_.get(); }

  // One RecoveryTimeline per site that has begun a recovery this run
  // (from the per-site milestone records), for JSON reports.
  std::vector<RecoveryTimeline> recovery_timelines() const;

  // Append this cluster's state (config echo, non-zero counters, recovery
  // timelines) to `report` as a run labelled `label`. The returned Run can
  // take bench-specific scalars afterwards.
  RunReport::Run& report_run(RunReport& report, std::string label) const;

  // Simulator throughput on the host: events executed by the scheduler
  // divided by wall-clock seconds since this cluster was constructed.
  uint64_t events_executed() const { return sched_.executed(); }
  double events_per_sec() const;

  // Append host-perf scalars (events_per_sec, events_executed, wall_ms) to
  // a report run. Kept separate from report_run(): wall-clock scalars are
  // nondeterministic, and sweep per-run reports must stay bit-identical
  // across serial and parallel execution.
  void add_perf_scalars(RunReport::Run& run) const override;

  // True when every copy of every item is identical across its readable
  // (non-marked, up-site) replicas AND no unreadable copy remains at
  // operational sites. Quiescence check for tests.
  bool replicas_converged(std::string* why = nullptr) const override;

  std::string spans_chrome_json() const override {
    return to_chrome_json(tracer_.snapshot(), sched_.now());
  }

  // Pending events minus the not-yet-fired global control actions, which
  // on the parallel backend live outside the shard queues entirely.
  uint64_t pending_site_events() const override {
    return sched_.pending() - pending_globals_;
  }
  std::vector<TraceEvent> trace_tail(size_t n) const override;

 private:
  Config cfg_;
  std::chrono::steady_clock::time_point wall_start_ =
      std::chrono::steady_clock::now();
  Metrics metrics_;
  HistoryRecorder recorder_;
  std::unique_ptr<OnlineVerifier> verifier_;
  Scheduler sched_;
  Tracer tracer_{sched_, cfg_.trace_capacity};
  EpisodeTracker episodes_{cfg_.n_sites};
  TimeSeries series_{cfg_.timeseries_bucket, cfg_.n_sites};
  Network net_;
  Catalog cat_;
  std::vector<std::unique_ptr<Site>> sites_;
  // Scheduled-but-unfired schedule_global() actions; subtracted from the
  // queue depth so pending_site_events() matches the parallel backend.
  uint64_t pending_globals_ = 0;
};

} // namespace ddbs
