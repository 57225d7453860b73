// Site-parallel execution backend: the cluster's sites are split into
// contiguous shards (Config::shard_count), each shard runs on its own
// worker thread with a private Scheduler, Metrics, Tracer,
// EpisodeTracker and TimeSeries -- the per-event hot path touches no
// shared mutable state at all. Cross-shard messages travel through one
// SPSC mailbox ring per (src, dst) shard pair and are re-injected into
// the destination shard's event queue by the driving thread while every
// worker is parked.
//
// Synchronization is conservative PDES with time windows: the driving
// thread repeatedly computes the global next-event time `start`, executes
// any due global control actions (crash/recover, partitions, loss/latency
// changes -- the DES's lane-0 events), then releases the workers to run
// one epoch window [start, end) where
//
//     end = min(start + W, next global action, target + 1)
//     W   = LatencyModel::floor_min()   (min cross-site latency)
//
// Every cross-site message sent inside the window has arrival >= sent_at
// + W >= end, so it always lands beyond the window's end and a drain at
// the barrier never delivers into the past. Within a window each shard
// fires its events in (time, lane, counter) key order -- the same order
// the single-threaded DES uses under Config::site_ordered_events -- which
// is what makes the two backends produce identical per-site event
// sequences (tests/test_parallel_differential.cpp).
//
// Threading contract: all ClusterRuntime methods must be called from the
// driving thread (between windows, workers parked) or from inside a
// simulation event on a shard thread -- and in the latter case must only
// touch that shard's sites (Runner restricts its workload accordingly).
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
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
#include "sim/spsc_ring.h"
#include "sim/trace.h"
#include "verify/history.h"
#include "verify/online_verifier.h"

namespace ddbs {

class ParallelCluster : public ClusterRuntime, private CrossShardSink {
 public:
  // Forces cfg.site_ordered_events (keyed order is what makes parallel
  // execution deterministic); shard count is cfg.shard_count().
  ParallelCluster(Config cfg, uint64_t seed);
  ~ParallelCluster() override;

  // ---- ClusterRuntime ----
  const Config& config() const override { return cfg_; }
  const Catalog& catalog() const override { return cat_; }
  Site& site(SiteId s) override { return *sites_[static_cast<size_t>(s)]; }
  using ClusterRuntime::site;
  Network& network() override { return net_; }
  Metrics& metrics() override;
  HistoryRecorder& history() override { return recorder_; }
  using ClusterRuntime::history;
  OnlineVerifier* online_verifier() override { return verifier_.get(); }

  void bootstrap(Value initial_value = 0) override;
  void submit(SiteId origin, std::vector<LogicalOp> ops,
              CoordinatorBase::DoneFn done) override;
  TxnResult run_txn(SiteId origin, std::vector<LogicalOp> ops) override;
  bool crash_site(SiteId s) override;
  bool recover_site(SiteId s) override;
  void crash_site_at(SimTime t, SiteId s) override;
  void recover_site_at(SimTime t, SiteId s) override;

  SimTime now() const override { return now_; }
  SimTime local_now(SiteId s) const override {
    return shards_[static_cast<size_t>(shard_of_site(s))]->sched.now();
  }
  void run_until(SimTime t) override;
  void settle(SimTime max_time = 60'000'000) override {
    runtime_impl::settle(*this, max_time);
  }

  EventId post(SiteId site, SimTime at, EventFn fn) override;
  EventId post_after(SiteId site, SimTime delay, EventFn fn) override;
  bool cancel(SiteId site, EventId id) override;
  void schedule_global(SimTime at, EventFn fn) override;

  std::vector<RecoveryTimeline> recovery_timelines() const override {
    return runtime_impl::recovery_timelines(*this);
  }
  RunReport::Run& report_run(RunReport& report,
                             std::string label) const override;
  uint64_t events_executed() const override;
  double events_per_sec() const override;
  void add_perf_scalars(RunReport::Run& run) const override;
  bool replicas_converged(std::string* why = nullptr) const override {
    return runtime_impl::replicas_converged(*this, why);
  }
  std::string spans_chrome_json() const override;

  // Shard queue depths plus undrained mailbox-ring messages: the parallel
  // mirror of the DES's (pending - queued globals). Driving thread only.
  uint64_t pending_site_events() const override;
  std::vector<TraceEvent> trace_tail(size_t n) const override;

  int shard_count() const { return n_shards_; }

 private:
  // Everything one worker thread owns, cacheline-separated from its
  // neighbours by the unique_ptr indirection.
  struct Shard {
    Shard(const Config& cfg, SiteId first, SiteId end)
        : first_site(first), end_site(end), tracer(sched, cfg.trace_capacity),
          episodes(cfg.n_sites),
          series(cfg.timeseries_bucket, cfg.n_sites) {}
    SiteId first_site;
    SiteId end_site; // exclusive
    Scheduler sched;
    Metrics metrics;
    Tracer tracer;
    EpisodeTracker episodes;
    TimeSeries series;
    // Drain scratch, reused across windows.
    std::vector<RemoteMsg> inbox;
  };

  // A pending global control action (DES lane-0 event): runs on the
  // driving thread at a window boundary, ordered by (time, insertion).
  struct Gop {
    SimTime at;
    uint64_t seq;
    EventFn fn;
  };

  int shard_of_site(SiteId s) const {
    return site_shard_[static_cast<size_t>(s)];
  }

  // Populate shards_ (contiguous site ranges, keyed schedulers) and return
  // the scheduler list the Network's sharded constructor needs. Runs in
  // the member-init list, after site_shard_ and before net_.
  std::vector<Scheduler*> build_shards();

  // Every shard's retained trace events, merged by timestamp (stable, so
  // shard order breaks ties). Driving thread only.
  std::vector<TraceEvent> merged_trace() const;

  // CrossShardSink: producer side of the mailbox rings (called by the
  // Network on a shard thread mid-window, or on the driving thread while
  // everything is parked).
  void forward(int src_shard, int dst_shard, RemoteMsg msg) override;

  // Move every queued cross-shard message into its destination shard's
  // event queue. Driving thread only, workers parked.
  void drain_rings();

  // Pop and run every global action due at or before `t`, with all shard
  // clocks advanced to the action's time first. Driving thread only.
  void run_gops_through(SimTime t);

  // Release the workers for one window ending at `end` (exclusive) and
  // block until all of them finish it.
  void run_window(SimTime end);

  // Global next-event time across shard queues and pending gops (rings
  // must be drained first); kNoTime when fully idle.
  SimTime next_time_global() const;

  void worker_loop(int shard);

  Config cfg_;
  std::chrono::steady_clock::time_point wall_start_ =
      std::chrono::steady_clock::now();
  int n_shards_;
  std::vector<int> site_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Scheduler*> shard_scheds_;
  HistoryRecorder recorder_;
  std::unique_ptr<OnlineVerifier> verifier_;
  Network net_;
  Catalog cat_;
  std::vector<std::unique_ptr<Site>> sites_;

  // (src, dst) mailbox rings, row-major [src * n_shards_ + dst].
  std::vector<std::unique_ptr<SpscRing<RemoteMsg>>> rings_;

  // Min-heap of pending global actions by (at, seq).
  std::vector<Gop> gops_;
  uint64_t gop_seq_ = 0;

  SimTime now_ = 0;

  // Worker parking lot. Workers wait for epoch_ to advance, run one
  // window to win_end_, then report back through running_.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t epoch_ = 0;
  SimTime win_end_ = 0;
  int running_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;

  // Aggregated-metrics cache rebuilt by metrics().
  Metrics agg_metrics_;
};

} // namespace ddbs
