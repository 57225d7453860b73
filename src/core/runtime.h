// Backend-neutral interface over a running replicated DDBS. Two
// implementations exist:
//
//   - Cluster          the classic single-threaded deterministic DES; the
//                      testing and repro substrate.
//   - ParallelCluster  site shards on worker threads with SPSC mailbox
//                      rings and conservative epoch windows; the raw-speed
//                      backend (core/parallel_cluster.h).
//
// Runner, sweep, soak and the adversarial explorer drive this interface
// only, so every workload and every oracle runs unchanged on either
// backend; make_runtime picks by Config::n_threads. Under
// Config::site_ordered_events the two backends execute identical per-site
// event sequences, so quiescent runs agree on final KV state, session
// vectors and verifier verdicts (tests/test_parallel_differential.cpp).
//
// Threading contract: every method here must be called from OUTSIDE the
// simulation (the driving thread) or from inside a simulation event. The
// parallel backend's methods are safe in both positions because the
// driving thread only runs while the shard workers are parked at the
// epoch barrier.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/report.h"
#include "core/site.h"
#include "net/network.h"
#include "replication/catalog.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "verify/history.h"

namespace ddbs {

class OnlineVerifier;

class ClusterRuntime {
 public:
  virtual ~ClusterRuntime() = default;

  // ---- identity & shared components ----
  virtual const Config& config() const = 0;
  int n_sites() const { return config().n_sites; }
  bool valid_site(SiteId s) const { return s >= 0 && s < config().n_sites; }
  virtual const Catalog& catalog() const = 0;
  virtual Site& site(SiteId s) = 0;
  const Site& site(SiteId s) const {
    return const_cast<ClusterRuntime*>(this)->site(s);
  }
  virtual Network& network() = 0;
  // Aggregated metrics view. On the parallel backend this folds the
  // per-shard instances together on every call -- cheap, but call it at
  // boundaries (reports, assertions), not per event.
  virtual Metrics& metrics() = 0;
  virtual HistoryRecorder& history() = 0;
  const HistoryRecorder& history() const {
    return const_cast<ClusterRuntime*>(this)->history();
  }
  // Non-null when cfg.online_verify (and record_history) are set.
  virtual OnlineVerifier* online_verifier() = 0;

  // ---- lifecycle & workload ----
  virtual void bootstrap(Value initial_value = 0) = 0;
  virtual void submit(SiteId origin, std::vector<LogicalOp> ops,
                      CoordinatorBase::DoneFn done) = 0;
  virtual TxnResult run_txn(SiteId origin, std::vector<LogicalOp> ops) = 0;
  virtual bool crash_site(SiteId s) = 0;
  virtual bool recover_site(SiteId s) = 0;
  virtual void crash_site_at(SimTime t, SiteId s) = 0;
  virtual void recover_site_at(SimTime t, SiteId s) = 0;

  // ---- time control ----
  virtual SimTime now() const = 0;
  // Clock of the shard owning `s` (== now() on the DES). Workload code
  // timing a per-site interaction must use this: between epoch barriers
  // the shard clocks legitimately diverge within one lookahead window.
  virtual SimTime local_now(SiteId s) const = 0;
  virtual void run_until(SimTime t) = 0;
  // Run until the event queues only contain periodic detector noise or
  // are empty; bounded by max_time.
  virtual void settle(SimTime max_time = 60'000'000) = 0;

  // ---- scheduling (lane discipline in sim/scheduler.h) ----
  // Schedule work in `site`'s context: runs on the owning shard, minted
  // in the site's key lane. The returned id is only valid for cancel()
  // against the same site's shard.
  virtual EventId post(SiteId site, SimTime at, EventFn fn) = 0;
  virtual EventId post_after(SiteId site, SimTime delay, EventFn fn) = 0;
  virtual bool cancel(SiteId site, EventId id) = 0;
  // Schedule a global control action (partition, loss, latency change):
  // runs at a window boundary on the parallel backend, in lane 0 (before
  // any same-time event) on the DES. The callback must only touch
  // cluster-global state (Network knobs, crash/recover) -- never schedule
  // through post()/submit() from inside it.
  virtual void schedule_global(SimTime at, EventFn fn) = 0;

  // ---- reporting & verification ----
  virtual std::vector<RecoveryTimeline> recovery_timelines() const = 0;
  virtual RunReport::Run& report_run(RunReport& report,
                                     std::string label) const = 0;
  virtual uint64_t events_executed() const = 0;
  virtual double events_per_sec() const = 0;
  virtual void add_perf_scalars(RunReport::Run& run) const = 0;
  virtual bool replicas_converged(std::string* why = nullptr) const = 0;
  // Chrome trace-viewer JSON of the trace ring (all shards merged on the
  // parallel backend, so causal lanes resolve across shards).
  virtual std::string spans_chrome_json() const = 0;

  // ---- live telemetry hooks (common/telemetry.h) ----
  // Pending simulation events attributable to site activity. Excludes
  // lane-0 global control events on the DES and counts undrained
  // mailbox-ring messages on the parallel backend, so the two backends
  // agree at every global barrier time -- the value may appear in the
  // deterministic telemetry JSONL.
  virtual uint64_t pending_site_events() const = 0;
  // The most recent `n` retained trace events, oldest first (shards merged
  // by timestamp on the parallel backend). Diagnostic bundles only.
  virtual std::vector<TraceEvent> trace_tail(size_t n) const = 0;
};

// Construct the backend selected by cfg.n_threads: Cluster when 1,
// ParallelCluster when > 1 (which forces cfg.site_ordered_events).
std::unique_ptr<ClusterRuntime> make_runtime(const Config& cfg,
                                             uint64_t seed);

// Shared backend-independent logic (core/runtime.cpp).
namespace runtime_impl {
// The settle() heuristic: advance in detector-interval slices until no
// coordinator, DM context, parked read or recovery remains in flight.
void settle(ClusterRuntime& rt, SimTime max_time);
bool replicas_converged(const ClusterRuntime& rt, std::string* why);
std::vector<RecoveryTimeline> recovery_timelines(const ClusterRuntime& rt);
} // namespace runtime_impl

} // namespace ddbs
