#include "core/cluster.h"

#include <cassert>

#include "common/logging.h"

namespace ddbs {

Cluster::Cluster(Config cfg, uint64_t seed)
    : cfg_(std::move(cfg)),
      net_(sched_, cfg_, seed),
      cat_(Catalog::make(cfg_)) {
  recorder_.set_enabled(cfg_.record_history);
  if (cfg_.record_history && cfg_.online_verify) {
    verifier_ = std::make_unique<OnlineVerifier>(cfg_);
    recorder_.set_sink(verifier_.get());
  }
  tracer_.add_sink(&episodes_);
  tracer_.add_sink(&series_);
  // Per-site key lanes make this DES bit-compatible with the parallel
  // backend's per-shard execution order (see sim/scheduler.h).
  if (cfg_.site_ordered_events) sched_.enable_site_keys(cfg_.n_sites);
  sites_.reserve(static_cast<size_t>(cfg_.n_sites));
  for (SiteId s = 0; s < cfg_.n_sites; ++s) {
    sites_.push_back(std::make_unique<Site>(
        s, cfg_, sched_, net_, cat_, metrics_,
        cfg_.record_history ? &recorder_ : nullptr, &tracer_));
  }
}

void Cluster::bootstrap(Value initial_value) {
  for (auto& site : sites_) {
    if (sched_.site_keys()) sched_.set_context_site(site->id());
    site->bootstrap_up(initial_value);
  }
  if (sched_.site_keys()) sched_.set_context_free();
}

void Cluster::submit(SiteId origin, std::vector<LogicalOp> ops,
                     CoordinatorBase::DoneFn done) {
  TxnSpec spec;
  spec.origin = origin;
  spec.ops = std::move(ops);
  // Called from outside the simulation: the coordinator's first timers
  // must mint in the origin site's lane, as they do on the parallel
  // backend where submit lands on the owning shard.
  const bool external = sched_.site_keys() && sched_.context_lane() < 2;
  if (external) sched_.set_context_site(origin);
  sites_[static_cast<size_t>(origin)]->tm().submit_user(std::move(spec),
                                                        std::move(done));
  if (external) sched_.set_context_free();
}

TxnResult Cluster::run_txn(SiteId origin, std::vector<LogicalOp> ops) {
  TxnResult result;
  bool finished = false;
  submit(origin, std::move(ops), [&](const TxnResult& r) {
    result = r;
    finished = true;
  });
  // Drive the simulation until the callback fires (bounded).
  const SimTime deadline = sched_.now() + 2 * cfg_.txn_timeout;
  while (!finished && !sched_.idle() && sched_.now() < deadline) {
    sched_.run_until(sched_.next_event_time());
  }
  assert(finished && "run_txn: transaction never completed");
  return result;
}

bool Cluster::crash_site(SiteId s) {
  if (!valid_site(s)) {
    DDBS_WARN << "crash_site: site " << s << " out of range [0, "
              << cfg_.n_sites << "); ignored";
    return false;
  }
  // A crash scheduled against an already-down site (e.g. by a delta-
  // debugged fault schedule, or racing another injector) is a no-op, not
  // a double power-off of dead hardware.
  if (sites_[static_cast<size_t>(s)]->state().mode == SiteMode::kDown) {
    return false;
  }
  const bool external = sched_.site_keys() && sched_.context_lane() < 2;
  if (external) sched_.set_context_site(s);
  sites_[static_cast<size_t>(s)]->crash();
  if (external) sched_.set_context_free();
  return true;
}

bool Cluster::recover_site(SiteId s) {
  if (!valid_site(s)) {
    DDBS_WARN << "recover_site: site " << s << " out of range [0, "
              << cfg_.n_sites << "); ignored";
    return false;
  }
  if (sites_[static_cast<size_t>(s)]->state().mode != SiteMode::kDown) {
    return false; // already up or mid-recovery: nothing to power on
  }
  const bool external = sched_.site_keys() && sched_.context_lane() < 2;
  if (external) sched_.set_context_site(s);
  sites_[static_cast<size_t>(s)]->recover();
  if (external) sched_.set_context_free();
  return true;
}

void Cluster::crash_site_at(SimTime t, SiteId s) {
  schedule_global(t, [this, s]() { crash_site(s); });
}

void Cluster::recover_site_at(SimTime t, SiteId s) {
  schedule_global(t, [this, s]() { recover_site(s); });
}

void Cluster::settle(SimTime max_time) {
  runtime_impl::settle(*this, max_time);
}

EventId Cluster::post(SiteId site, SimTime at, EventFn fn) {
  if (sched_.site_keys()) {
    return sched_.at_keyed(at, sched_.mint_key(lane_of_site(site)),
                           std::move(fn));
  }
  return sched_.at(at, std::move(fn));
}

EventId Cluster::post_after(SiteId site, SimTime delay, EventFn fn) {
  return post(site, sched_.now() + delay, std::move(fn));
}

void Cluster::schedule_global(SimTime at, EventFn fn) {
  // Count the action while queued (no cancel path exists for globals) so
  // pending_site_events() can exclude it -- the parallel backend keeps
  // globals outside the shard queues entirely.
  ++pending_globals_;
  auto wrapped = [this, fn = std::move(fn)]() mutable {
    --pending_globals_;
    fn();
  };
  if (sched_.site_keys()) {
    // Lane 0 sorts before every same-time site event, matching the
    // parallel backend where global actions run at the window boundary.
    sched_.at_keyed(at, sched_.mint_key(kLaneGlobal), std::move(wrapped));
    return;
  }
  sched_.at(at, std::move(wrapped));
}

std::vector<RecoveryTimeline> Cluster::recovery_timelines() const {
  return runtime_impl::recovery_timelines(*this);
}

RunReport::Run& Cluster::report_run(RunReport& report,
                                    std::string label) const {
  RunReport::Run& run = report.add_run(std::move(label), cfg_);
  RunReport::capture_counters(run, metrics_);
  RunReport::capture_histograms(run, metrics_);
  run.recoveries = recovery_timelines();
  run.episodes = episodes_.episodes();
  run.series = series_.data(sched_.now());
  run.trace_recorded = static_cast<int64_t>(tracer_.recorded());
  run.trace_dropped = static_cast<int64_t>(tracer_.dropped());
  return run;
}

std::vector<TraceEvent> Cluster::trace_tail(size_t n) const {
  std::vector<TraceEvent> all = tracer_.snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<long>(n));
  return all;
}

double Cluster::events_per_sec() const {
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  return secs > 0 ? static_cast<double>(sched_.executed()) / secs : 0.0;
}

void Cluster::add_perf_scalars(RunReport::Run& run) const {
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  run.scalars.emplace_back("events_per_sec",
                           secs > 0 ? static_cast<double>(sched_.executed()) /
                                          secs
                                    : 0.0);
  run.scalars.emplace_back("events_executed",
                           static_cast<double>(sched_.executed()));
  run.scalars.emplace_back("wall_ms", secs * 1e3);
  // Host-side commit throughput (committed txns / wall second) -- the
  // headline number the parallel backend is judged on; reported by both
  // backends so scaling tables come from one code path.
  run.scalars.emplace_back(
      "commits_per_sec",
      secs > 0 ? static_cast<double>(metrics_.get(metrics_.id.txn_committed)) /
                     secs
               : 0.0);
  // Resident size of the CSR placement arrays: the cost of knowing where
  // every copy lives, which the 64-256 site sweeps track against n_items.
  run.scalars.emplace_back("catalog_bytes",
                           static_cast<double>(cat_.bytes()));
}

bool Cluster::replicas_converged(std::string* why) const {
  return runtime_impl::replicas_converged(*this, why);
}

} // namespace ddbs
