#include "core/parallel_cluster.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "core/cluster.h"

namespace ddbs {

namespace {

Config normalized(Config cfg) {
  // Keyed per-site event order is not optional here: it is what makes the
  // shard threads' interleaving deterministic and DES-equivalent.
  cfg.site_ordered_events = true;
  if (cfg.n_threads < 1) cfg.n_threads = 1;
  return cfg;
}

std::vector<int> make_site_shard(const Config& cfg) {
  std::vector<int> out(static_cast<size_t>(cfg.n_sites), 0);
  for (SiteId s = 0; s < cfg.n_sites; ++s)
    out[static_cast<size_t>(s)] = cfg.shard_of(s);
  return out;
}

// Earliest observed timestamp of an episode, for the cross-shard merge
// order (each shard's tracker only saw its own sites' events).
SimTime episode_key(const RecoveryEpisode& e) {
  if (e.crash_at != kNoTime) return e.crash_at;
  if (e.declared_down_at != kNoTime) return e.declared_down_at;
  if (e.reboot_at != kNoTime) return e.reboot_at;
  return e.nominally_up_at;
}

} // namespace

ParallelCluster::ParallelCluster(Config cfg, uint64_t seed)
    : cfg_(normalized(std::move(cfg))),
      n_shards_(cfg_.shard_count()),
      site_shard_(make_site_shard(cfg_)),
      shard_scheds_(build_shards()),
      net_(shard_scheds_, cfg_, seed, this),
      cat_(Catalog::make(cfg_)) {
  recorder_.set_enabled(cfg_.record_history);
  recorder_.set_thread_safe(n_shards_ > 1);
  if (cfg_.record_history && cfg_.online_verify) {
    verifier_ = std::make_unique<OnlineVerifier>(cfg_);
    recorder_.set_sink(verifier_.get());
  }
  for (int k = 0; k < n_shards_; ++k) {
    Shard& sh = *shards_[static_cast<size_t>(k)];
    sh.tracer.add_sink(&sh.episodes);
    sh.tracer.add_sink(&sh.series);
    // Shard-local span ids, globally unique: offset + 1 + i * n_shards.
    sh.tracer.set_id_stride(static_cast<SpanId>(n_shards_),
                            static_cast<SpanId>(k));
  }
  rings_.reserve(static_cast<size_t>(n_shards_) *
                 static_cast<size_t>(n_shards_));
  for (int i = 0; i < n_shards_ * n_shards_; ++i)
    rings_.push_back(std::make_unique<SpscRing<RemoteMsg>>(4096));
  sites_.reserve(static_cast<size_t>(cfg_.n_sites));
  for (SiteId s = 0; s < cfg_.n_sites; ++s) {
    Shard& sh = *shards_[static_cast<size_t>(shard_of_site(s))];
    sites_.push_back(std::make_unique<Site>(
        s, cfg_, sh.sched, net_, cat_, sh.metrics,
        cfg_.record_history ? &recorder_ : nullptr, &sh.tracer));
  }
  if (n_shards_ > 1) {
    threads_.reserve(static_cast<size_t>(n_shards_));
    for (int k = 0; k < n_shards_; ++k)
      threads_.emplace_back([this, k] { worker_loop(k); });
  }
}

std::vector<Scheduler*> ParallelCluster::build_shards() {
  std::vector<Scheduler*> scheds;
  shards_.reserve(static_cast<size_t>(n_shards_));
  scheds.reserve(static_cast<size_t>(n_shards_));
  SiteId s = 0;
  for (int k = 0; k < n_shards_; ++k) {
    const SiteId first = s;
    while (s < cfg_.n_sites && site_shard_[static_cast<size_t>(s)] == k) ++s;
    shards_.push_back(std::make_unique<Shard>(cfg_, first, s));
    shards_.back()->sched.enable_site_keys(cfg_.n_sites);
    scheds.push_back(&shards_.back()->sched);
  }
  return scheds;
}

ParallelCluster::~ParallelCluster() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void ParallelCluster::forward(int src_shard, int dst_shard, RemoteMsg msg) {
  rings_[static_cast<size_t>(src_shard) * static_cast<size_t>(n_shards_) +
         static_cast<size_t>(dst_shard)]
      ->push(std::move(msg));
}

void ParallelCluster::drain_rings() {
  for (int dst = 0; dst < n_shards_; ++dst) {
    Shard& sh = *shards_[static_cast<size_t>(dst)];
    sh.inbox.clear();
    for (int src = 0; src < n_shards_; ++src) {
      rings_[static_cast<size_t>(src) * static_cast<size_t>(n_shards_) +
             static_cast<size_t>(dst)]
          ->drain(sh.inbox);
    }
    // Order within the inbox is irrelevant: every message carries its own
    // (arrival, key) and the destination event queue restores the total
    // deterministic order.
    for (RemoteMsg& m : sh.inbox) net_.enqueue_remote(dst, std::move(m));
    sh.inbox.clear();
  }
}

SimTime ParallelCluster::next_time_global() const {
  SimTime lo = kNoTime;
  for (const auto& sh : shards_) {
    const SimTime t = sh->sched.next_event_time();
    if (t != kNoTime && (lo == kNoTime || t < lo)) lo = t;
  }
  if (!gops_.empty()) {
    const SimTime g = gops_.front().at;
    if (lo == kNoTime || g < lo) lo = g;
  }
  return lo;
}

void ParallelCluster::run_gops_through(SimTime t) {
  while (!gops_.empty() && gops_.front().at <= t) {
    std::pop_heap(gops_.begin(), gops_.end(), [](const Gop& a, const Gop& b) {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    });
    Gop g = std::move(gops_.back());
    gops_.pop_back();
    // The action observes every shard clock at its own time, exactly like
    // the DES firing a lane-0 event.
    for (auto& sh : shards_) sh->sched.advance_to(g.at);
    if (now_ < g.at) now_ = g.at;
    g.fn();
  }
}

void ParallelCluster::run_window(SimTime end) {
  if (threads_.empty()) {
    shards_[0]->sched.run_window(end);
    return;
  }
  // Sparse window: when a single shard has due work (common during
  // recovery bursts or skewed load), run it inline instead of paying the
  // barrier round-trip. Safe: the workers are parked, so the driving
  // thread is the only one touching the shard -- and execution order is
  // the shard's own key order either way.
  {
    Shard* only = nullptr;
    int active = 0;
    for (auto& sh : shards_) {
      const SimTime next = sh->sched.next_event_time();
      if (next != kNoTime && next < end) {
        only = sh.get();
        if (++active > 1) break;
      }
    }
    if (active == 0) return;
    if (active == 1) {
      only->sched.run_window(end);
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    win_end_ = end;
    running_ = n_shards_;
    ++epoch_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this] { return running_ == 0; });
}

void ParallelCluster::worker_loop(int shard) {
  Scheduler& sched = shards_[static_cast<size_t>(shard)]->sched;
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [&] { return quit_ || epoch_ != seen; });
    if (quit_) return;
    seen = epoch_;
    const SimTime end = win_end_;
    lk.unlock();
    sched.run_window(end);
    lk.lock();
    if (--running_ == 0) cv_done_.notify_one();
  }
}

void ParallelCluster::run_until(SimTime target) {
  while (true) {
    // Workers are parked here, so the driving thread may drain mailboxes
    // and touch any shard's scheduler directly.
    drain_rings();
    SimTime start = next_time_global();
    if (start == kNoTime || start > target) break;
    if (!gops_.empty() && gops_.front().at <= start) {
      run_gops_through(start);
      continue; // a gop may have scheduled work or another gop
    }
    // Conservative lookahead: any cross-site message sent inside
    // [start, end) arrives at >= start + W >= end, so a window never
    // misses a delivery from a concurrent shard.
    SimTime w = net_.latency().floor_min();
    if (w < 1) w = 1;
    SimTime end = start + w;
    if (!gops_.empty() && gops_.front().at < end) end = gops_.front().at;
    if (end > target + 1) end = target + 1;
    run_window(end);
    const SimTime reached = std::min(end, target);
    for (auto& sh : shards_) sh->sched.advance_to(reached);
    if (now_ < reached) now_ = reached;
  }
  for (auto& sh : shards_) sh->sched.advance_to(target);
  if (now_ < target) now_ = target;
}

void ParallelCluster::bootstrap(Value initial_value) {
  for (auto& site : sites_) {
    Scheduler& sch = shards_[static_cast<size_t>(shard_of_site(site->id()))]
                         ->sched;
    sch.set_context_site(site->id());
    site->bootstrap_up(initial_value);
    sch.set_context_free();
  }
}

void ParallelCluster::submit(SiteId origin, std::vector<LogicalOp> ops,
                             CoordinatorBase::DoneFn done) {
  Scheduler& sch =
      shards_[static_cast<size_t>(shard_of_site(origin))]->sched;
  const bool external = sch.context_lane() < 2;
  if (external) sch.set_context_site(origin);
  TxnSpec spec;
  spec.origin = origin;
  spec.ops = std::move(ops);
  sites_[static_cast<size_t>(origin)]->tm().submit_user(std::move(spec),
                                                        std::move(done));
  if (external) sch.set_context_free();
}

TxnResult ParallelCluster::run_txn(SiteId origin, std::vector<LogicalOp> ops) {
  TxnResult result;
  bool finished = false;
  submit(origin, std::move(ops), [&](const TxnResult& r) {
    result = r;
    finished = true;
  });
  const SimTime deadline = now_ + 2 * cfg_.txn_timeout;
  while (!finished && now_ < deadline) {
    drain_rings();
    const SimTime lo = next_time_global();
    if (lo == kNoTime) break;
    run_until(std::min(lo, deadline));
  }
  assert(finished && "run_txn: transaction never completed");
  return result;
}

bool ParallelCluster::crash_site(SiteId s) {
  if (!valid_site(s)) {
    DDBS_WARN << "crash_site: site " << s << " out of range [0, "
              << cfg_.n_sites << "); ignored";
    return false;
  }
  if (sites_[static_cast<size_t>(s)]->state().mode == SiteMode::kDown) {
    return false;
  }
  Scheduler& sch = shards_[static_cast<size_t>(shard_of_site(s))]->sched;
  const bool external = sch.context_lane() < 2;
  if (external) sch.set_context_site(s);
  sites_[static_cast<size_t>(s)]->crash();
  if (external) sch.set_context_free();
  return true;
}

bool ParallelCluster::recover_site(SiteId s) {
  if (!valid_site(s)) {
    DDBS_WARN << "recover_site: site " << s << " out of range [0, "
              << cfg_.n_sites << "); ignored";
    return false;
  }
  if (sites_[static_cast<size_t>(s)]->state().mode != SiteMode::kDown) {
    return false;
  }
  Scheduler& sch = shards_[static_cast<size_t>(shard_of_site(s))]->sched;
  const bool external = sch.context_lane() < 2;
  if (external) sch.set_context_site(s);
  sites_[static_cast<size_t>(s)]->recover();
  if (external) sch.set_context_free();
  return true;
}

void ParallelCluster::crash_site_at(SimTime t, SiteId s) {
  schedule_global(t, [this, s]() { crash_site(s); });
}

void ParallelCluster::recover_site_at(SimTime t, SiteId s) {
  schedule_global(t, [this, s]() { recover_site(s); });
}

EventId ParallelCluster::post(SiteId site, SimTime at, EventFn fn) {
  Scheduler& sch =
      shards_[static_cast<size_t>(shard_of_site(site))]->sched;
  return sch.at_keyed(at, sch.mint_key(lane_of_site(site)), std::move(fn));
}

EventId ParallelCluster::post_after(SiteId site, SimTime delay, EventFn fn) {
  Scheduler& sch =
      shards_[static_cast<size_t>(shard_of_site(site))]->sched;
  return sch.at_keyed(sch.now() + delay, sch.mint_key(lane_of_site(site)),
                      std::move(fn));
}

bool ParallelCluster::cancel(SiteId site, EventId id) {
  return shards_[static_cast<size_t>(shard_of_site(site))]->sched.cancel(id);
}

void ParallelCluster::schedule_global(SimTime at, EventFn fn) {
  gops_.push_back(Gop{at, gop_seq_++, std::move(fn)});
  std::push_heap(gops_.begin(), gops_.end(), [](const Gop& a, const Gop& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  });
}

Metrics& ParallelCluster::metrics() {
  agg_metrics_.clear();
  for (const auto& sh : shards_) agg_metrics_.merge_from(sh->metrics);
  return agg_metrics_;
}

RunReport::Run& ParallelCluster::report_run(RunReport& report,
                                            std::string label) const {
  RunReport::Run& run = report.add_run(std::move(label), cfg_);
  Metrics agg;
  for (const auto& sh : shards_) agg.merge_from(sh->metrics);
  RunReport::capture_counters(run, agg);
  RunReport::capture_histograms(run, agg);
  run.recoveries = recovery_timelines();

  std::vector<RecoveryEpisode> eps;
  for (const auto& sh : shards_) {
    std::vector<RecoveryEpisode> e = sh->episodes.episodes();
    eps.insert(eps.end(), e.begin(), e.end());
  }
  std::stable_sort(eps.begin(), eps.end(),
                   [](const RecoveryEpisode& a, const RecoveryEpisode& b) {
                     const SimTime ka = episode_key(a), kb = episode_key(b);
                     if (ka != kb) return ka < kb;
                     return a.site < b.site;
                   });
  run.episodes = std::move(eps);

  // Merge the per-shard availability curves. Counts sum directly; each
  // shard's sites_up baseline counts ALL sites as up (only its own sites'
  // transitions arrive at it), so the merged curve subtracts the
  // (n_shards - 1) duplicate baselines.
  TimeSeriesData merged;
  merged.bucket_width = cfg_.timeseries_bucket;
  if (merged.bucket_width > 0) {
    std::vector<TimeSeriesData> datas;
    size_t n = 0;
    for (const auto& sh : shards_) {
      datas.push_back(sh->series.data(now_));
      n = std::max(n, datas.back().sites_up.size());
    }
    merged.commits.assign(n, 0);
    merged.aborts.assign(n, 0);
    merged.session_rejects.assign(n, 0);
    merged.sites_up.assign(n, 0);
    for (const TimeSeriesData& d : datas) {
      for (size_t b = 0; b < n; ++b) {
        if (b < d.commits.size()) merged.commits[b] += d.commits[b];
        if (b < d.aborts.size()) merged.aborts[b] += d.aborts[b];
        if (b < d.session_rejects.size())
          merged.session_rejects[b] += d.session_rejects[b];
        // A shard's short curve holds its last value through the tail.
        merged.sites_up[b] +=
            b < d.sites_up.size()
                ? d.sites_up[b]
                : (d.sites_up.empty() ? cfg_.n_sites : d.sites_up.back());
      }
    }
    const int64_t dup =
        static_cast<int64_t>(n_shards_ - 1) * cfg_.n_sites;
    for (size_t b = 0; b < n; ++b) merged.sites_up[b] -= dup;
  }
  run.series = std::move(merged);

  for (const auto& sh : shards_) {
    run.trace_recorded += static_cast<int64_t>(sh->tracer.recorded());
    run.trace_dropped += static_cast<int64_t>(sh->tracer.dropped());
  }
  return run;
}

uint64_t ParallelCluster::events_executed() const {
  uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sched.executed();
  return n;
}

double ParallelCluster::events_per_sec() const {
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  return secs > 0 ? static_cast<double>(events_executed()) / secs : 0.0;
}

void ParallelCluster::add_perf_scalars(RunReport::Run& run) const {
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  const double executed = static_cast<double>(events_executed());
  run.scalars.emplace_back("events_per_sec",
                           secs > 0 ? executed / secs : 0.0);
  run.scalars.emplace_back("events_executed", executed);
  run.scalars.emplace_back("wall_ms", secs * 1e3);
  int64_t committed = 0;
  for (const auto& sh : shards_)
    committed += sh->metrics.get(sh->metrics.id.txn_committed);
  run.scalars.emplace_back(
      "commits_per_sec",
      secs > 0 ? static_cast<double>(committed) / secs : 0.0);
  run.scalars.emplace_back("catalog_bytes",
                           static_cast<double>(cat_.bytes()));
}

std::vector<TraceEvent> ParallelCluster::merged_trace() const {
  std::vector<TraceEvent> all;
  for (const auto& sh : shards_) {
    std::vector<TraceEvent> one = sh->tracer.snapshot();
    all.insert(all.end(), one.begin(), one.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
  return all;
}

std::string ParallelCluster::spans_chrome_json() const {
  // One exporter over the merged stream: a DM slice on one shard finds
  // the root of its parent chain even when the coordinator ran on another.
  return to_chrome_json(merged_trace(), now_);
}

uint64_t ParallelCluster::pending_site_events() const {
  // Shard queues hold scheduled site events; rings hold cross-shard sends
  // a gop produced since the last drain. Globals live in gops_ and are
  // excluded, mirroring the DES's pending_globals_ subtraction.
  uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sched.pending();
  for (const auto& r : rings_) n += r->size();
  return n;
}

std::vector<TraceEvent> ParallelCluster::trace_tail(size_t n) const {
  std::vector<TraceEvent> all = merged_trace();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<long>(n));
  return all;
}

std::unique_ptr<ClusterRuntime> make_runtime(const Config& cfg,
                                             uint64_t seed) {
  if (cfg.n_threads > 1 && cfg.shard_count() > 1) {
    return std::make_unique<ParallelCluster>(cfg, seed);
  }
  return std::make_unique<Cluster>(cfg, seed);
}

} // namespace ddbs
