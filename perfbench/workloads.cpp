#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <numeric>
#include <optional>
#include <utility>

#include "common/random.h"
#include "core/cluster.h"
#include "explore/oracles.h"
#include "replication/session.h"
#include "verify/online_verifier.h"
#include "workload/workload_gen.h"

namespace perfbench {

using namespace ddbs;

const std::vector<Workload>& workloads() {
  // churn_16 is not in BENCHMARK.json: it runs into a known defect of the
  // program (under missing-list its gate fails on every seed), and a
  // benchmark workload must run correctly. churn_markall_16 is the same
  // run with the default mark-all strategy, on which every oracle holds.
  static const std::vector<Workload> kAll = {
      // name           sites items clients ops reads thr churn sim_s/s
      {"steady_128", 128, 5120, 4, 2, 0.7, 1, false, 0.25},
      {"churn_markall_16", 16, 640, 2, 3, 0.5, 1, true, 4.0,
       OutdatedStrategy::kMarkAll},
      {"parallel_32", 32, 1280, 4, 2, 0.7, 2, false, 2.0},
      {"churn_16", 16, 640, 2, 3, 0.5, 1, true, 13.5,
       OutdatedStrategy::kMissingList},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Config make_config(const Workload& w) {
  Config cfg;
  cfg.n_sites = w.sites;
  cfg.n_items = w.items;
  cfg.n_threads = w.threads;
  cfg.record_history = w.churn;
  cfg.online_verify = w.churn;
  if (w.churn) {
    cfg.outdated_strategy = w.strategy;
    cfg.copier_mode = CopierMode::kEager;
    cfg.storage_engine = StorageEngineKind::kDurable;
  }
  return cfg;
}

// The churn workloads' open-loop faults: a crash every 4 s of simulated
// time (first at 0.3 s), each site down for 1 s, victims taken from a
// seed-derived rotation over all sites.
constexpr SimTime kCrashPhase = 300'000;
constexpr SimTime kCrashEvery = 4'000'000;
constexpr SimTime kDownFor = 1'000'000;

RunnerParams make_params(const Workload& w, SimTime horizon, uint64_t seed) {
  RunnerParams rp;
  rp.clients_per_site = w.clients_per_site;
  rp.duration = horizon;
  rp.workload.ops_per_txn = w.ops_per_txn;
  rp.workload.read_fraction = w.read_fraction;
  if (w.churn) {
    std::vector<SiteId> rotation(static_cast<size_t>(w.sites));
    std::iota(rotation.begin(), rotation.end(), 0);
    Rng rng(seed ^ 0xc4a5'e0f1'5eedULL);
    for (size_t i = rotation.size() - 1; i > 0; --i) {
      std::swap(rotation[i], rotation[static_cast<size_t>(
                                 rng.uniform(0, static_cast<int64_t>(i)))]);
    }
    for (size_t k = 0;; ++k) {
      const SimTime at = kCrashPhase + static_cast<SimTime>(k) * kCrashEvery;
      if (at + kDownFor > horizon) break;
      const SiteId victim = rotation[k % rotation.size()];
      rp.schedule.push_back({at, FailureEvent::What::kCrash, victim});
      rp.schedule.push_back({at + kDownFor, FailureEvent::What::kRecover,
                             victim});
    }
  }
  return rp;
}

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void SliceProbe::sample(ClusterRuntime& rt) {
  const double pending = static_cast<double>(rt.pending_site_events());
  double rpc = 0, active = 0, parked = 0;
  for (SiteId s = 0; s < rt.n_sites(); ++s) {
    Site& site = rt.site(s);
    rpc += static_cast<double>(site.rpc().pending_count());
    active += static_cast<double>(site.dm().active_txn_count());
    parked += static_cast<double>(site.dm().parked_read_count());
  }
  ++samples;
  pending_sum += pending;
  pending_max = std::max(pending_max, pending);
  rpc_pending_sum += rpc;
  active_ctx_sum += active;
  parked_reads_sum += parked;
  last_poll_host_s = host_now_s();
}

void RecoveryStamps::attach(ClusterRuntime& rt) {
  auto* des = dynamic_cast<Cluster*>(&rt);
  if (des == nullptr) return;
  rt_ = &rt;
  open_.assign(static_cast<size_t>(rt.n_sites()), Open{});
  des->tracer().add_sink(this);
}

void RecoveryStamps::close(Open& o) {
  if (!o.open) return;
  const double now = host_now_s();
  host_ms_to_current += (now - o.reboot_s) * 1e3;
  msgs_to_current +=
      static_cast<double>(rt_->network().messages_sent() - o.reboot_msgs);
  o.open = false;
}

void RecoveryStamps::on_trace(const TraceEvent& e) {
  if (e.site < 0 || static_cast<size_t>(e.site) >= open_.size()) return;
  Open& o = open_[static_cast<size_t>(e.site)];
  switch (e.kind) {
    case TraceKind::kSiteCrash:
      close(o); // crashed again before becoming current: censored here
      break;
    case TraceKind::kSiteRecover:
      close(o);
      o = Open{true, host_now_s(), -1, rt_->network().messages_sent()};
      ++episodes;
      break;
    case TraceKind::kControlUpStart:
      if (o.open && o.type1_start_s < 0) {
        o.type1_start_s = host_now_s();
        host_ms_replay += (o.type1_start_s - o.reboot_s) * 1e3;
      }
      break;
    case TraceKind::kControlUpCommit:
      if (o.open && o.type1_start_s >= 0) {
        host_ms_type1 += (host_now_s() - o.type1_start_s) * 1e3;
      }
      break;
    case TraceKind::kFullyCurrent:
      close(o);
      break;
    default:
      break;
  }
}

void RecoveryStamps::finish() {
  for (Open& o : open_) close(o);
}

std::unique_ptr<ClusterRuntime> build_cluster(const Config& cfg,
                                              uint64_t seed,
                                              double* setup_s) {
  // Start from a trimmed heap, so every build pays for fresh memory as the
  // first one in a new process does. Otherwise whether an earlier
  // cluster's freed memory gets reused differs from process to process
  // (parallel_32's set-up median flips between about 1.2 and 5 ms), and a
  // pass that follows another runs on warm memory.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  const double t0 = host_now_s();
  std::unique_ptr<ClusterRuntime> rt = make_runtime(cfg, seed);
  rt->bootstrap();
  *setup_s = host_now_s() - t0;
  return rt;
}

namespace {

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Digest of the quiesced cluster's durable outcome: every site's mode,
// session and NS vector, and every hosted copy's value, version and
// readability.
uint64_t state_digest(ClusterRuntime& rt) {
  uint64_t h = 0;
  for (SiteId s = 0; s < rt.n_sites(); ++s) {
    const Site& site = rt.site(s);
    h = mix(h, static_cast<uint64_t>(site.state().mode));
    h = mix(h, static_cast<uint64_t>(site.state().session));
    for (SessionNum n : peek_ns_vector(site.stable().kv(), rt.n_sites())) {
      h = mix(h, static_cast<uint64_t>(n));
    }
    for (ItemId x : rt.catalog().items_at(s)) {
      const Copy* c = site.stable().kv().find(x);
      if (c == nullptr) {
        h = mix(h, ~0ULL);
        continue;
      }
      h = mix(h, static_cast<uint64_t>(c->value));
      h = mix(h, c->version.counter);
      h = mix(h, c->version.writer);
      h = mix(h, c->unreadable ? 1 : 0);
    }
  }
  return h;
}

void gate(ClusterRuntime& rt, const RunnerStats& st, int64_t lost,
          PassResult& out) {
  const double t0 = host_now_s();
  const auto note = [&](const char* name, std::optional<Violation> v) {
    out.gate_run.emplace_back(name);
    if (v) out.violations.push_back(to_string(*v));
  };
  note("convergence", check_convergence(rt));
  note("ns-agreement", check_ns_agreement(rt));
  if (rt.config().record_history) {
    note("lost-write", check_lost_writes(rt));
    note("one-sr", check_one_sr(rt));
  }
  out.oracles_host_ms = (host_now_s() - t0) * 1e3;
  if (OnlineVerifier* v = rt.online_verifier()) {
    out.gate_run.emplace_back("online-verifier");
    if (v->violated() || v->graph_has_cycle()) {
      out.violations.push_back(
          "online-verifier: revised 1-STG cycle through " +
          std::to_string(v->cycle_witness().size()) + " transactions");
    }
  }
  out.gate_run.emplace_back("accounting");
  if (st.submitted != st.committed + st.aborted + lost) {
    out.violations.push_back(
        "accounting: submitted " + std::to_string(st.submitted) +
        " != committed " + std::to_string(st.committed) + " + aborted " +
        std::to_string(st.aborted) + " + lost at a coordinator crash " +
        std::to_string(lost) + " (" +
        std::to_string(st.submitted - st.committed - st.aborted - lost) +
        " never answered)");
  }
}

// Closed-loop clients for the churn workloads: Runner's client loop plus a
// reconnect. Runner cannot drive them over a long horizon. A transaction
// whose coordinator site crashes never reports back (the crash drops the
// coordinator together with its completion callback), so each crash
// permanently retires the Runner clients that had a transaction in flight
// there, and by about 100 s simulated no client is left. Here every crash
// of a site tells each such client that its transaction was lost with the
// coordinator, as a dropped connection would; the client counts it and
// carries on after its think time. That covers the scheduled crashes and
// the restarts of sites that learn they were declared down while alive.
// The accounting gate then holds every other transaction to an answer.
class ChurnClients;

// Passes a DES cluster's kSiteCrash trace events to the ChurnClients
// driving it. The tracer cannot drop a sink, so forwarders live as long as
// the process and go quiet when their clients are done.
class CrashForwarder : public TraceSink {
 public:
  static CrashForwarder* attach(ClusterRuntime& rt, ChurnClients* target);
  void on_trace(const TraceEvent& e) override;
  ChurnClients* target = nullptr;
};

class ChurnClients {
 public:
  ChurnClients(ClusterRuntime& rt, const RunnerParams& rp, uint64_t seed)
      : rt_(rt), rp_(rp), crashes_(CrashForwarder::attach(rt, this)) {
    uint64_t client_seed = seed;
    for (SiteId s = 0; s < rt.n_sites(); ++s) {
      for (int k = 0; k < rp.clients_per_site; ++k) {
        const uint64_t cs = ++client_seed * 0x9e37 + 17;
        clients_.push_back({s, WorkloadGen(rt.config(), rp.workload, cs),
                            Rng(cs ^ 0xc11e47)});
      }
    }
  }
  ChurnClients(const ChurnClients&) = delete;
  ChurnClients& operator=(const ChurnClients&) = delete;
  ~ChurnClients() { crashes_->target = nullptr; }

  RunnerStats run() {
    const SimTime start = rt_.now();
    end_ = start + rp_.duration;
    for (const FailureEvent& ev : rp_.schedule) {
      const SiteId s = ev.site;
      if (ev.what == FailureEvent::What::kCrash) {
        rt_.crash_site_at(start + ev.at, s);
      } else {
        rt_.recover_site_at(start + ev.at, s);
      }
    }
    for (size_t c = 0; c < clients_.size(); ++c) next(c);
    const SimTime poll = rp_.stop_check ? rp_.stop_poll : rp_.duration;
    for (SimTime t = start; t < end_;) {
      t = std::min(t + poll, end_);
      rt_.run_until(t);
      if (rp_.stop_check) rp_.stop_check();
    }
    rt_.settle();
    return stats_;
  }

  int64_t lost() const { return lost_; }

  // Called as site `s` crashes, before its coordinators are dropped.
  void on_crash(SiteId s) {
    for (size_t c = 0; c < clients_.size(); ++c) {
      Client& cl = clients_[c];
      if (!cl.in_flight || cl.origin != s) continue;
      ++cl.attempt; // the coordinator and its callback are gone
      cl.in_flight = false;
      ++lost_;
      rt_.post_after(cl.home, rp_.think_time, [this, c]() { next(c); });
    }
  }

 private:
  struct Client {
    SiteId home;
    WorkloadGen gen;
    Rng rng;
    uint64_t attempt = 0;
    SiteId origin = kInvalidSite;
    bool in_flight = false;
    SimTime started = 0;
  };

  SiteId pick_origin(Client& cl) {
    if (rt_.site(cl.home).state().operational()) return cl.home;
    std::vector<SiteId> ups;
    for (SiteId s = 0; s < rt_.n_sites(); ++s) {
      if (rt_.site(s).state().operational()) ups.push_back(s);
    }
    if (ups.empty()) return cl.home;
    return ups[static_cast<size_t>(
        cl.rng.uniform(0, static_cast<int64_t>(ups.size()) - 1))];
  }

  void next(size_t c) {
    Client& cl = clients_[c];
    if (rt_.local_now(cl.home) >= end_) return;
    const SiteId origin = pick_origin(cl);
    if (!rt_.site(origin).state().operational()) {
      rt_.post_after(cl.home, 10 * rp_.think_time, [this, c]() { next(c); });
      return;
    }
    const uint64_t id = ++cl.attempt;
    cl.origin = origin;
    cl.in_flight = true;
    cl.started = rt_.local_now(cl.home);
    ++stats_.submitted;
    rt_.submit(origin, cl.gen.next(), [this, c, id](const TxnResult& res) {
      Client& me = clients_[c];
      if (me.attempt != id) return;
      me.in_flight = false;
      if (res.committed) {
        ++stats_.committed;
        stats_.commit_latency_us.add(
            static_cast<double>(rt_.local_now(me.home) - me.started));
      } else {
        ++stats_.aborted;
        ++stats_.abort_reasons[to_string(res.reason)];
      }
      rt_.post_after(me.home, rp_.think_time, [this, c]() { next(c); });
    });
  }

  ClusterRuntime& rt_;
  RunnerParams rp_;
  SimTime end_ = 0;
  std::vector<Client> clients_;
  RunnerStats stats_;
  int64_t lost_ = 0;
  CrashForwarder* crashes_;
};

CrashForwarder* CrashForwarder::attach(ClusterRuntime& rt,
                                       ChurnClients* target) {
  auto* des = dynamic_cast<Cluster*>(&rt);
  if (des == nullptr) {
    // The parallel backend keeps its per-shard tracers private.
    std::fprintf(stderr, "perfbench: churn workloads need the DES backend\n");
    std::exit(1);
  }
  static std::vector<std::unique_ptr<CrashForwarder>> forwarders;
  forwarders.push_back(std::make_unique<CrashForwarder>());
  CrashForwarder* f = forwarders.back().get();
  f->target = target;
  des->tracer().add_sink(f);
  return f;
}

void CrashForwarder::on_trace(const TraceEvent& e) {
  if (target != nullptr && e.kind == TraceKind::kSiteCrash) {
    target->on_crash(e.site);
  }
}

} // namespace

// Slices of an untraced pass's load window, each timed on its own.
constexpr SimTime kSpeedSlices = 200;

PassResult run_pass(ClusterRuntime& rt, const Workload& w, SimTime horizon,
                    uint64_t seed, SliceProbe* probe,
                    RecoveryStamps* stamps) {
  PassResult out;
  RunnerParams rp = make_params(w, horizon, seed);
  // Slice ends as (simulated, wall) time pairs, for the speed samples.
  std::vector<std::pair<SimTime, double>> marks;
  if (probe != nullptr) {
    rp.stop_poll = probe->slice;
    rp.stop_check = [probe, &rt]() {
      probe->sample(rt);
      return false;
    };
  } else {
    rp.stop_poll = std::max<SimTime>(1, horizon / kSpeedSlices);
    marks.reserve(static_cast<size_t>(kSpeedSlices) + 2);
    rp.stop_check = [&marks, &rt]() {
      marks.emplace_back(rt.now(), host_now_s());
      return false;
    };
  }
  if (stamps != nullptr) stamps->attach(rt);

  const uint64_t ev0 = rt.events_executed();
  const uint64_t sent0 = rt.network().messages_sent();
  const uint64_t drop0 = rt.network().messages_dropped();
  const double cpu0 = process_cpu_s();
  const double t0 = host_now_s();
  marks.emplace_back(rt.now(), t0);
  RunnerStats st;
  int64_t lost = 0;
  if (w.churn) {
    ChurnClients clients(rt, rp, seed);
    st = clients.run();
    lost = clients.lost();
  } else {
    st = Runner(rt, rp, seed).run();
  }
  const double t1 = host_now_s();
  out.load_wall_s = t1 - t0;
  out.load_cpu_s = process_cpu_s() - cpu0;
  if (probe != nullptr) {
    out.settle_host_ms = (t1 - probe->last_poll_host_s) * 1e3;
  }
  for (size_t i = 1; i < marks.size(); ++i) {
    const double wall = marks[i].second - marks[i - 1].second;
    if (wall > 0) {
      out.sim_s_per_wall_s.add(
          static_cast<double>(marks[i].first - marks[i - 1].first) / 1e6 /
          wall);
    }
  }
  if (stamps != nullptr) stamps->finish();
  out.events = rt.events_executed() - ev0;

  SimOutcome& sim = out.sim;
  sim.submitted = st.submitted;
  sim.committed = st.committed;
  sim.aborted = st.aborted;
  sim.lost_at_crash = lost;
  sim.abort_reasons = st.abort_reasons;
  sim.latency_samples = st.commit_latency_us.count();
  sim.latency_p50_us = st.commit_latency_us.percentile(50);
  sim.latency_p999_us = st.commit_latency_us.percentile(99.9);
  sim.latency_max_us = st.commit_latency_us.max();
  sim.msgs_sent = rt.network().messages_sent() - sent0;
  sim.msgs_dropped = rt.network().messages_dropped() - drop0;
  sim.end_time = rt.now();
  if (auto* des = dynamic_cast<Cluster*>(&rt)) {
    for (const RecoveryEpisode& ep : des->episodes().episodes()) {
      sim.episodes.push_back({ep.site, ep.crash_at, ep.reboot_at,
                              ep.replay_done_at, ep.nominally_up_at,
                              ep.fully_current_at, ep.type1_attempts,
                              ep.marked_unreadable, ep.complete});
    }
    out.trace_recorded = des->tracer().recorded();
    out.spans_recorded = des->spans().recorded();
  }
  sim.state_digest = state_digest(rt);

  gate(rt, st, lost, out);

  // Read after the pass: the parallel backend folds its shards' metrics
  // into this view on every metrics() call.
  Metrics& m = rt.metrics();
  for (size_t i = 0; i < m.counter_count(); ++i) {
    out.counters[std::string(m.counter_name(i))] = m.counter_value(i);
  }
  for (size_t i = 0; i < m.hist_count(); ++i) {
    const std::string name(m.hist_name(i));
    out.hist_p50[name] = m.hist_value(i).percentile(50);
    out.hist_count[name] = m.hist_value(i).count();
  }
  if (OnlineVerifier* v = rt.online_verifier()) {
    out.graph_nodes = v->graph_node_count();
    out.graph_edges = v->graph_edge_count();
  }
  out.history_retained = rt.history().committed_count();

  const double r0 = host_now_s();
  RunReport report("perfbench");
  rt.report_run(report, w.name);
  out.report_host_ms = (host_now_s() - r0) * 1e3;
  return out;
}

} // namespace perfbench
