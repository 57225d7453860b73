// ddbs_perfbench: the repository benchmark. One invocation runs one
// workload (workloads.h) and prints every metric by name, with its unit and
// whether it is simulated ("sim": the protocol's cost, exactly repeatable
// for a fixed seed) or host ("host": this implementation's cost on the
// machine running it). The last stdout line is one JSON object with the
// correctness verdict and every metric.
//
//   ddbs_perfbench --workload steady_128 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with every probe off.
// --trace 1 is the per-layer run: an untraced pass, a traced pass (slice
// sampler + recovery TraceSink) that must reproduce it exactly, plus the
// workload's comparison pass (churn workloads: verifier and history off;
// parallel_32: the DES twin, whose final state must match). Its passes run
// a third of the --trace 0 horizon, so the three or four passes stay well
// inside a run's time limit on a loaded host.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "replication/catalog.h"
#include "workloads.h"

using namespace ddbs;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  int trace = 0;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               argv0);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') usage(argv[0]);
  }
  if (find_workload(a.workload) == nullptr || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    usage(argv[0]);
  }
  return a;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(const std::vector<double>& v) {
  ExactSamples s;
  for (double x : v) s.add(x);
  return s.percentile(50);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// Every metric of the run, printed as one line each and echoed in the
// final JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           const char* kind, const std::string& note = "") {
    if (!std::isfinite(value)) value = 0;
    std::printf("metric %-44s %18.6f %-6s %-4s %s\n", name.c_str(), value,
                unit, kind, note.c_str());
    metrics_.push_back({name, value, unit});
  }
  void print_json(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct M {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<M> metrics_;
};

// Set up kMinSetups times, and keep going until kSetupBudgetS of host time
// is spent (cheap clusters), so the reported median is steady. Returns the
// last cluster, ready for a load pass.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 500;
constexpr double kSetupBudgetS = 0.5;

std::unique_ptr<ClusterRuntime> repeated_setup(const Config& cfg,
                                               uint64_t seed,
                                               std::vector<double>* times) {
  std::unique_ptr<ClusterRuntime> rt;
  double spent = 0;
  while (times->size() < kMinSetups ||
         (spent < kSetupBudgetS && times->size() < kMaxSetups)) {
    rt.reset();
    double s = 0;
    rt = build_cluster(cfg, seed, &s);
    times->push_back(s);
    spent += s;
  }
  return rt;
}

void print_gate(const char* pass, const PassResult& p) {
  std::string ran;
  for (const std::string& g : p.gate_run) ran += (ran.empty() ? "" : ",") + g;
  std::printf("gate %s: ran %s; %zu violation(s)\n", pass, ran.c_str(),
              p.violations.size());
  // Cycle witnesses run to hundreds of transaction ids; the head is enough
  // to tell failures apart.
  constexpr size_t kMaxDetail = 240;
  for (const std::string& v : p.violations) {
    std::printf("gate %s: VIOLATION %s%s\n", pass,
                v.substr(0, kMaxDetail).c_str(),
                v.size() > kMaxDetail ? " ..." : "");
  }
}

// The end-to-end metrics of one untraced pass.
void end_to_end(Report& r, const PassResult& p, SimTime horizon,
                double setup_s) {
  const SimOutcome& s = p.sim;
  const std::string n = "n=" + std::to_string(s.latency_samples);
  r.add("commits_per_wall_s", ratio(s.committed, p.load_wall_s), "1/s",
        "host");
  r.add("commits_per_cpu_s", ratio(s.committed, p.load_cpu_s), "1/s",
        "host");
  // On a shared host, slices run at two speeds, depending on whether a
  // neighbour contends for the core; the 90th percentile is the
  // uncontended speed, and barrier waits slow every slice.
  r.add("sim_s_per_wall_s_p90", p.sim_s_per_wall_s.percentile(90), "s/s",
        "host",
        "p90 of " + std::to_string(p.sim_s_per_wall_s.count()) + " slices");
  r.add("setup_s", setup_s, "s", "host");
  r.add("peak_rss_mb", peak_rss_mb(), "MB", "host");
  r.add("sim_commits_per_s", ratio(s.committed * 1e6, horizon), "1/s", "sim");
  r.add("commit_latency_p50_us", s.latency_p50_us, "us", "sim", n);
  r.add("commit_latency_p999_us", s.latency_p999_us, "us", "sim", n);
  r.add("abort_ratio", ratio(s.aborted, s.submitted), "ratio", "sim");
  r.add("lost_at_crash", static_cast<double>(s.lost_at_crash), "count",
        "sim");
  // Recovery episodes. Durations run from reboot. An episode that never
  // reached a milestone enters censored: at the site's next crash, or at
  // the end of the run. Workloads without faults have none and read 0.
  ExactSamples to_up, to_current, replay;
  int64_t incomplete = 0;
  for (const EpisodeTimes& e : s.episodes) {
    if (!e.complete) ++incomplete;
    if (e.reboot_at == kNoTime) continue;
    const SimTime end = [&] {
      SimTime c = s.end_time;
      for (const EpisodeTimes& later : s.episodes) {
        if (later.site == e.site && later.crash_at != kNoTime &&
            later.crash_at > e.reboot_at && later.crash_at < c) {
          c = later.crash_at;
        }
      }
      return c;
    }();
    to_up.add(static_cast<double>(
        (e.nominally_up_at != kNoTime ? e.nominally_up_at : end) -
        e.reboot_at));
    to_current.add(static_cast<double>(
        (e.fully_current_at != kNoTime ? e.fully_current_at : end) -
        e.reboot_at));
    if (e.replay_done_at != kNoTime) {
      replay.add(static_cast<double>(e.replay_done_at - e.reboot_at));
    }
  }
  const std::string en = "n=" + std::to_string(to_up.count());
  r.add("time_to_operational_p50_us", to_up.percentile(50), "us", "sim", en);
  r.add("time_to_operational_p90_us", to_up.percentile(90), "us", "sim", en);
  r.add("time_to_current_p50_us", to_current.percentile(50), "us", "sim",
        en);
  r.add("time_to_current_p90_us", to_current.percentile(90), "us", "sim",
        en);
  r.add("reboot_replay_p50_us", replay.percentile(50), "us", "sim",
        "n=" + std::to_string(replay.count()));
  r.add("episodes_incomplete_ratio",
        ratio(static_cast<double>(incomplete),
              static_cast<double>(s.episodes.size())),
        "ratio", "sim", "of " + std::to_string(s.episodes.size()));
  r.add("oracle_violations", static_cast<double>(p.violations.size()),
        "count", "sim");
}


// Host time and messages of the failure detector alone: a freshly
// bootstrapped cluster with no clients, run for one simulated second.
constexpr SimTime kIdleWindow = 1'000'000;

struct IdleDetector {
  double msgs_per_sim_s = 0, host_ms_per_sim_s = 0;
};

IdleDetector idle_detector(ClusterRuntime& rt) {
  const uint64_t sent0 = rt.network().messages_sent();
  const double t0 = host_now_s();
  rt.run_until(rt.now() + kIdleWindow);
  const double sim_s = kIdleWindow / 1e6;
  return {static_cast<double>(rt.network().messages_sent() - sent0) / sim_s,
          (host_now_s() - t0) * 1e3 / sim_s};
}

// The per-layer metrics. `u` is the untraced pass (host costs), `t` the
// traced pass (counts, samples, stamps); the optional passes feed the
// comparison metrics and read 0 where the workload has none.
void per_layer(Report& r, SimTime horizon,
               const PassResult& u, const PassResult& t,
               const SliceProbe& probe, const RecoveryStamps& stamps,
               const IdleDetector& idle, double setup_ms,
               double catalog_ms, size_t catalog_bytes,
               const PassResult* verifier_off, const PassResult* twin) {
  const auto c = [&](const std::string& name) -> double {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto p50 = [&](const std::string& name) -> double {
    auto it = t.hist_p50.find(name);
    return it == t.hist_p50.end() ? 0.0 : it->second;
  };
  const auto hcount = [&](const std::string& name) -> double {
    auto it = t.hist_count.find(name);
    return it == t.hist_count.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double commits = static_cast<double>(t.sim.committed);
  const double sim_s = horizon / 1e6;
  double episodes = 0;
  double marked = 0;
  for (const EpisodeTimes& e : t.sim.episodes) {
    if (e.reboot_at == kNoTime) continue;
    ++episodes;
    marked += static_cast<double>(e.marked_unreadable);
  }

  // sim: event queue and scheduler
  r.add("sim.events_per_commit", ratio(t.events, commits), "count", "sim");
  r.add("sim.host_ns_per_event", ratio(u.load_wall_s * 1e9, u.events), "ns",
        "host");
  r.add("sim.pending_events_mean", probe.mean(probe.pending_sum), "count",
        "sim");
  r.add("sim.pending_events_max", probe.pending_max, "count", "sim");

  // net: network and rpc
  r.add("net.msgs_per_commit", ratio(t.sim.msgs_sent, commits), "count",
        "sim");
  r.add("net.dropped_per_commit", ratio(t.sim.msgs_dropped, commits),
        "count", "sim");
  r.add("net.rpc_pending_mean", probe.mean(probe.rpc_pending_sum), "count",
        "sim");
  r.add("net.fd_idle_msgs_per_sim_s", idle.msgs_per_sim_s, "1/s", "sim");
  r.add("net.fd_idle_host_ms_per_sim_s", idle.host_ms_per_sim_s, "ms",
        "host");

  // txn: coordinator, data manager, lock manager
  r.add("txn.ns_reads_per_txn", ratio(c("txn.ns_reads"), t.sim.submitted),
        "count", "sim");
  r.add("txn.dm_reads_per_commit", ratio(c("dm.reads"), commits), "count",
        "sim");
  r.add("txn.dm_writes_staged_per_commit",
        ratio(c("dm.writes_staged"), commits), "count", "sim");
  r.add("txn.lock_waits_per_commit", ratio(hcount("dm.lock_wait_us"), commits),
        "count", "sim");
  r.add("txn.lock_wait_p50_us", p50("dm.lock_wait_us"), "us", "sim");
  for (size_t k = 1; k < kCodeCount; ++k) {
    const std::string code = to_string(static_cast<Code>(k));
    r.add("txn.abort." + code, c("txn.abort." + code), "count", "sim");
  }
  r.add("txn.active_ctx_mean", probe.mean(probe.active_ctx_sum), "count",
        "sim");
  r.add("txn.parked_reads_mean", probe.mean(probe.parked_reads_sum), "count",
        "sim");
  r.add("txn.read_only_one_phase_share",
        ratio(c("txn.read_only_one_phase"), commits), "ratio", "sim");

  // replication: catalog
  r.add("replication.catalog_build_ms", catalog_ms, "ms", "host");
  r.add("replication.catalog_bytes", static_cast<double>(catalog_bytes),
        "bytes", "sim");

  // recovery: control transactions, copiers, detector, recovery manager
  r.add("recovery.type1_attempts_per_episode",
        ratio(c("control_up.attempts"), episodes), "count", "sim");
  r.add("recovery.type2_attempts_per_episode",
        ratio(c("control_down.attempts"), episodes), "count", "sim");
  for (size_t k = 1; k < kCodeCount; ++k) {
    const std::string code = to_string(static_cast<Code>(k));
    r.add("recovery.type1_fail." + code, c("control_up.fail." + code),
          "count", "sim");
    r.add("recovery.type2_fail." + code, c("control_down.fail." + code),
          "count", "sim");
  }
  r.add("recovery.false_suspicions", c("rm.false_suspicion"), "count", "sim");
  r.add("recovery.fd_verify_chains", c("fd.verify_chains"), "count", "sim");
  r.add("recovery.marked_per_episode", ratio(marked, episodes), "count",
        "sim");
  r.add("recovery.copiers_per_episode", ratio(c("copier.started"), episodes),
        "count", "sim");
  r.add("recovery.copier_totally_failed", c("copier.totally_failed"),
        "count", "sim");
  r.add("recovery.msgs_per_episode",
        ratio(stamps.msgs_to_current, stamps.episodes), "count", "sim");
  r.add("recovery.host_ms_per_episode",
        ratio(stamps.host_ms_to_current, stamps.episodes), "ms", "host");
  r.add("recovery.replay_host_ms_per_episode",
        ratio(stamps.host_ms_replay, stamps.episodes), "ms", "host");
  r.add("recovery.type1_host_ms_per_episode",
        ratio(stamps.host_ms_type1, stamps.episodes), "ms", "host");

  // storage: kv/wal/durable engine and the simulated disk
  r.add("storage.disk_writes_per_commit", ratio(c("disk.writes"), commits),
        "count", "sim");
  r.add("storage.disk_write_bytes_per_commit",
        ratio(c("disk.write_bytes"), commits), "bytes", "sim");
  r.add("storage.log_records_per_commit",
        ratio(c("storage.log_records"), commits), "count", "sim");
  r.add("storage.checkpoints_per_sim_s",
        ratio(c("storage.checkpoints"), sim_s), "1/s", "sim");
  r.add("storage.disk_write_p50_us", p50("disk.write_us"), "us", "sim");
  r.add("storage.replay_records_p50", p50("rec.replay_records"), "count",
        "sim");

  // verify
  r.add("verify.oracles_host_ms", t.oracles_host_ms, "ms", "host");
  r.add("verify.online_graph_nodes", static_cast<double>(t.graph_nodes),
        "count", "sim");
  r.add("verify.online_graph_edges", static_cast<double>(t.graph_edges),
        "count", "sim");
  r.add("verify.history_retained", static_cast<double>(t.history_retained),
        "count", "sim");
  r.add("verify.online_overhead_pct",
        verifier_off == nullptr
            ? 0.0
            : 100.0 * ratio(u.load_wall_s - verifier_off->load_wall_s,
                            verifier_off->load_wall_s),
        "%", "host");

  // core
  r.add("core.setup_ms", setup_ms, "ms", "host");
  r.add("core.load_s", u.load_wall_s, "s", "host");
  r.add("core.settle_ms", t.settle_host_ms, "ms", "host");
  r.add("core.parallel_speedup_vs_twin",
        twin == nullptr ? 0.0 : ratio(twin->load_wall_s, u.load_wall_s),
        "ratio", "host");

  // common: observability (the parallel backend's rings are per shard and
  // private; its DES twin records the identical per-site streams)
  const PassResult& obs = twin != nullptr ? *twin : t;
  r.add("obs.trace_events_per_commit", ratio(obs.trace_recorded, commits),
        "count", "sim");
  r.add("obs.span_events_per_commit", ratio(obs.spans_recorded, commits),
        "count", "sim");
  r.add("obs.report_host_ms", t.report_host_ms, "ms", "host");
  r.add("obs.trace_overhead_pct",
        100.0 * ratio(t.load_wall_s - u.load_wall_s, u.load_wall_s), "%",
        "host");
}

} // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload& w = *find_workload(a.workload);
  const Config cfg = make_config(w);
  const double trace_share = a.trace == 1 ? 1.0 / 3 : 1.0;
  const SimTime horizon = static_cast<SimTime>(std::llround(
      a.seconds * trace_share * w.sim_s_per_s * 1e6));
  std::printf("perfbench: workload %s, seed %llu, %.3f s simulated, trace %d "
              "(%d sites, %lld items, %d clients/site, %d ops, %.0f%% reads, "
              "%d thread%s)\n",
              w.name, static_cast<unsigned long long>(a.seed), horizon / 1e6,
              a.trace, w.sites, static_cast<long long>(w.items),
              w.clients_per_site, w.ops_per_txn, w.read_fraction * 100,
              w.threads, w.threads == 1 ? "" : "s");
  std::fflush(stdout);

  Report r;
  std::vector<double> setups;
  if (a.trace == 0) {
    std::unique_ptr<ClusterRuntime> rt = repeated_setup(cfg, a.seed, &setups);
    const PassResult p = run_pass(*rt, w, horizon, a.seed, nullptr, nullptr);
    print_gate("untraced", p);
    end_to_end(r, p, horizon, median(setups));
    r.print_json(p.violations.empty(), p.sim.submitted,
                 p.sim.aborted + p.sim.lost_at_crash);
    return 0;
  }

  IdleDetector idle;
  {
    std::unique_ptr<ClusterRuntime> spare =
        repeated_setup(cfg, a.seed, &setups);
    idle = idle_detector(*spare);
  }
  std::vector<double> catalog_times;
  size_t catalog_bytes = 0;
  for (size_t i = 0; i < kMinSetups; ++i) {
    const double t0 = host_now_s();
    const Catalog cat = Catalog::make(cfg);
    catalog_times.push_back((host_now_s() - t0) * 1e3);
    catalog_bytes = cat.bytes();
  }

  double unused = 0;
  PassResult untraced;
  {
    auto rt = build_cluster(cfg, a.seed, &unused);
    untraced = run_pass(*rt, w, horizon, a.seed, nullptr, nullptr);
  }
  print_gate("untraced", untraced);

  SliceProbe probe;
  RecoveryStamps stamps; // declared before the cluster: must outlive it
  PassResult traced;
  {
    auto rt = build_cluster(cfg, a.seed, &unused);
    traced = run_pass(*rt, w, horizon, a.seed, &probe, &stamps);
  }
  print_gate("traced", traced);
  bool correct = untraced.violations.empty() && traced.violations.empty();
  const bool same = traced.sim == untraced.sim;
  std::printf("check non-perturbation (traced == untraced): %s\n",
              same ? "ok" : "FAILED");
  correct = correct && same;

  std::unique_ptr<PassResult> verifier_off, twin;
  if (w.churn) {
    Config off = cfg;
    off.record_history = false;
    off.online_verify = false;
    auto rt = build_cluster(off, a.seed, &unused);
    verifier_off = std::make_unique<PassResult>(
        run_pass(*rt, w, horizon, a.seed, nullptr, nullptr));
    print_gate("verifier-off", *verifier_off);
    // History recording only observes: the same work must be simulated.
    const bool match = verifier_off->sim == untraced.sim;
    std::printf("check verifier-off pass simulates identically: %s\n",
                match ? "ok" : "FAILED");
    correct = correct && match;
  }
  if (w.threads > 1) {
    Config des = cfg;
    des.n_threads = 1;
    des.workload_shards = w.threads;
    des.site_ordered_events = true;
    auto rt = build_cluster(des, a.seed, &unused);
    twin = std::make_unique<PassResult>(
        run_pass(*rt, w, horizon, a.seed, nullptr, nullptr));
    print_gate("des-twin", *twin);
    const bool match = twin->sim == traced.sim;
    std::printf("check final state identical to the DES twin: %s\n",
                match ? "ok" : "FAILED");
    correct = correct && match && twin->violations.empty();
  }

  end_to_end(r, untraced, horizon, median(setups));
  per_layer(r, horizon, untraced, traced, probe, stamps, idle,
            median(setups) * 1e3, median(catalog_times), catalog_bytes,
            verifier_off.get(), twin.get());
  r.print_json(correct, untraced.sim.submitted,
               untraced.sim.aborted + untraced.sim.lost_at_crash);
  return 0;
}
