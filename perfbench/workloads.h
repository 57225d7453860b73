// The three benchmark workloads and one load pass over the library's
// public API: build a cluster (make_runtime + bootstrap), drive it with a
// closed-loop Runner, settle, and run the correctness gate. Everything the
// benchmark measures is taken from outside the program: host clocks around
// public calls, public counters, and a TraceSink on the DES tracer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "core/runtime.h"
#include "sim/trace.h"
#include "workload/runner.h"

namespace perfbench {

struct Workload {
  const char* name;
  int sites;
  int64_t items;
  int clients_per_site;
  int ops_per_txn;
  double read_fraction;
  int threads; // 1: DES Cluster; > 1: ParallelCluster with this many shards
  bool churn;  // durable storage, eager copiers, history + online
               // verifier, and the open-loop crash rotation
  // Simulated seconds of load per unit of --seconds. steady_128 and
  // parallel_32 are sized so that an untraced pass takes about --seconds
  // of host time on a 4-core x86 VM. churn_markall_16 is held to about
  // two thirds of that by its memory: the recorded history grows with
  // every commit (345 MB peak at 120 s simulated, 30 crash episodes).
  // churn_16 runs 405 s simulated at --seconds 30 (101 crashes), where
  // the recovery stalls of its defect keep the commit rate low.
  double sim_s_per_s;
  // How a rebooting site finds its out-of-date copies (churn workloads).
  ddbs::OutdatedStrategy strategy = ddbs::OutdatedStrategy::kMarkAll;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

ddbs::Config make_config(const Workload& w);
ddbs::RunnerParams make_params(const Workload& w, ddbs::SimTime horizon,
                               uint64_t seed);

double host_now_s();
// CPU time of the whole process (every thread), in seconds.
double process_cpu_s();

// Recovery episode milestones in simulated time (kNoTime when not reached).
struct EpisodeTimes {
  ddbs::SiteId site;
  ddbs::SimTime crash_at, reboot_at, replay_done_at, nominally_up_at,
      fully_current_at;
  int64_t type1_attempts, marked_unreadable;
  bool complete;
  friend bool operator==(const EpisodeTimes&, const EpisodeTimes&) = default;
};

// Everything simulated a pass produced. A traced pass must reproduce the
// untraced pass's SimOutcome exactly (non-perturbation), and a
// ParallelCluster pass must reproduce its DES twin's.
struct SimOutcome {
  int64_t submitted = 0, committed = 0, aborted = 0;
  std::map<std::string, int64_t> abort_reasons;
  size_t latency_samples = 0;
  double latency_p50_us = 0, latency_p999_us = 0, latency_max_us = 0;
  // Transactions in flight at a coordinator that crashed: the crash drops
  // the coordinator with its completion callback, so the client never
  // learns their outcome (churn workloads only).
  int64_t lost_at_crash = 0;
  uint64_t msgs_sent = 0, msgs_dropped = 0;
  ddbs::SimTime end_time = 0;
  std::vector<EpisodeTimes> episodes;  // DES only
  uint64_t state_digest = 0;           // final KV, session and NS state
  friend bool operator==(const SimOutcome&, const SimOutcome&) = default;
};

// Per-slice sampler for the traced pass: polled by the Runner's stop_check
// at fixed simulated-time boundaries, it samples queue depths and
// in-flight work. Polling only reads public state, so it cannot perturb
// the simulation.
struct SliceProbe {
  ddbs::SimTime slice = 50'000;
  int samples = 0;
  double pending_sum = 0, pending_max = 0;
  double rpc_pending_sum = 0, active_ctx_sum = 0, parked_reads_sum = 0;
  double last_poll_host_s = 0;

  void sample(ddbs::ClusterRuntime& rt);
  double mean(double sum) const { return samples ? sum / samples : 0.0; }
};

// TraceSink stamping host time and cluster message counts at recovery
// milestones, so per-episode host cost and message volume come from the
// benchmark, not from instrumentation inside the program.
class RecoveryStamps : public ddbs::TraceSink {
 public:
  // Registers on `rt`'s tracer when it is the DES backend (the parallel
  // backend keeps per-shard tracers private). The stamps object must
  // outlive `rt`: the tracer has no way to drop a sink.
  void attach(ddbs::ClusterRuntime& rt);
  void on_trace(const ddbs::TraceEvent& e) override;
  // Close still-open episodes at the current host time (censored).
  void finish();

  int episodes = 0;
  double host_ms_to_current = 0;    // reboot -> fully current
  double host_ms_replay = 0;        // reboot -> first type-1 start
  double host_ms_type1 = 0;         // first type-1 start -> type-1 commit
  double msgs_to_current = 0;       // cluster-wide sends, reboot -> current

 private:
  struct Open {
    bool open = false;
    double reboot_s = 0, type1_start_s = -1;
    uint64_t reboot_msgs = 0;
  };
  void close(Open& o);
  ddbs::ClusterRuntime* rt_ = nullptr;
  std::vector<Open> open_;
};

struct PassResult {
  SimOutcome sim;
  double load_wall_s = 0;
  double load_cpu_s = 0;      // process CPU time over the same span
  // Untraced passes: simulated seconds advanced per wall second in each of
  // 200 equal slices of the load window.
  ddbs::ExactSamples sim_s_per_wall_s;
  double settle_host_ms = 0;  // traced passes: last slice poll -> return
  uint64_t events = 0;        // scheduler events executed during the pass
  double oracles_host_ms = 0;
  std::vector<std::string> gate_run;         // oracle names evaluated
  std::vector<std::string> violations;       // "<oracle>: <detail>"
  std::map<std::string, int64_t> counters;   // every public counter
  std::map<std::string, double> hist_p50;    // p50 of every histogram
  std::map<std::string, size_t> hist_count;  // samples of every histogram
  uint64_t trace_recorded = 0, spans_recorded = 0;  // DES only
  size_t graph_nodes = 0, graph_edges = 0, history_retained = 0;
  double report_host_ms = 0;
};

// Build and bootstrap a cluster; `setup_s` receives the host time taken
// (construction incl. catalog and shard threads, plus bootstrap), which
// starts from a trimmed heap.
std::unique_ptr<ddbs::ClusterRuntime> build_cluster(const ddbs::Config& cfg,
                                                    uint64_t seed,
                                                    double* setup_s);

// Run one load pass on a freshly bootstrapped cluster, settle, and gate.
// `probe` and `stamps` are optional; the traced pass passes both.
PassResult run_pass(ddbs::ClusterRuntime& rt, const Workload& w,
                    ddbs::SimTime horizon, uint64_t seed, SliceProbe* probe,
                    RecoveryStamps* stamps);

} // namespace perfbench
