// ddbs_sim -- scenario runner CLI.
//
// Drives a full cluster + workload + failure schedule from command-line
// flags and prints throughput, latency, abort breakdown, recovery
// milestones and (optionally) the serializability verdicts. Useful for
// exploring protocol variants without writing a bench.
//
// Examples:
//   ddbs_sim --sites=5 --items=200 --degree=3 --duration-ms=5000
//            --crash=2@1000 --recover=2@2500
//   ddbs_sim --strategy=missing-list --copier=on-demand --policy=redirect
//            --crash=1@500 --recover=1@2000 --verify
//   ddbs_sim --scheme=spooler --crash=3@800 --recover=3@3000
//   ddbs_sim --telemetry-out=tel.jsonl --watchdog --bundle-out=stall.json
//
// Exit codes: 0 clean, 1 divergence/verify failure, 2 usage, 4 watchdog
// stall (diagnostic bundle written when --bundle-out is given).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli.h"
#include "common/telemetry.h"
#include "core/runtime.h"
#include "verify/one_sr_checker.h"
#include "workload/runner.h"
#include "workload/stats.h"

using namespace ddbs;
using namespace ddbs::cli;

namespace {

struct Options {
  Config cfg;
  uint64_t seed = 1;
  SimTime duration = 5'000'000;
  int clients = 2;
  int ops_per_txn = 3;
  double read_fraction = 0.5;
  double zipf = 0.0;
  std::vector<FailureEvent> schedule;
  bool verify = false;
  bool dump_metrics = false;
  bool quiet_expect = false;
  std::string report_out; // JSON run report path ("" = off)
  std::string spans_out;  // Chrome trace_event span dump path ("" = off)
  std::string telemetry_out; // live telemetry JSONL path ("-" = stdout)
  TelemetryOptions telemetry;
  bool watchdog = false;
  // Partition-based fault injection: isolate one site from every other at
  // a given time, optionally healing later. kInvalidSite = off.
  SiteId isolate_site = kInvalidSite;
  SimTime isolate_at = 0;
  SimTime heal_at = -1;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "  --seed=N              simulation seed (default 1)\n"
      "  --duration-ms=N       workload duration (default 5000)\n"
      "  --clients=N           closed-loop clients per site (default 2)\n"
      "  --ops=N               operations per transaction (default 3)\n"
      "  --reads=F             read fraction 0..1 (default 0.5)\n"
      "  --zipf=F              access skew theta (default 0 = uniform)\n"
      "  --crash=S@MS          crash site S at MS milliseconds (repeatable)\n"
      "  --recover=S@MS        recover site S at MS milliseconds\n"
      "  --verify              run the Section-4 serializability checkers\n"
      "  --metrics             dump the raw metric counters\n"
      "  --report-out=PATH     write a JSON run report (schema: EXPERIMENTS.md)\n"
      "  --spans-out=PATH      write the trace ring as Chrome trace_event JSON\n"
      "                        (load in chrome://tracing / Perfetto, or feed\n"
      "                        to tools/ddbs_trace.py)\n"
      "  --telemetry-out=PATH  stream live telemetry JSONL (- = stdout)\n"
      "  --telemetry-interval-ms=N  tick period (default 250)\n"
      "  --telemetry-host      include host-side fields (rss_kb);\n"
      "                        breaks cross-backend byte-identity\n"
      "  --watchdog            abort with exit 4 when progress stalls\n"
      "  --watchdog-no-commit-ms=N    no-commit budget (default 2000)\n"
      "  --watchdog-recovery-ms=N     recovery-phase budget (default 8000)\n"
      "  --watchdog-retries=N         type-1 retry budget (default 64)\n"
      "  --bundle-out=PATH     write the stall diagnostic bundle here\n"
      "  --isolate=S@MS        partition site S away from everyone at MS\n"
      "  --heal=MS             dissolve the partition at MS\n"
      "config:\n%s",
      argv0, config_flags_help().c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    bool ok = true;
    if (parse_kv(argv[i], "--seed", &v)) {
      ok = parse_number(v, &o.seed);
    } else if (parse_kv(argv[i], "--duration-ms", &v)) {
      ok = parse_ms(v, &o.duration);
    } else if (parse_kv(argv[i], "--clients", &v)) {
      ok = parse_number(v, &o.clients);
    } else if (parse_kv(argv[i], "--ops", &v)) {
      ok = parse_number(v, &o.ops_per_txn);
    } else if (parse_kv(argv[i], "--reads", &v)) {
      ok = parse_number(v, &o.read_fraction);
    } else if (parse_kv(argv[i], "--zipf", &v)) {
      ok = parse_number(v, &o.zipf);
    } else if (parse_kv(argv[i], "--crash", &v)) {
      ok = parse_event(v, FailureEvent::What::kCrash, &o.schedule);
    } else if (parse_kv(argv[i], "--recover", &v)) {
      ok = parse_event(v, FailureEvent::What::kRecover, &o.schedule);
    } else if (parse_kv(argv[i], "--report-out", &v)) {
      o.report_out = v;
    } else if (parse_kv(argv[i], "--spans-out", &v)) {
      o.spans_out = v;
    } else if (parse_kv(argv[i], "--telemetry-out", &v)) {
      o.telemetry_out = v;
    } else if (parse_kv(argv[i], "--telemetry-interval-ms", &v)) {
      ok = parse_ms(v, &o.telemetry.interval);
    } else if (parse_kv(argv[i], "--watchdog-no-commit-ms", &v)) {
      ok = parse_ms(v, &o.telemetry.no_commit_budget);
    } else if (parse_kv(argv[i], "--watchdog-recovery-ms", &v)) {
      ok = parse_ms(v, &o.telemetry.recovery_phase_budget);
    } else if (parse_kv(argv[i], "--watchdog-retries", &v)) {
      ok = parse_number(v, &o.telemetry.control_retry_budget);
    } else if (parse_kv(argv[i], "--bundle-out", &v)) {
      o.telemetry.bundle_path = v;
    } else if (parse_kv(argv[i], "--isolate", &v)) {
      ok = parse_site_at(v, &o.isolate_site, &o.isolate_at);
    } else if (parse_kv(argv[i], "--heal", &v)) {
      ok = parse_ms(v, &o.heal_at);
    } else if (std::strcmp(argv[i], "--telemetry-host") == 0) {
      o.telemetry.include_host = true;
    } else if (std::strcmp(argv[i], "--watchdog") == 0) {
      o.watchdog = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      o.verify = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      o.dump_metrics = true;
    } else {
      ok = apply_config_flag(argv[i], &o.cfg);
    }
    if (!ok) usage(argv[0]);
  }
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Config cfg = o.cfg;
  cfg.record_history = o.verify || cfg.online_verify;

  std::printf("ddbs_sim: %d sites, %lld items x%d, %s / %s / %s / %s, "
              "seed %llu, %d thread%s\n",
              cfg.n_sites, static_cast<long long>(cfg.n_items),
              cfg.effective_replication(), to_string(cfg.recovery_scheme),
              to_string(cfg.outdated_strategy), to_string(cfg.copier_mode),
              to_string(cfg.unreadable_policy),
              static_cast<unsigned long long>(o.seed), cfg.n_threads,
              cfg.n_threads == 1 ? "" : "s");

  std::unique_ptr<ClusterRuntime> rt = make_runtime(cfg, o.seed);
  ClusterRuntime& cluster = *rt;
  cluster.bootstrap();

  TelemetryOptions topts = o.telemetry;
  topts.watchdog = o.watchdog;
  std::ofstream telemetry_file;
  std::unique_ptr<TelemetryStream> stream;
  if (!o.telemetry_out.empty() || o.watchdog) {
    stream = std::make_unique<TelemetryStream>(cluster, topts);
    if (!o.telemetry_out.empty() && o.telemetry_out != "-") {
      telemetry_file.open(o.telemetry_out);
      if (!telemetry_file) {
        std::fprintf(stderr, "telemetry: cannot write %s\n",
                     o.telemetry_out.c_str());
        return 2;
      }
      stream->set_output(&telemetry_file);
    }
    stream->start();
  }

  if (o.isolate_site != kInvalidSite) {
    // One group holding everyone else; the isolated site falls out into
    // its own singleton group.
    const SiteId victim = o.isolate_site;
    cluster.schedule_global(o.isolate_at, [&cluster, victim]() {
      std::vector<SiteId> rest;
      for (SiteId s = 0; s < cluster.n_sites(); ++s) {
        if (s != victim) rest.push_back(s);
      }
      cluster.network().set_partition({rest});
    });
    if (o.heal_at >= 0) {
      cluster.schedule_global(o.heal_at,
                              [&cluster]() { cluster.network().clear_partition(); });
    }
  }

  RunnerParams rp;
  rp.clients_per_site = o.clients;
  rp.duration = o.duration;
  rp.workload.ops_per_txn = o.ops_per_txn;
  rp.workload.read_fraction = o.read_fraction;
  rp.workload.zipf_theta = o.zipf;
  rp.schedule = o.schedule;
  if (stream) {
    TelemetryStream* sp = stream.get();
    rp.stop_check = [sp]() { return sp->stalled(); };
    rp.stop_poll = topts.interval;
  }
  Runner runner(cluster, rp, o.seed);
  const RunnerStats stats = runner.run();
  if (!stats.stopped_early) cluster.settle();

  if (stream) {
    stream->stop();
    if (o.telemetry_out == "-") std::fwrite(stream->jsonl().data(), 1,
                                            stream->jsonl().size(), stdout);
    if (stream->stalled()) {
      for (const StallEvent& e : stream->stalls()) {
        std::fprintf(stderr,
                     "ddbs_sim: watchdog STALL at t=%lld: %s (site %d, "
                     "value %lld)\n",
                     static_cast<long long>(e.at), e.reason.c_str(),
                     static_cast<int>(e.site),
                     static_cast<long long>(e.value));
      }
      if (topts.bundle_path.empty()) {
        std::fprintf(stderr,
                     "ddbs_sim: pass --bundle-out=PATH to keep the "
                     "diagnostic bundle\n");
      }
      return 4;
    }
  }

  TablePrinter t("results");
  t.set_header({"metric", "value"});
  t.add_row({"committed", TablePrinter::integer(stats.committed)});
  t.add_row({"aborted", TablePrinter::integer(stats.aborted)});
  t.add_row({"commit ratio", TablePrinter::pct(stats.commit_ratio())});
  t.add_row({"throughput",
             TablePrinter::num(stats.throughput_per_sec(o.duration), 1) +
                 " txn/s"});
  t.add_row(
      {"p50 latency", TablePrinter::ms(stats.commit_latency_us.percentile(50))});
  t.add_row(
      {"p99 latency", TablePrinter::ms(stats.commit_latency_us.percentile(99))});
  for (const auto& [reason, n] : stats.abort_reasons) {
    t.add_row({"abort: " + reason, TablePrinter::integer(n)});
  }
  t.print();

  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    const auto& ms = cluster.site(s).rm().milestones();
    if (ms.started == kNoTime) continue;
    std::printf("site %d recovery: started %.2fs, operational %+.1fms, "
                "current %+.1fms, %zu marked, %zu copiers, %d type-1, "
                "%d type-2\n",
                s, ms.started / 1e6,
                ms.nominally_up == kNoTime
                    ? -1.0
                    : (ms.nominally_up - ms.started) / 1e3,
                ms.fully_current == kNoTime
                    ? -1.0
                    : (ms.fully_current - ms.started) / 1e3,
                ms.marked_unreadable, ms.copiers_run, ms.type1_attempts,
                ms.type2_rounds);
  }

  std::string why;
  const bool conv = cluster.replicas_converged(&why);
  std::printf("replicas converged: %s\n", conv ? "yes" : why.c_str());

  int rc = conv ? 0 : 1;
  if (o.verify) {
    const History& h = cluster.history().view();
    const auto cg = check_conflict_graph(h);
    const auto one = check_one_sr_graph(h);
    std::printf("CG over DB+NS: %s; revised 1-STG over DB: %s "
                "(%zu committed txns)\n",
                cg.ok ? "acyclic" : cg.detail.c_str(),
                one.ok ? "acyclic (1-SR)" : one.detail.c_str(),
                h.txns.size());
    if (!cg.ok || !one.ok) rc = 1;
  }
  if (o.dump_metrics) {
    std::printf("metrics: %s\n", cluster.metrics().summary().c_str());
  }
  if (!o.report_out.empty()) {
    RunReport report("ddbs_sim");
    RunReport::Run& run = cluster.report_run(report, "cli");
    run.scalars.emplace_back("committed", stats.committed);
    run.scalars.emplace_back("aborted", stats.aborted);
    run.scalars.emplace_back("commit_ratio", stats.commit_ratio());
    run.scalars.emplace_back("throughput_txn_s",
                             stats.throughput_per_sec(o.duration));
    run.scalars.emplace_back("p50_latency_us",
                             stats.commit_latency_us.percentile(50));
    run.scalars.emplace_back("p99_latency_us",
                             stats.commit_latency_us.percentile(99));
    if (!report.write(o.report_out)) rc = 1;
  }
  if (!o.spans_out.empty()) {
    if (!write_file("spans", o.spans_out, cluster.spans_chrome_json())) {
      rc = 1;
    } else {
      std::printf("spans: wrote %s\n", o.spans_out.c_str());
    }
  }
  return rc;
}
