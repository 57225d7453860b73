// ddbs_soak -- long-horizon soak CLI with online incremental verification.
//
// Drives one long-lived cluster per cell through repeated
// load/crash/recover rounds with the OnlineVerifier attached: the revised
// 1-STG is maintained incrementally, every round boundary is judged by
// the checkpoint + quiescence oracles, and the consumed history prefix is
// pruned so memory stays bounded no matter how many transactions commit.
// Cells (one per outdated strategy, plus the spooler baseline) fan out on
// a thread pool; each cell is an independent deterministic simulation.
//
// Exit codes: 0 clean, 1 invariant violation, 2 usage, 3 RSS ceiling
// exceeded, 4 watchdog stall.
//
// The RSS ceiling is sampled on the telemetry tick inside each round, so
// a memory blow-up aborts the round that caused it instead of only being
// noticed at the end-of-run summary.
//
// Examples:
//   ddbs_soak --rounds=200 --round-ms=2000 --target-committed=2000000 -j 5
//   ddbs_soak --cells=mark-all,spooler --rounds=20 --rss-limit-mb=512
//   ddbs_soak --watchdog --telemetry-out=soak_tel
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli.h"
#include "common/telemetry.h"
#include "workload/soak.h"
#include "workload/sweep.h"

using namespace ddbs;
using namespace ddbs::cli;

namespace {

struct CliOptions {
  Config base;
  std::vector<std::string> cells{"mark-all", "vcmp", "fail-lock",
                                 "missing-list", "spooler"};
  uint64_t seed = 1;
  int threads = 1;
  SoakOptions soak; // per-cell knobs (cfg/seed filled per cell)
  int64_t rss_limit_kb = 0; // 0 = no ceiling
  std::string out;          // "" = no report file
  std::string telemetry_prefix; // per-cell JSONL: PREFIX.<cell>.jsonl
  std::string bundle_prefix;    // per-cell stall bundle: PREFIX.<cell>.json
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "  --cells=A,B,..        mark-all|vcmp|fail-lock|missing-list|spooler\n"
      "                        (default: all five; a cell sets --scheme and\n"
      "                        --strategy)\n"
      "  --rounds=N            crash/recover/load rounds per cell\n"
      "  --round-ms=N          load window per round (sim ms)\n"
      "  --crash-ms=N          crash offset within a round (-1 disables)\n"
      "  --recover-ms=N        recover offset within a round\n"
      "  --target-committed=N  stop a cell once N txns committed\n"
      "  --clients=N --ops=N --reads=F --zipf=F\n"
      "  --seed=N              base seed (cell index is mixed in)\n"
      "  -j N, --jobs=N        cells run in parallel\n"
      "  --rss-limit-mb=N      fail (exit 3) if process VmHWM exceeds this;\n"
      "                        sampled on the telemetry tick inside rounds\n"
      "  --out=PATH            write the aggregate JSON report here\n"
      "  --telemetry           buffer per-cell telemetry JSONL\n"
      "  --telemetry-out=PFX   write it to PFX.<cell>.jsonl per cell\n"
      "  --telemetry-interval-ms=N  tick period (default 250)\n"
      "  --watchdog            abort a stalling cell (exit 4)\n"
      "  --watchdog-no-commit-ms=N --watchdog-recovery-ms=N\n"
      "  --watchdog-retries=N  stall budgets (common/telemetry.h)\n"
      "  --bundle-out=PFX      stall bundles to PFX.<cell>.json\n"
      "config (history recording and the online verifier are always on):\n"
      "%s",
      argv0, config_flags_help().c_str());
  std::exit(2);
}

// A cell names the spooler baseline or one session-vector strategy.
bool apply_cell(Config& cfg, const std::string& cell) {
  if (parse_recovery_scheme(cell, &cfg.recovery_scheme) &&
      cfg.recovery_scheme == RecoveryScheme::kSpooler) {
    return true;
  }
  cfg.recovery_scheme = RecoveryScheme::kSessionVector;
  return parse_outdated_strategy(cell, &cfg.outdated_strategy);
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  o.soak.rounds = 50;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    bool ok = true;
    if (parse_kv(argv[i], "--cells", &v)) {
      o.cells = split_commas(v);
    } else if (parse_kv(argv[i], "--rounds", &v)) {
      ok = parse_number(v, &o.soak.rounds);
    } else if (parse_kv(argv[i], "--round-ms", &v)) {
      ok = parse_ms(v, &o.soak.round_duration);
    } else if (parse_kv(argv[i], "--crash-ms", &v)) {
      ok = parse_ms(v, &o.soak.crash_at);
    } else if (parse_kv(argv[i], "--recover-ms", &v)) {
      ok = parse_ms(v, &o.soak.recover_at);
    } else if (parse_kv(argv[i], "--target-committed", &v)) {
      ok = parse_number(v, &o.soak.target_committed);
    } else if (parse_kv(argv[i], "--clients", &v)) {
      ok = parse_number(v, &o.soak.clients_per_site);
    } else if (parse_kv(argv[i], "--ops", &v)) {
      ok = parse_number(v, &o.soak.workload.ops_per_txn);
    } else if (parse_kv(argv[i], "--reads", &v)) {
      ok = parse_number(v, &o.soak.workload.read_fraction);
    } else if (parse_kv(argv[i], "--zipf", &v)) {
      ok = parse_number(v, &o.soak.workload.zipf_theta);
    } else if (parse_kv(argv[i], "--seed", &v)) {
      ok = parse_number(v, &o.seed);
    } else if (parse_kv(argv[i], "--jobs", &v)) {
      ok = parse_number(v, &o.threads);
    } else if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc) {
      ok = parse_number(argv[++i], &o.threads);
    } else if (std::strncmp(argv[i], "-j", 2) == 0 && argv[i][2] != '\0') {
      ok = parse_number(argv[i] + 2, &o.threads);
    } else if (parse_kv(argv[i], "--rss-limit-mb", &v)) {
      ok = parse_scaled(v, 1024, &o.rss_limit_kb);
    } else if (parse_kv(argv[i], "--out", &v)) {
      o.out = v;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      o.soak.enable_telemetry = true;
    } else if (parse_kv(argv[i], "--telemetry-out", &v)) {
      o.telemetry_prefix = v;
      o.soak.enable_telemetry = true;
    } else if (parse_kv(argv[i], "--telemetry-interval-ms", &v)) {
      ok = parse_ms(v, &o.soak.telemetry.interval);
    } else if (std::strcmp(argv[i], "--watchdog") == 0) {
      o.soak.telemetry.watchdog = true;
    } else if (parse_kv(argv[i], "--watchdog-no-commit-ms", &v)) {
      ok = parse_ms(v, &o.soak.telemetry.no_commit_budget);
    } else if (parse_kv(argv[i], "--watchdog-recovery-ms", &v)) {
      ok = parse_ms(v, &o.soak.telemetry.recovery_phase_budget);
    } else if (parse_kv(argv[i], "--watchdog-retries", &v)) {
      ok = parse_number(v, &o.soak.telemetry.control_retry_budget);
    } else if (parse_kv(argv[i], "--bundle-out", &v)) {
      o.bundle_prefix = v;
    } else {
      ok = apply_config_flag(argv[i], &o.base);
    }
    if (!ok) usage(argv[0]);
  }
  if (o.soak.rounds < 1 || o.threads < 1 || o.base.n_threads < 1 ||
      o.cells.empty()) {
    usage(argv[0]);
  }
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);

  std::vector<SoakOptions> cells(o.cells.size());
  for (size_t c = 0; c < o.cells.size(); ++c) {
    cells[c] = o.soak;
    cells[c].cfg = o.base;
    cells[c].seed = o.seed + c * 1000003;
    cells[c].rss_limit_kb = o.rss_limit_kb;
    if (!apply_cell(cells[c].cfg, o.cells[c])) usage(argv[0]);
  }

  std::printf(
      "ddbs_soak: %zu cell%s x %d rounds on %d job%s"
      " (%d cluster thread%s)\n",
      cells.size(), cells.size() == 1 ? "" : "s", o.soak.rounds, o.threads,
      o.threads == 1 ? "" : "s", o.base.n_threads,
      o.base.n_threads == 1 ? "" : "s");

  std::vector<SoakResult> results(cells.size());
  run_parallel(cells.size(), o.threads,
               [&](size_t c) { results[c] = run_soak(cells[c]); });

  int rc = 0;
  int64_t total_committed = 0;
  uint64_t total_verified = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    const SoakResult& r = results[c];
    total_committed += r.committed;
    total_verified += r.commits_verified;
    std::printf(
        "  %-14s rounds %3d committed %10lld verified %10llu"
        " prunes %4llu retained<= %zu nodes<= %zu %s\n",
        o.cells[c].c_str(), r.rounds_run,
        static_cast<long long>(r.committed),
        static_cast<unsigned long long>(r.commits_verified),
        static_cast<unsigned long long>(r.prunes), r.max_retained_records,
        r.max_graph_nodes, r.ok() ? "OK" : "VIOLATION");
    for (const Violation& v : r.violations) {
      std::fprintf(stderr, "ddbs_soak: %s: VIOLATION %s\n",
                   o.cells[c].c_str(), to_string(v).c_str());
      rc = 1;
    }
    for (const StallEvent& e : r.stalls) {
      std::fprintf(stderr,
                   "ddbs_soak: %s: watchdog STALL at t=%lld: %s (site %d, "
                   "value %lld)\n",
                   o.cells[c].c_str(), static_cast<long long>(e.at),
                   e.reason.c_str(), static_cast<int>(e.site),
                   static_cast<long long>(e.value));
    }
    if (r.stalled()) {
      if (!o.bundle_prefix.empty() && !r.bundle_json.empty()) {
        write_file("ddbs_soak", o.bundle_prefix + "." + o.cells[c] + ".json",
                   r.bundle_json);
      }
      rc = rc == 0 ? 4 : rc;
    }
    if (r.rss_exceeded) {
      std::fprintf(stderr,
                   "ddbs_soak: %s: RSS ceiling tripped mid-round "
                   "(limit %lld kB)\n",
                   o.cells[c].c_str(),
                   static_cast<long long>(o.rss_limit_kb));
      rc = rc == 0 ? 3 : rc;
    }
    if (!o.telemetry_prefix.empty() && !r.telemetry_jsonl.empty()) {
      write_file("ddbs_soak",
                 o.telemetry_prefix + "." + o.cells[c] + ".jsonl",
                 r.telemetry_jsonl);
    }
  }
  const int64_t rss = peak_rss_kb();
  std::printf("total committed %lld, verified %llu, peak RSS %lld kB\n",
              static_cast<long long>(total_committed),
              static_cast<unsigned long long>(total_verified),
              static_cast<long long>(rss));
  if (o.rss_limit_kb > 0 && rss > o.rss_limit_kb) {
    std::fprintf(stderr, "ddbs_soak: peak RSS %lld kB exceeds limit %lld kB\n",
                 static_cast<long long>(rss),
                 static_cast<long long>(o.rss_limit_kb));
    rc = rc == 0 ? 3 : rc;
  }

  if (!o.out.empty()) {
    std::string body = "{\n  \"tool\": \"ddbs_soak\",\n  \"cells\": [\n";
    for (size_t c = 0; c < cells.size(); ++c) {
      body += soak_report_json(o.cells[c], cells[c], results[c]);
      body += c + 1 < cells.size() ? ",\n" : "\n";
    }
    body += "  ],\n  \"peak_rss_kb\": " + std::to_string(rss) + "\n}\n";
    if (!write_file("ddbs_soak", o.out, body)) rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
