// ddbs_sweep -- parallel (config x seed) sweep CLI.
//
// Builds a config matrix from comma-separated axis flags (cross product),
// runs every cell against --seeds consecutive seeds on a -j thread pool,
// and writes one aggregate JSON report (schema: EXPERIMENTS.md). Each run
// is an independent single-threaded simulation, so per-seed results are
// bit-identical to a serial sweep regardless of -j.
//
// Examples:
//   ddbs_sweep --strategy=mark-all,missing-list --seeds=8 -j 4
//              --crash=2@1000 --recover=2@2500 --out=SWEEP.json
//   ddbs_sweep --scheme=session-vector,spooler --copier=eager,on-demand
//              --seeds=4 --duration-ms=2000 --per-run-dir=runs/
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cli.h"
#include "workload/sweep.h"

using namespace ddbs;
using namespace ddbs::cli;

namespace {

// One matrix axis: a sweepable Config row and its values as spelled on
// the command line.
struct Axis {
  const ConfigField* field = nullptr;
  std::vector<std::string> values;
};

struct Options {
  Config base;
  std::vector<Axis> axes; // in config_fields() order
  uint64_t seed_base = 1;
  int seeds = 4;
  int threads = 1;
  SimTime duration = 2'000'000;
  int clients = 2;
  int ops_per_txn = 3;
  double read_fraction = 0.5;
  double zipf = 0.0;
  std::vector<FailureEvent> schedule;
  std::string out = "SWEEP_ddbs.json";
  std::string per_run_dir; // "" = don't write per-run reports
  std::string spans_dir;   // "" = don't write per-run span dumps
  std::string telemetry_dir; // "" = don't write per-run telemetry JSONL
  SimTime telemetry_interval = 250'000;
  bool fail_fast = false;
  bool no_oracles = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "sweep control:\n"
      "  --seeds=N             seeds per cell (default 4)\n"
      "  --seed-base=N         first seed (default 1)\n"
      "  -j N, --threads=N     worker threads (default 1)\n"
      "  --cluster-threads=N   per-cluster worker threads; N>1 runs each\n"
      "                        cell on the site-parallel backend\n"
      "  --fail-fast           stop scheduling runs after the first failure\n"
      "  --no-oracles          skip the quiescence invariant oracles\n"
      "  --out=PATH            aggregate JSON report (default SWEEP_ddbs.json)\n"
      "  --per-run-dir=DIR     also write RUN_<cell>_seed<N>.json per run\n"
      "  --spans-dir=DIR       also write SPANS_<cell>_seed<N>.json per run\n"
      "                        (Chrome trace_event JSON of the causal spans)\n"
      "  --telemetry-dir=DIR   also write TEL_<cell>_seed<N>.jsonl per run\n"
      "                        (live telemetry stream; see EXPERIMENTS.md)\n"
      "  --telemetry-interval-ms=N  telemetry tick period (default 250)\n"
      "scenario (same meaning as ddbs_sim):\n"
      "  --duration-ms=N --clients=N --ops=N --reads=F --zipf=F\n"
      "  --crash=S@MS --recover=S@MS (repeatable)\n"
      "config (* = matrix axis: comma-separated values, the cross product\n"
      "forms the cells; history is recorded only with --online-verify):\n"
      "%s",
      argv0, config_flags_help("--threads", /*mark_axes=*/true).c_str());
  std::exit(2);
}

// A Config flag: sweepable rows become (or replace) an axis, every value
// checked now; the rest set the base config.
bool add_config_flag(Options& o, const char* arg) {
  std::string_view value;
  const ConfigField* f = find_config_flag(arg, &value);
  if (f == nullptr) return false;
  if (!f->sweepable) return parse_flag_value(*f, value, &o.base);
  Axis axis{f, split_commas(std::string(value))};
  Config scratch;
  for (const std::string& v : axis.values) {
    if (!parse_flag_value(*f, v, &scratch)) return false;
  }
  auto it = std::find_if(o.axes.begin(), o.axes.end(),
                         [f](const Axis& a) { return a.field >= f; });
  if (it != o.axes.end() && it->field == f) {
    *it = std::move(axis);
  } else {
    o.axes.insert(it, std::move(axis));
  }
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    bool ok = true;
    if (parse_kv(argv[i], "--seeds", &v)) {
      ok = parse_number(v, &o.seeds);
    } else if (parse_kv(argv[i], "--seed-base", &v)) {
      ok = parse_number(v, &o.seed_base);
    } else if (parse_kv(argv[i], "--threads", &v)) {
      ok = parse_number(v, &o.threads);
    } else if (parse_kv(argv[i], "--cluster-threads", &v)) {
      ok = parse_number(v, &o.base.n_threads);
    } else if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc) {
      ok = parse_number(argv[++i], &o.threads);
    } else if (std::strncmp(argv[i], "-j", 2) == 0 && argv[i][2] != '\0') {
      ok = parse_number(argv[i] + 2, &o.threads);
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
    } else if (std::strcmp(argv[i], "--fail-fast") == 0) {
      o.fail_fast = true;
    } else if (std::strcmp(argv[i], "--no-oracles") == 0) {
      o.no_oracles = true;
    } else if (parse_kv(argv[i], "--out", &v)) {
      o.out = v;
    } else if (parse_kv(argv[i], "--per-run-dir", &v)) {
      o.per_run_dir = v;
    } else if (parse_kv(argv[i], "--spans-dir", &v)) {
      o.spans_dir = v;
    } else if (parse_kv(argv[i], "--telemetry-dir", &v)) {
      o.telemetry_dir = v;
    } else if (parse_kv(argv[i], "--telemetry-interval-ms", &v)) {
      ok = parse_ms(v, &o.telemetry_interval);
    } else {
      ok = add_config_flag(o, argv[i]);
    }
    if (!ok) usage(argv[0]);
  }
  if (o.seeds < 1 || o.threads < 1) usage(argv[0]);
  return o;
}

// The cross product of the axes, last axis varying fastest. A cell's label
// joins its values on the axes with more than one value: enum values as
// spelled, other values as flag=value ("degree=3"); a cell with no such
// axis is labelled by its outdated strategy.
std::vector<SweepCell> build_cells(const Options& o) {
  std::vector<SweepCell> cells;
  std::vector<size_t> pick(o.axes.size(), 0);
  for (;;) {
    SweepCell cell;
    cell.cfg = o.base;
    for (size_t a = 0; a < o.axes.size(); ++a) {
      const Axis& axis = o.axes[a];
      const std::string& v = axis.values[pick[a]];
      parse_flag_value(*axis.field, v, &cell.cfg); // checked in parse()
      if (axis.values.size() < 2) continue;
      if (!cell.label.empty()) cell.label += '+';
      if (axis.field->kind != ConfigField::Kind::kChoice) {
        cell.label += std::string(axis.field->flag + 2) + "=";
      }
      cell.label += v;
    }
    if (cell.label.empty()) cell.label = to_string(cell.cfg.outdated_strategy);
    // Perf runs carry no checker feed unless the online verifier is
    // requested (it needs the history event stream as input).
    cell.cfg.record_history = cell.cfg.online_verify;
    cells.push_back(std::move(cell));
    size_t a = o.axes.size();
    while (a > 0 && ++pick[a - 1] == o.axes[a - 1].values.size()) {
      pick[--a] = 0;
    }
    if (a == 0) return cells;
  }
}

} // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  SweepSpec spec;
  spec.seed_base = o.seed_base;
  spec.seeds = o.seeds;
  spec.params.clients_per_site = o.clients;
  spec.params.duration = o.duration;
  spec.params.workload.ops_per_txn = o.ops_per_txn;
  spec.params.workload.read_fraction = o.read_fraction;
  spec.params.workload.zipf_theta = o.zipf;
  spec.params.schedule = o.schedule;
  spec.capture_spans = !o.spans_dir.empty();
  spec.capture_telemetry = !o.telemetry_dir.empty();
  spec.telemetry.interval = o.telemetry_interval;
  spec.check_oracles = !o.no_oracles;
  spec.fail_fast = o.fail_fast;

  spec.cells = build_cells(o);

  std::printf("ddbs_sweep: %zu cells x %d seeds = %zu runs on %d thread%s\n",
              spec.cells.size(), o.seeds, spec.cells.size() * o.seeds,
              o.threads, o.threads == 1 ? "" : "s");

  const SweepResult res = run_sweep(spec, o.threads);

  for (size_t c = 0; c < res.cells.size(); ++c) {
    const SweepCellSummary& cell = res.cells[c];
    std::printf("  %-28s", cell.label.c_str());
    for (const SweepScalar& s : cell.scalars) {
      if (s.name == "throughput_txn_s") {
        std::printf(" thr mean %.1f p50 %.1f p99 %.1f txn/s", s.mean, s.p50,
                    s.p99);
      } else if (s.name == "commit_ratio") {
        std::printf(" commit %.1f%%", s.mean * 100.0);
      }
    }
    std::printf(" converged %d/%d\n", cell.converged, o.seeds);
  }
  std::printf("wall %.2fs, %llu events, %.2fM events/s\n", res.wall_seconds,
              static_cast<unsigned long long>(res.events_executed),
              res.events_per_sec() / 1e6);

  int rc = 0;
  // Per-run artifacts: DIR/<prefix><cell>_seed<N><ext>.
  auto write_runs = [&](const std::string& dir, const char* prefix,
                        const char* ext, std::string SweepRun::*body) {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "ddbs_sweep: cannot create %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      rc = 1;
      return;
    }
    for (const SweepRun& r : res.runs) {
      const std::string path = dir + "/" + prefix + spec.cells[r.cell].label +
                               "_seed" + std::to_string(r.seed) + ext;
      if (!write_file("ddbs_sweep", path, r.*body)) rc = 1;
    }
  };
  write_runs(o.per_run_dir, "RUN_", ".json", &SweepRun::report_json);
  write_runs(o.spans_dir, "SPANS_", ".json", &SweepRun::spans_json);
  write_runs(o.telemetry_dir, "TEL_", ".jsonl", &SweepRun::telemetry_jsonl);
  if (!write_file("ddbs_sweep", o.out,
                  sweep_report_json(spec, res, o.threads))) {
    rc = 1;
  }
  // A sweep fails (nonzero exit) when any completed run missed replica
  // convergence or tripped an invariant oracle. Runs skipped by
  // --fail-fast are reported but judged only by the runs that did execute.
  for (const SweepRun& r : res.runs) {
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "ddbs_sweep: %s seed %llu: ORACLE VIOLATION %s\n",
                   spec.cells[r.cell].label.c_str(),
                   static_cast<unsigned long long>(r.seed), v.c_str());
    }
  }
  for (const SweepCellSummary& cell : res.cells) {
    if (cell.converged != cell.completed) {
      std::fprintf(stderr, "ddbs_sweep: cell %s: %d/%d completed runs"
                   " converged\n",
                   cell.label.c_str(), cell.converged, cell.completed);
      rc = 1;
    }
    if (cell.oracle_failures > 0) {
      std::fprintf(stderr, "ddbs_sweep: cell %s: %d run%s violated an"
                   " invariant oracle\n",
                   cell.label.c_str(), cell.oracle_failures,
                   cell.oracle_failures == 1 ? "" : "s");
      rc = 1;
    }
    if (cell.completed != o.seeds) {
      std::fprintf(stderr, "ddbs_sweep: cell %s: %d/%d runs skipped"
                   " (--fail-fast)\n",
                   cell.label.c_str(), o.seeds - cell.completed, o.seeds);
    }
  }
  return rc;
}
