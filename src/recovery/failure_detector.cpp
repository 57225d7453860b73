#include "recovery/failure_detector.h"

#include "common/logging.h"
#include <algorithm>
#include <sstream>

#include "replication/session.h"

namespace ddbs {

namespace {
constexpr int kMissesToDeclare = 2;
// A declaration additionally requires the suspect to have been silent --
// no pong on ANY of our pings -- for this many detector intervals. On a
// lossy transport a burst of consecutive timeouts is cheap (at 25% loss a
// 3-ping chain fails ~8% of the time), but a live site keeps answering
// *some* periodic pings, so prolonged total silence separates death from
// loss far more reliably than any fixed-length chain.
constexpr SimTime kSilenceToDeclare = 6;
} // namespace

FailureDetector::FailureDetector(const CoordinatorEnv& env,
                                 TransactionManager& tm)
    : env_(env),
      tm_(tm),
      rng_(0x9d5f00d + static_cast<uint64_t>(env.self) * 7919) {}

void FailureDetector::metrics_inc_reconcile() {
  env_.metrics->inc(env_.metrics->id.fd_reconcile_restarts);
}

SimTime FailureDetector::jittered_interval() {
  // Desynchronize the fleet: without jitter every site's detector fires in
  // lockstep and their type-2 declarations collide forever. (The knob
  // exists for the ablation bench.)
  const SimTime base = env_.cfg->detector_interval;
  if (!env_.cfg->detector_jitter) return base;
  return base + rng_.uniform(0, base / 2);
}

void FailureDetector::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  const auto n = static_cast<size_t>(env_.cfg->n_sites);
  misses_.assign(n, 0);
  declaring_.clear();
  for (const auto& [s, span] : verifying_) Tracer::close(env_.tracer, span);
  verifying_.clear();
  last_pong_.assign(n, kNoTime);
  started_at_ = env_.sched->now(); // silence is measured from here at first
  declare_inflight_ = false;
  const uint64_t epoch = epoch_;
  env_.sched->after(jittered_interval(), [this, epoch]() {
    if (epoch != epoch_ || !running_) return;
    tick();
  });
}

void FailureDetector::stop() {
  running_ = false;
  ++epoch_;
}

void FailureDetector::tick() {
  // Ping every site our local NS copy says is nominally up. The peek is a
  // hint only; the declaration itself is a locked control transaction.
  // Entries are read one by one: nothing below delivers synchronously, so
  // no entry changes while the loop runs.
  const uint64_t epoch = epoch_;
  ++tick_count_;
  for (SiteId s = 0; s < env_.cfg->n_sites; ++s) {
    if (s == env_.self) continue;
    if (peek_ns(env_.stable->kv(), s) == 0) {
      // Reconciliation probe (every 4th tick): a nominally-down site that
      // answers "operational" was falsely declared -- tell it to restart
      // and re-integrate through normal recovery (Section 6's
      // one-directional integration, and the heal path after the
      // fail-stop assumption was violated).
      if (env_.cfg->reconcile_probes && tick_count_ % 4 == 0) {
        env_.rpc->send_request(
            s, Ping{}, env_.cfg->rpc_timeout,
            [this, s, epoch](Code code, const Payload* payload) {
              if (epoch != epoch_ || !running_) return;
              if (code == Code::kOk && payload != nullptr &&
                  std::get<Pong>(*payload).operational) {
                metrics_inc_reconcile();
                env_.rpc->send_oneway(s, DeclaredDown{});
              }
            });
      }
      // While a site is nominally down we stop pinging it, so keep its
      // proof-of-life fresh artificially: when it re-integrates it starts
      // with a clean silence clock instead of an ancient last pong.
      last_pong_[static_cast<size_t>(s)] = env_.sched->now();
      continue;
    }
    if (declaring_.count(s)) continue;
    env_.rpc->send_request(
        s, Ping{}, env_.cfg->rpc_timeout,
        [this, s, epoch](Code code, const Payload*) {
          if (epoch != epoch_ || !running_) return;
          const auto i = static_cast<size_t>(s);
          if (code == Code::kOk) {
            misses_[i] = 0;
            last_pong_[i] = env_.sched->now();
            return;
          }
          // Two missed periodic pings arouse suspicion; certainty (the
          // paper's precondition for a type-2) takes a burst of
          // consecutive timeouts -- on a lossy transport two lost pings
          // do not prove death.
          if (++misses_[i] >= kMissesToDeclare) begin_verify(s, 3);
        });
  }
  env_.sched->after(jittered_interval(), [this, epoch]() {
    if (epoch != epoch_ || !running_) return;
    tick();
  });
}

void FailureDetector::verify_dead(const CoordinatorEnv& env,
                                  std::vector<SiteId> candidates,
                                  std::function<void(std::vector<SiteId>)> k) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.empty()) {
    k({});
    return;
  }
  struct State {
    size_t remaining = 0;
    std::vector<SiteId> dead;
    std::function<void(std::vector<SiteId>)> k;
  };
  auto st = std::make_shared<State>();
  st->remaining = candidates.size();
  st->k = std::move(k);
  // A candidate is confirmed dead only after `kPingBurst` CONSECUTIVE
  // unanswered pings: a single timeout can be message loss.
  constexpr int kPingBurst = 3;
  struct Prober {
    static void probe(const CoordinatorEnv& env, SiteId s, int left,
                      std::shared_ptr<State> st) {
      env.rpc->send_request(
          s, Ping{}, env.cfg->rpc_timeout,
          [env, s, left, st](Code code, const Payload*) {
            if (code == Code::kOk) {
              if (--st->remaining == 0) st->k(std::move(st->dead));
              return;
            }
            if (left > 1) {
              probe(env, s, left - 1, st);  // consecutive-timeout chain
              return;
            }
            st->dead.push_back(s);
            if (--st->remaining == 0) st->k(std::move(st->dead));
          });
    }
  };
  for (SiteId s : candidates) {
    Prober::probe(env, s, kPingBurst, st);
  }
}

void FailureDetector::suspect(SiteId s) {
  if (!running_ || s == env_.self) return;
  if (declaring_.count(s)) return;
  if (peek_ns(env_.stable->kv(), s) == 0) return; // already nominally down
  begin_verify(s, 3);
}

void FailureDetector::begin_verify(SiteId s, int attempts) {
  // One chain per suspect at a time; further hints while it runs are
  // folded into it (they would reach the same verdict from the same
  // pings anyway).
  if (verifying_.count(s)) return;
  env_.metrics->inc(env_.metrics->id.fd_verify_chains);
  const SpanId span =
      Tracer::open(env_.tracer, TraceKind::kDetectorVerify, env_.self, 0, s);
  verifying_.emplace(s, span);
  // The chain's pings (and anything they lead to, e.g. the type-2 control
  // transaction of a declaration) nest under the chain's span.
  SpanScope scope(env_.tracer, span);
  verify(s, attempts);
}

void FailureDetector::resolve_verify(SiteId s) {
  auto it = verifying_.find(s);
  if (it == verifying_.end()) return;
  Tracer::close(env_.tracer, it->second);
  verifying_.erase(it);
}

void FailureDetector::verify(SiteId s, int attempts_left) {
  const uint64_t epoch = epoch_;
  env_.rpc->send_request(
      s, Ping{}, env_.cfg->rpc_timeout,
      [this, s, attempts_left, epoch](Code code, const Payload*) {
        if (epoch != epoch_ || !running_) return;
        const auto i = static_cast<size_t>(s);
        if (code == Code::kOk) {
          misses_[i] = 0;
          last_pong_[i] = env_.sched->now();
          resolve_verify(s); // chain resolved: alive after all
          return;
        }
        if (attempts_left > 1) {
          verify(s, attempts_left - 1);
          return;
        }
        resolve_verify(s); // chain resolved
        // kNoTime (no pong yet) is the minimum SimTime, so this falls back
        // to started_at_.
        const SimTime last_alive = std::max(started_at_, last_pong_[i]);
        if (env_.sched->now() - last_alive <
            kSilenceToDeclare * env_.cfg->detector_interval) {
          // The site answered a ping recently: alive, the chain's timeouts
          // were loss. Not *sure* => no type-2 yet. Leave the accumulated
          // misses so the next timed-out periodic ping restarts the chain;
          // a genuinely dead site re-reaches this point silent and stale.
          return;
        }
        declare(s);
      });
}

void FailureDetector::declare(SiteId s) {
  if (declaring_.count(s) || declare_inflight_) return;
  // Batch every other site that has already accumulated misses: with two
  // dead sites a single-site declaration would keep timing out on the
  // other one (it is still in the local NS view and thus a write target).
  std::vector<SiteId> down{s};
  for (SiteId other = 0; other < env_.cfg->n_sites; ++other) {
    if (other != s && misses_[static_cast<size_t>(other)] >= kMissesToDeclare &&
        !declaring_.count(other)) {
      down.push_back(other);
    }
  }
  run_declare(std::move(down), /*attempt=*/1);
}

void FailureDetector::run_declare(std::vector<SiteId> down, int attempt) {
  declare_inflight_ = true;
  for (SiteId d : down) {
    declaring_.insert(d);
    misses_[static_cast<size_t>(d)] = 0;
  }
  env_.metrics->inc(env_.metrics->id.fd_declared_down);
  // One event per declared site (a = site, b = batch size) so per-site
  // consumers (episode tracker) see every member of a batched declaration.
  for (SiteId d : down) {
    Tracer::emit(env_.tracer, TraceKind::kDetectorDeclare, env_.self, 0, d,
                 static_cast<int64_t>(down.size()));
  }
  if (log_level() <= LogLevel::kInfo) {
    std::ostringstream os;
    os << "site " << env_.self << " declares down:";
    for (SiteId d : down) os << " " << d;
    log_line(LogLevel::kInfo, os.str());
  }
  const uint64_t epoch = epoch_;
  tm_.run_control_down(
      down, {},
      [this, down, attempt, epoch](const ControlDownResult& res) {
        if (epoch != epoch_ || !running_) return;
        if (res.ok) {
          declare_inflight_ = false;
          for (SiteId d : down) declaring_.erase(d);
          return;
        }
        // A participant of the declaration may itself be dead: ping-verify
        // the new suspects (a timeout on a locked write is ambiguous),
        // widen the set with the confirmed ones and retry right away
        // (recovery-procedure step 4, detector side).
        if (!res.additional_suspects.empty() &&
            attempt <= env_.cfg->n_sites) {
          verify_dead(
              env_, res.additional_suspects,
              [this, down, attempt, epoch](std::vector<SiteId> confirmed) {
                if (epoch != epoch_ || !running_) return;
                if (confirmed.empty()) {
                  env_.sched->after(jittered_interval(),
                                    [this, down, epoch]() {
                                      if (epoch != epoch_ || !running_) return;
                                      declare_inflight_ = false;
                                      for (SiteId d : down) declaring_.erase(d);
                                    });
                  return;
                }
                std::vector<SiteId> wider = down;
                for (SiteId d : confirmed) {
                  if (std::find(wider.begin(), wider.end(), d) ==
                      wider.end()) {
                    wider.push_back(d);
                  }
                }
                run_declare(std::move(wider), attempt + 1);
              });
          return;
        }
        // Conflicting declaration (another site beat us, or a lock clash):
        // back off with jitter before allowing a re-declaration; if someone
        // else's type-2 committed meanwhile, the local NS peek in tick()
        // skips these sites entirely.
        env_.sched->after(jittered_interval(), [this, down, epoch]() {
          if (epoch != epoch_ || !running_) return;
          declare_inflight_ = false;
          for (SiteId d : down) declaring_.erase(d);
        });
      });
}

} // namespace ddbs
