#include "net/rpc.h"

#include <cassert>

namespace ddbs {

RpcEndpoint::RpcEndpoint(SiteId self, Network& net, Scheduler& sched)
    : self_(self), net_(net), sched_(sched) {}

void RpcEndpoint::start(RequestHandler handler) {
  handler_ = std::move(handler);
  net_.register_site(self_,
                     [this](Envelope&& env) { on_envelope(std::move(env)); });
}

RpcEndpoint::Pending* RpcEndpoint::find(uint64_t rpc_id) {
  const auto idx = static_cast<uint32_t>(rpc_id & 0xffffffffu);
  const auto gen = static_cast<uint32_t>(rpc_id >> 32);
  if (idx >= slot_count_) return nullptr;
  Pending& p = slot(idx);
  return p.gen == gen && (gen & 1u) != 0 ? &p : nullptr;
}

void RpcEndpoint::release(uint64_t rpc_id) {
  const auto idx = static_cast<uint32_t>(rpc_id & 0xffffffffu);
  Pending& p = slot(idx);
  ++p.gen; // even: retired, and every copy of the id is stale now
  p.cb.reset();
  free_.push_back(idx);
  --outstanding_;
}

std::pair<RpcEndpoint::ResponseCb, SpanId> RpcEndpoint::take(
    uint64_t rpc_id) {
  Pending& p = *find(rpc_id);
  std::pair<ResponseCb, SpanId> out{std::move(p.cb), p.resume_span};
  release(rpc_id);
  return out;
}

uint64_t RpcEndpoint::send_request(SiteId to, Payload payload, SimTime timeout,
                                   ResponseCb cb) {
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = slot_count_++;
    if ((idx >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Pending[]>(kChunkSize));
    }
  }
  Pending& p = slot(idx);
  ++p.gen; // odd: outstanding
  const uint64_t id = (static_cast<uint64_t>(p.gen) << 32) | idx;
  const SpanId ctx = tracer_ ? tracer_->current() : 0;
  p.cb = std::move(cb);
  p.resume_span = ctx;
  p.timeout_ev = sched_.after(timeout, [this, id]() {
    if (find(id) == nullptr) return;
    auto [cb, resume] = take(id);
    SpanScope scope(tracer_, resume);
    cb(Code::kTimeout, nullptr);
  });
  ++outstanding_;
  net_.send(Envelope{id, /*is_response=*/false, self_, to, std::move(payload),
                     ctx});
  return id;
}

void RpcEndpoint::send_oneway(SiteId to, Payload payload) {
  net_.send(Envelope{0, false, self_, to, std::move(payload),
                     tracer_ ? tracer_->current() : 0});
}

void RpcEndpoint::respond(const Envelope& request, Payload payload) {
  assert(!request.is_response);
  net_.send(Envelope{request.rpc_id, /*is_response=*/true, self_,
                     request.from, std::move(payload), request.span});
}

void RpcEndpoint::cancel_request(uint64_t rpc_id) {
  Pending* p = find(rpc_id);
  if (p == nullptr) return;
  sched_.cancel(p->timeout_ev);
  release(rpc_id);
}

void RpcEndpoint::reset() {
  for (uint32_t idx = 0; idx < slot_count_; ++idx) {
    Pending& p = slot(idx);
    if ((p.gen & 1u) == 0) continue;
    sched_.cancel(p.timeout_ev);
    release((static_cast<uint64_t>(p.gen) << 32) | idx);
  }
}

void RpcEndpoint::on_envelope(Envelope&& env) {
  if (!env.is_response) {
    if (handler_) {
      // The handler runs under the sender's span, so per-site DM work
      // (lock waits, stages, applies) nests under the coordinator.
      SpanScope scope(tracer_, env.span);
      handler_(std::move(env));
    }
    return;
  }
  Pending* p = find(env.rpc_id);
  if (p == nullptr) return; // late response; requester moved on
  sched_.cancel(p->timeout_ev);
  auto [cb, resume] = take(env.rpc_id);
  SpanScope scope(tracer_, resume);
  cb(Code::kOk, &env.payload);
}

} // namespace ddbs
