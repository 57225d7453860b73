#include "replication/session.h"

namespace ddbs {

const char* to_string(SiteMode m) {
  switch (m) {
    case SiteMode::kDown: return "down";
    case SiteMode::kRecovering: return "recovering";
    case SiteMode::kUp: return "up";
  }
  return "?";
}

SessionVector peek_ns_vector(const KvStore& kv, int n_sites) {
  SessionVector v(static_cast<size_t>(n_sites), 0);
  for (SiteId k = 0; k < n_sites; ++k) {
    v[static_cast<size_t>(k)] = peek_ns(kv, k);
  }
  return v;
}

} // namespace ddbs
