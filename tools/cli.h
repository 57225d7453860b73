// Command-line plumbing shared by the ddbs_* tools: "--key=value"
// matching, strict number parsing, comma lists, crash/recover events and
// file output. Config knobs are not parsed here: every tool hands
// arguments it does not own to apply_config_flag (common/config.h).
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.h"
#include "workload/runner.h"

namespace ddbs::cli {

// True when `arg` is "<key>=<value>"; *out receives the value.
inline bool parse_kv(const char* arg, const char* key, std::string* out) {
  const size_t len = std::strlen(key);
  if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Milliseconds on the command line -> simulated microseconds.
inline bool parse_ms(std::string_view text, SimTime* out_us) {
  return parse_scaled(text, 1000, out_us);
}

inline std::vector<std::string> split_commas(const std::string& v) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= v.size()) {
    const size_t comma = v.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(v.substr(start));
      break;
    }
    out.push_back(v.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// "S@MS": site S at MS milliseconds.
inline bool parse_site_at(const std::string& v, SiteId* site, SimTime* at) {
  const size_t sep = v.find('@');
  return sep != std::string::npos &&
         parse_number(std::string_view(v).substr(0, sep), site) &&
         parse_ms(std::string_view(v).substr(sep + 1), at);
}

inline bool parse_event(const std::string& v, FailureEvent::What what,
                        std::vector<FailureEvent>* schedule) {
  FailureEvent ev;
  ev.what = what;
  if (!parse_site_at(v, &ev.site, &ev.at)) return false;
  schedule->push_back(ev);
  return true;
}

inline bool write_file(const char* tool, const std::string& path,
                       const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

} // namespace ddbs::cli
