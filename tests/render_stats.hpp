// Renders every NodeStats field of every node that moved, for tests that pin
// a run's exact accounting: "n0{local=1 stall=3100} n5{serviced=4}".
#pragma once

#include <string>
#include <utility>

#include "sim/stats.hpp"

namespace bfly::test {

inline std::string render_stats(const sim::MachineStats& st) {
  std::string out;
  for (std::size_t n = 0; n < st.node.size(); ++n) {
    const sim::NodeStats& s = st.node[n];
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"local", s.local_refs},   {"remote", s.remote_refs},
        {"serviced", s.serviced_remote}, {"stall", s.stall_ns},
        {"queue", s.queue_ns},     {"compute", s.compute_ns},
        {"block", s.block_words}};
    std::string f;
    for (const auto& [name, v] : fields)
      if (v != 0) f += " " + std::string(name) + "=" + std::to_string(v);
    if (f.empty()) continue;
    if (!out.empty()) out += " ";
    out += "n" + std::to_string(n) + "{" + f.substr(1) + "}";
  }
  return out;
}

}  // namespace bfly::test
