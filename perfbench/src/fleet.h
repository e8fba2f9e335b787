// The benchmark's topology: a core::Testbed plus the L4 tier in front
// of it, and read-only views of each host taken from outside.
//
// The Testbed keeps its own L4Host private, so the benchmark stands the
// L4 tier up itself with the same core::L4Host class: the HTTP VIP wired
// as the Testbed wires it, plus a UDP VIP over the edges' QUIC VIPs (no
// MQTT VIP; see NOTES.md). That keeps the L4 loop thread reachable
// through L4Host::withBalancer for CPU and router readings.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/testbed.h"
#include "netcore/event_loop.h"

namespace perfbench {

struct FleetSpec {
  size_t edges = 1;
  size_t origins = 1;
  size_t apps = 2;
  bool mqtt = false;  // a broker and the edges' MQTT VIPs
  bool quic = false;  // edge QUIC VIPs and the L4 UDP VIP
};

// Runs `fn` on `loop`'s thread and waits for it.
void runOn(zdr::EventLoop& loop, const std::function<void()>& fn);

class Fleet {
 public:
  explicit Fleet(const FleetSpec& spec);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] zdr::core::Testbed& tb() { return *tb_; }
  [[nodiscard]] zdr::core::L4Host& l4() { return *l4_; }
  [[nodiscard]] zdr::SocketAddr httpVip() const { return httpVip_; }
  [[nodiscard]] zdr::SocketAddr quicVip() const { return quicVip_; }

  // Thread CPU seconds of each host loop, keyed "<tier>.<index>" ("edge.0",
  // "app.1") and "l4".
  [[nodiscard]] std::map<std::string, double> hostCpu();
  // Engine counters summed over every host loop the Testbed exposes
  // (edges, origins, apps).
  [[nodiscard]] zdr::EngineSample engineSum();
  // Timers standing on those loops right now.
  [[nodiscard]] size_t standingTimers();
  // Installs the bulk app handler (deterministic large bodies, upload
  // length and checksum echo) on every app server.
  void installBulkHandler();

 private:
  // Visits every host loop the Testbed exposes.
  void forEachLoop(const std::function<void(zdr::EventLoop&)>& fn);

  FleetSpec spec_;
  std::unique_ptr<zdr::core::Testbed> tb_;
  std::unique_ptr<zdr::core::L4Host> l4_;
  zdr::SocketAddr httpVip_{};
  zdr::SocketAddr quicVip_{};
};

}  // namespace perfbench
