// Per-layer costs timed from outside the program: each function here
// times calls into one module's public functions on the workload's own
// messages, or on the benchmark's own objects.
#pragma once

#include <cstddef>
#include <vector>

#include "stats.h"

namespace perfbench {

// Arm and cancel cost on a fresh EventLoop holding `standing` timers,
// in ns per call.
struct TimerCost {
  double armNs = 0;
  double cancelNs = 0;
};
TimerCost timeTimers(size_t standing);

// Median round trip of a 1-byte ping-pong over loopback TCP between two
// plain threads: the kernel's floor under every hop.
double echoRttUs();

// HTTP/1.1: serialize + parse of each op's request and response, ns
// per op.
double timeHttpCodec(const std::vector<Op>& ops);

// Trunk: HEADERS + DATA frame encode and decode of each op's request
// and response as the proxies frame them.
struct H2Cost {
  double nsPerReq = 0;
  double nsPerMb = 0;  // per MB of body carried
};
H2Cost timeH2Codec(const std::vector<Op>& ops);

}  // namespace perfbench
