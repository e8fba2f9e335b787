// Open-loop load generator.
//
// Two threads and no more: a pacer that sleeps on its own clock
// (clock_nanosleep on CLOCK_MONOTONIC, never EventLoop::runAfter) and
// releases each op when it falls due, and one client loop that owns
// every user connection. An op is timed from its due time, so a stall
// anywhere is charged to every op queued behind it, including ops
// still waiting in the generator for a free connection. The pacer's
// own lateness is reported so a late generator cannot pass for a fast
// system.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "http/client.h"
#include "netcore/event_loop.h"
#include "stats.h"

namespace perfbench {

using zdr::Clock;
using zdr::Duration;
using zdr::EventLoop;
using zdr::EventLoopThread;
using zdr::SocketAddr;
using zdr::TimePoint;
namespace http = zdr::http;

// Shape of a paced upload: 20 chunks of 4 KB, one every 40 ms, so each
// upload spans 0.8 s and straddles a restart.
inline constexpr size_t kPacedChunks = 20;
inline constexpr size_t kPacedChunkBytes = 4096;
inline constexpr Duration kPacedInterval = Duration{40};

enum class Failure : uint8_t {
  kNone,
  kRefused,      // connect failed or the transport died
  kTimeout,      // no complete response in time
  kServerError,  // 5xx
  kBadStatus,    // any other non-200 status (a 379 reaching the user)
  kWrongBody,    // 200 with a body that is not the expected one
};
const char* failureName(Failure f);

// One user request, as the user saw it.
struct Sample {
  double dueS = 0;      // when it was due, from the phase start
  double lagMs = 0;     // pacer release time minus due time
  double latencyMs = 0; // completion minus due time
  Failure failure = Failure::kNone;
  OpKind kind = OpKind::kApiGet;
  uint64_t bodyBytes = 0;  // request + response body bytes when ok
};

// Latency of the requests that succeeded; failures are counted apart
// and fail any latency limit outright. Paced uploads last as long as
// their pacing by design, so they are checked but not timed.
//
// p99 is the median of the p99s of kP99Groups consecutive groups of
// requests in due order. A shared machine stalls a thread for several
// ms now and then, so a whole-phase p99 swings with the number of
// stalls that land in the phase; the median group p99 repeats, and a
// queue that keeps growing still lifts most groups.
inline constexpr size_t kP99Groups = 8;

struct Latency {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;       // median of the group p99s
  double p99Whole = 0;  // p99 of the whole set
  double p999 = 0;
  size_t n = 0;
};

struct PhaseResult {
  zdr::TimePoint t0{};          // the phase's time zero (due times count from it)
  std::vector<Sample> samples;  // HTTP ops, in schedule order
  double wallS = 0;             // time zero to the last completion
  double scheduleS = 0;         // the schedule's length
  size_t backlogMax = 0;        // most ops queued for a connection
  double pacerCpuS = 0;
  double clientCpuS = 0;
  double processCpuS = 0;
  bool complete = true;         // every op finished before the deadline

  [[nodiscard]] size_t failures() const;
  // Over the requests due within [fromS, toS].
  [[nodiscard]] Latency latency(double fromS = -1, double toS = 1e18) const;
  [[nodiscard]] uint64_t bodyBytes() const;
};

// Pins the calling thread, and the threads it starts later, to `cpu`;
// false when cpu < 0 or the kernel refuses.
bool pinCurrentThread(int cpu);

// Judges one probe of the rate search: it passes when every request
// succeeded, the p99 is within `sloMs`, and the backlog did not grow:
// the last request finished within `sloMs` of the last due time. (A
// queue growing by x% of the offered rate leaves x% of the probe's
// length to drain at its end.)
StepResult judgeStep(const PhaseResult& r, double rate, double sloMs);

class Generator {
 public:
  struct Options {
    SocketAddr entry;
    size_t conns = 4;       // keep-alive connections for short requests
    size_t pacedConns = 0;  // extra connections that carry paced uploads
    Duration timeout = Duration{3000};
  };
  // Runs on the client loop for kMqttPublish / kQuicSend ops.
  using SideFn = std::function<void(const Op&)>;

  explicit Generator(Options opts);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  [[nodiscard]] EventLoop& loop() { return thread_.loop(); }
  void runSync(EventLoop::Callback fn) { thread_.runSync(std::move(fn)); }
  void setSideHandler(SideFn fn);
  // CPU seconds of the client loop thread so far.
  [[nodiscard]] double clientCpuSeconds();

  // Plays `ops` open-loop and blocks until each HTTP op has finished
  // (or `deadlineSlack` after the last due time has passed).
  PhaseResult run(const std::vector<Op>& ops,
                  Duration deadlineSlack = Duration{10000});

 private:
  struct Slot {
    std::shared_ptr<http::Client> client;
    bool busy = false;
    bool paced = false;
  };

  void onRelease(const std::vector<std::pair<uint32_t, double>>& batch,
                 bool last);
  void finishRun();
  void dispatch();
  void issue(size_t slotIdx, uint32_t opIdx);
  void onDone(size_t slotIdx, uint32_t opIdx, http::Client::Result r);

  Options opts_;
  SideFn side_;
  std::vector<Slot> slots_;

  // Per-run state, confined to the client loop while a run is active.
  const std::vector<Op>* ops_ = nullptr;
  TimePoint t0_{};
  std::vector<uint32_t> pending_;       // FIFO of short ops (head index)
  size_t pendingHead_ = 0;
  std::vector<uint32_t> pacedPending_;
  size_t pacedHead_ = 0;
  std::vector<int32_t> sampleOf_;       // op index -> sample index
  PhaseResult result_;
  size_t httpOps_ = 0;
  size_t finished_ = 0;
  bool lastReleased_ = false;
  bool dispatchQueued_ = false;

  std::mutex doneMutex_;
  std::condition_variable doneCv_;
  bool done_ = false;

  // Last, so the loop thread stops before the state it uses goes.
  EventLoopThread thread_;
};

}  // namespace perfbench
