#include "loadgen.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "metrics/metrics.h"

namespace perfbench {

using namespace zdr;

namespace {

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TimePoint dueAt(TimePoint t0, double dueS) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(dueS));
}

double msBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Sleeps until `t` on CLOCK_MONOTONIC, the clock steady_clock reads.
void sleepUntil(TimePoint t) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

bool isSideOp(OpKind k) {
  return k == OpKind::kMqttPublish || k == OpKind::kQuicSend;
}

}  // namespace

const char* failureName(Failure f) {
  switch (f) {
    case Failure::kNone:
      return "none";
    case Failure::kRefused:
      return "refused";
    case Failure::kTimeout:
      return "timeout";
    case Failure::kServerError:
      return "5xx";
    case Failure::kBadStatus:
      return "bad_status";
    case Failure::kWrongBody:
      return "wrong_body";
  }
  return "?";
}

size_t PhaseResult::failures() const {
  return static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [](const Sample& s) { return s.failure != Failure::kNone; }));
}

Latency PhaseResult::latency(double fromS, double toS) const {
  std::vector<double> v;
  for (const auto& s : samples) {
    if (s.kind == OpKind::kPacedUpload || s.failure != Failure::kNone ||
        s.dueS < fromS || s.dueS > toS) {
      continue;
    }
    v.push_back(s.latencyMs);
  }
  Latency l;
  l.n = v.size();
  std::vector<double> groupP99;
  for (size_t g = 0; g < kP99Groups && v.size() >= kP99Groups; ++g) {
    std::vector<double> part(
        v.begin() + static_cast<std::ptrdiff_t>(g * v.size() / kP99Groups),
        v.begin() + static_cast<std::ptrdiff_t>((g + 1) * v.size() / kP99Groups));
    groupP99.push_back(quantile(part, 0.99));
  }
  l.p99 = median(groupP99);
  l.p50 = quantile(v, 0.5);
  l.p90 = quantile(v, 0.9);
  l.p99Whole = quantile(v, 0.99);
  l.p999 = quantile(v, 0.999);
  return l;
}

uint64_t PhaseResult::bodyBytes() const {
  uint64_t n = 0;
  for (const auto& s : samples) {
    n += s.bodyBytes;
  }
  return n;
}

bool pinCurrentThread(int cpu) {
  if (cpu < 0) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

StepResult judgeStep(const PhaseResult& r, double rate, double sloMs) {
  StepResult s;
  s.rate = rate;
  s.p99Ms = r.latency().p99;
  const double drainMs = (r.wallS - r.scheduleS) * 1000;
  s.pass = r.complete && r.failures() == 0 && s.p99Ms <= sloMs &&
           drainMs <= sloMs;
  return s;
}

Generator::Generator(Options opts) : opts_(std::move(opts)), thread_("perfbench.client") {
  thread_.runSync([this] {
    const size_t n = opts_.conns + opts_.pacedConns;
    for (size_t i = 0; i < n; ++i) {
      Slot s;
      s.client = http::Client::make(thread_.loop(), opts_.entry);
      s.paced = i >= opts_.conns;
      slots_.push_back(std::move(s));
    }
  });
}

Generator::~Generator() {
  thread_.runSync([this] {
    for (auto& s : slots_) {
      s.client->close();
    }
    slots_.clear();
    side_ = nullptr;
  });
}

void Generator::setSideHandler(SideFn fn) {
  thread_.runSync([this, &fn] { side_ = std::move(fn); });
}

double Generator::clientCpuSeconds() {
  double cpu = 0;
  thread_.runSync([&cpu] { cpu = threadCpuSeconds(); });
  return cpu;
}

PhaseResult Generator::run(const std::vector<Op>& ops, Duration deadlineSlack) {
  // Start slightly in the future so the first ops are not born late.
  const TimePoint t0 = Clock::now() + std::chrono::milliseconds(20);
  const double scheduleS = ops.empty() ? 0 : ops.back().dueS;
  thread_.runSync([this, &ops, t0, scheduleS] {
    ops_ = &ops;
    t0_ = t0;
    result_ = PhaseResult{};
    result_.scheduleS = scheduleS;
    pending_.clear();
    pendingHead_ = 0;
    pacedPending_.clear();
    pacedHead_ = 0;
    sampleOf_.assign(ops.size(), -1);
    httpOps_ = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!isSideOp(ops[i].kind)) {
        sampleOf_[i] = static_cast<int32_t>(httpOps_++);
        Sample s;
        s.dueS = ops[i].dueS;
        s.kind = ops[i].kind;
        result_.samples.push_back(s);
      }
    }
    finished_ = 0;
    lastReleased_ = false;
    dispatchQueued_ = false;
  });
  {
    std::lock_guard<std::mutex> lock(doneMutex_);
    done_ = false;
  }
  const double proc0 = processCpuSeconds();
  const double client0 = clientCpuSeconds();

  double pacerCpu = 0;
  std::thread pacer([this, &ops, t0, &pacerCpu] {
    const double cpu0 = threadCpuSeconds();
    size_t i = 0;
    while (i < ops.size()) {
      sleepUntil(dueAt(t0, ops[i].dueS));
      const TimePoint now = Clock::now();
      std::vector<std::pair<uint32_t, double>> batch;
      while (i < ops.size() && dueAt(t0, ops[i].dueS) <= now) {
        batch.emplace_back(static_cast<uint32_t>(i),
                           msBetween(dueAt(t0, ops[i].dueS), now));
        ++i;
      }
      const bool last = i == ops.size();
      thread_.loop().runInLoop(
          [this, b = std::move(batch), last] { onRelease(b, last); },
          "perfbench.release");
    }
    if (ops.empty()) {
      thread_.loop().runInLoop([this] { onRelease({}, true); },
                               "perfbench.release");
    }
    pacerCpu = threadCpuSeconds() - cpu0;
  });

  const TimePoint deadline = dueAt(t0, scheduleS) + deadlineSlack;
  bool complete = false;
  {
    std::unique_lock<std::mutex> lock(doneMutex_);
    complete = doneCv_.wait_until(lock, deadline, [this] { return done_; });
  }
  pacer.join();

  PhaseResult out;
  thread_.runSync([this, &out, complete] {
    if (!complete) {
      // Abandon what is still in flight: fresh clients, and the old
      // ones' late callbacks see a cleared run.
      for (auto& s : slots_) {
        s.client->close();
        s.client = http::Client::make(thread_.loop(), opts_.entry);
        s.busy = false;
      }
    }
    ops_ = nullptr;
    out = std::move(result_);
  });
  out.t0 = t0;
  if (!complete) {
    out.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  out.complete = complete;
  out.pacerCpuS = pacerCpu;
  out.clientCpuS = clientCpuSeconds() - client0;
  out.processCpuS = processCpuSeconds() - proc0;
  return out;
}

void Generator::onRelease(
    const std::vector<std::pair<uint32_t, double>>& batch, bool last) {
  if (ops_ == nullptr) {
    return;
  }
  for (const auto& [idx, lagMs] : batch) {
    const Op& op = (*ops_)[idx];
    if (isSideOp(op.kind)) {
      if (side_) {
        side_(op);
      }
      continue;
    }
    result_.samples[static_cast<size_t>(sampleOf_[idx])].lagMs = lagMs;
    if (op.kind == OpKind::kPacedUpload && opts_.pacedConns > 0) {
      pacedPending_.push_back(idx);
    } else {
      pending_.push_back(idx);
    }
  }
  dispatch();
  const size_t queued =
      (pending_.size() - pendingHead_) + (pacedPending_.size() - pacedHead_);
  result_.backlogMax = std::max(result_.backlogMax, queued);
  if (last) {
    // Whichever comes second, the last release or the last completion,
    // ends the run.
    lastReleased_ = true;
    if (finished_ == httpOps_) {
      finishRun();
    }
  }
}

void Generator::finishRun() {
  result_.wallS = std::chrono::duration<double>(Clock::now() - t0_).count();
  std::lock_guard<std::mutex> lock(doneMutex_);
  done_ = true;
  doneCv_.notify_all();
}

void Generator::dispatch() {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.busy) {
      continue;
    }
    auto& q = s.paced ? pacedPending_ : pending_;
    size_t& head = s.paced ? pacedHead_ : pendingHead_;
    if (head == q.size()) {
      continue;
    }
    issue(i, q[head++]);
  }
}

void Generator::issue(size_t slotIdx, uint32_t opIdx) {
  Slot& s = slots_[slotIdx];
  s.busy = true;
  const Op& op = (*ops_)[opIdx];
  auto client = s.client;
  auto cb = [this, slotIdx, opIdx, client](http::Client::Result r) {
    // A callback from a client abandoned by an incomplete run.
    if (ops_ == nullptr || slots_[slotIdx].client != client) {
      return;
    }
    onDone(slotIdx, opIdx, std::move(r));
  };
  if (op.kind == OpKind::kPacedUpload) {
    client->pacedPost(opPath(op), kPacedChunks, kPacedChunkBytes, kPacedInterval,
                      std::move(cb),
                      opts_.timeout + kPacedInterval * static_cast<int64_t>(kPacedChunks));
    return;
  }
  http::Request req;
  req.path = opPath(op);
  if (op.kind == OpKind::kUpload) {
    req.method = "POST";
    req.body = std::string(patternSlice(op.key, op.size));
  }
  client->request(std::move(req), std::move(cb), opts_.timeout);
}

void Generator::onDone(size_t slotIdx, uint32_t opIdx, http::Client::Result r) {
  const Op& op = (*ops_)[opIdx];
  Sample& s = result_.samples[static_cast<size_t>(sampleOf_[opIdx])];
  s.latencyMs = msBetween(dueAt(t0_, op.dueS), Clock::now());
  if (r.timedOut) {
    s.failure = Failure::kTimeout;
  } else if (r.transportError) {
    s.failure = Failure::kRefused;
  } else if (r.response.status >= 500) {
    s.failure = Failure::kServerError;
  } else if (!r.ok || r.response.status != 200) {
    s.failure = Failure::kBadStatus;
  } else if (!bodyMatches(op, r.response.body)) {
    s.failure = Failure::kWrongBody;
  } else {
    s.bodyBytes = r.response.body.size();
    if (op.kind == OpKind::kUpload) {
      s.bodyBytes += op.size;
    } else if (op.kind == OpKind::kPacedUpload) {
      s.bodyBytes += kPacedChunks * kPacedChunkBytes;
    }
  }
  slots_[slotIdx].busy = false;
  ++finished_;
  if (lastReleased_ && finished_ == httpOps_) {
    finishRun();
    return;
  }
  // Issue the next op after the client has unwound from this callback.
  if (!dispatchQueued_) {
    dispatchQueued_ = true;
    thread_.loop().runAtEnd(
        [this] {
          dispatchQueued_ = false;
          if (ops_ != nullptr) {
            dispatch();
          }
        },
        "perfbench.dispatch");
  }
}

}  // namespace perfbench
