#include "ledger.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "h2/frame.h"
#include "http/codec.h"
#include "netcore/event_loop.h"

namespace perfbench {

using namespace zdr;

namespace {

using Ns = std::chrono::nanoseconds;

double nsSince(TimePoint t0) {
  return static_cast<double>(
      std::chrono::duration_cast<Ns>(Clock::now() - t0).count());
}

// Caps the bytes of bodies one codec timing walks through, so a bulk
// schedule times a few hundred messages rather than gigabytes.
constexpr uint64_t kCodecByteBudget = 64ULL << 20;
constexpr size_t kCodecMaxOps = 4000;

http::Request requestFor(const Op& op) {
  http::Request req;
  req.path = opPath(op);
  req.headers.set("Host", "testbed");
  if (op.kind == OpKind::kUpload) {
    req.method = "POST";
    req.body = std::string(patternSlice(op.key, op.size));
  }
  return req;
}

http::Response responseFor(const Op& op) {
  http::Response res;
  switch (op.kind) {
    case OpKind::kBulkGet:
      res.body = std::string(patternSlice(op.key, op.size));
      break;
    case OpKind::kUpload:
      res.body = uploadReply(patternSlice(op.key, op.size));
      break;
    default:
      res.body = "ok:" + opPath(op);
  }
  return res;
}

template <typename Fn>
void forBudgetedOps(const std::vector<Op>& ops, Fn&& fn) {
  uint64_t bytes = 0;
  size_t n = 0;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kMqttPublish || op.kind == OpKind::kQuicSend ||
        op.kind == OpKind::kPacedUpload) {
      continue;
    }
    if (n >= kCodecMaxOps || bytes > kCodecByteBudget) {
      break;
    }
    fn(op);
    bytes += op.size;
    ++n;
  }
}

void encodeData(h2::Frame& f, Buffer& out, uint32_t sid, std::string_view body,
                size_t chunk) {
  while (!body.empty()) {
    const size_t n = std::min(body.size(), chunk);
    f.type = h2::FrameType::kData;
    f.streamId = sid;
    f.flags = n == body.size() ? h2::kFlagEndStream : 0;
    f.payload.assign(body.substr(0, n));
    h2::encodeFrame(f, out);
    body.remove_prefix(n);
  }
}

}  // namespace

TimerCost timeTimers(size_t standing) {
  constexpr size_t kOps = 20000;
  std::vector<double> arm;
  std::vector<double> cancel;
  EventLoopThread t("perfbench.timers");
  t.runSync([&] {
    EventLoop& loop = t.loop();
    std::vector<EventLoop::TimerId> bg;
    bg.reserve(standing);
    // Deadlines 10–70 s out: none fires while timed.
    for (size_t i = 0; i < standing; ++i) {
      bg.push_back(loop.runAfter(Duration{10000 + static_cast<int64_t>(i % 60000)},
                                 [] {}));
    }
    std::vector<EventLoop::TimerId> ids(kOps);
    for (int rep = 0; rep < 5; ++rep) {
      TimePoint t0 = Clock::now();
      for (size_t i = 0; i < kOps; ++i) {
        ids[i] = loop.runAfter(Duration{10000 + static_cast<int64_t>((i * 7919) % 60000)},
                               [] {});
      }
      arm.push_back(nsSince(t0) / kOps);
      t0 = Clock::now();
      for (auto id : ids) {
        loop.cancelTimer(id);
      }
      cancel.push_back(nsSince(t0) / kOps);
    }
    for (auto id : bg) {
      loop.cancelTimer(id);
    }
  });
  return {median(arm), median(cancel)};
}

double echoRttUs() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (lfd >= 0) {
      ::close(lfd);
    }
    return 0;
  }
  std::thread echo([lfd] {
    const int c = ::accept(lfd, nullptr, nullptr);
    if (c < 0) {
      return;
    }
    const int one = 1;
    ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char b = 0;
    while (::read(c, &b, 1) == 1 && ::write(c, &b, 1) == 1) {
    }
    ::close(c);
  });
  std::vector<double> rtt;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char b = 'x';
    for (int i = 0; i < 2000; ++i) {
      const TimePoint t0 = Clock::now();
      if (::write(fd, &b, 1) != 1 || ::read(fd, &b, 1) != 1) {
        break;
      }
      rtt.push_back(nsSince(t0) / 1000.0);
    }
  }
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  } else {
    ::shutdown(lfd, SHUT_RDWR);  // unblocks the accept
  }
  echo.join();
  ::close(lfd);
  return median(rtt);
}

double timeHttpCodec(const std::vector<Op>& ops) {
  double ns = 0;
  size_t n = 0;
  forBudgetedOps(ops, [&](const Op& op) {
    const http::Request req = requestFor(op);
    const http::Response res = responseFor(op);
    const TimePoint t0 = Clock::now();
    Buffer wire;
    http::serialize(req, wire);
    http::RequestParser rp;
    rp.feed(wire);
    Buffer wire2;
    http::serialize(res, wire2);
    http::ResponseParser sp;
    sp.feed(wire2);
    ns += nsSince(t0);
    ++n;
  });
  return n == 0 ? 0 : ns / static_cast<double>(n);
}

H2Cost timeH2Codec(const std::vector<Op>& ops) {
  double ns = 0;
  double bodyBytes = 0;
  size_t n = 0;
  forBudgetedOps(ops, [&](const Op& op) {
    const http::Request req = requestFor(op);
    const http::Response res = responseFor(op);
    const TimePoint t0 = Clock::now();
    Buffer wire;
    h2::Frame f;
    h2::HeaderList rh{{":method", req.method}, {":path", req.path}};
    for (const auto& h : req.headers.all()) {
      rh.push_back(h);
    }
    f.type = h2::FrameType::kHeaders;
    f.streamId = 1;
    f.flags = req.body.empty() ? h2::kFlagEndStream : 0;
    f.payload = h2::encodeHeaderBlock(rh);
    h2::encodeFrame(f, wire);
    // Upload bodies cross the trunk as the fragments the edge reads.
    encodeData(f, wire, 1, req.body, 64 * 1024);
    h2::HeaderList sh{{":status", "200"},
                      {"Content-Length", std::to_string(res.body.size())}};
    f.type = h2::FrameType::kHeaders;
    f.flags = 0;
    f.payload = h2::encodeHeaderBlock(sh);
    h2::encodeFrame(f, wire);
    encodeData(f, wire, 1, res.body, 256 * 1024);
    bool malformed = false;
    while (auto fr = h2::decodeFrame(wire, malformed)) {
      if (fr->type == h2::FrameType::kHeaders) {
        (void)h2::decodeHeaderBlock(fr->payload);
      }
    }
    ns += nsSince(t0);
    bodyBytes += static_cast<double>(req.body.size() + res.body.size());
    ++n;
  });
  H2Cost c;
  if (n > 0) {
    c.nsPerReq = ns / static_cast<double>(n);
    c.nsPerMb = bodyBytes > 0 ? ns / (bodyBytes / 1e6) : 0;
  }
  return c;
}

}  // namespace perfbench
