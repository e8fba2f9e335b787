// Self-tests of the benchmark's generator, checks and rate search.
// Fake servers are real AppServers on their own loop with a handler
// that misbehaves on purpose.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "appserver/app_server.h"
#include "loadgen.h"
#include "netcore/socket.h"
#include "stats.h"

namespace perfbench {
namespace {

using zdr::appserver::AppServer;

// An AppServer on its own loop thread, with a test-chosen handler.
class FakeServer {
 public:
  explicit FakeServer(AppServer::Handler h) : thread_("fake") {
    thread_.runSync([&] {
      server_ = std::make_unique<AppServer>(thread_.loop(),
                                            SocketAddr::loopback(0),
                                            AppServer::Options{});
      server_->setHandler(std::move(h));
    });
  }
  ~FakeServer() {
    thread_.runSync([this] { server_.reset(); });
  }
  [[nodiscard]] SocketAddr addr() const { return server_->localAddr(); }

 private:
  EventLoopThread thread_;
  std::unique_ptr<AppServer> server_;
};

void okHandler(const http::Request& req, http::Response& res) {
  res.body = "ok:" + req.path;
}

// Spins for `us` on the calling thread: a service time that occupies
// the server's loop the way real work would.
void spin(std::chrono::microseconds us) {
  const auto end = Clock::now() + us;
  while (Clock::now() < end) {
  }
}

TEST(Schedule, SameSeedSameArrivalsPathsAndSizes) {
  const auto a = poissonSchedule(42, Mix::kBulk, 300, 3.0);
  const auto b = poissonSchedule(42, Mix::kBulk, 300, 3.0);
  const auto c = poissonSchedule(43, Mix::kBulk, 300, 3.0);
  ASSERT_GT(a.size(), 600u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dueS, b[i].dueS);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(opPath(a[i]), opPath(b[i]));
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_GE(a[i].size, kBulkMinBytes);
    EXPECT_LE(a[i].size, kBulkMaxBytes);
  }
  EXPECT_NE(opPath(a[0]) + opPath(a[1]), opPath(c[0]) + opPath(c[1]));
}

TEST(Generator, StallIsChargedToRequestsQueuedBehindIt) {
  // The server freezes for 150 ms on one key; requests that fall due
  // during the freeze wait for it, and their latency from due time must
  // show that wait even though they were sent late.
  constexpr uint32_t kStallKey = 777;
  FakeServer server([](const http::Request& req, http::Response& res) {
    if (req.path == "/api/777") {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    okHandler(req, res);
  });
  Generator::Options o;
  o.entry = server.addr();
  Generator gen(o);
  std::vector<Op> ops = periodicSchedule(1, OpKind::kApiGet, 500, 1.0);
  const size_t stallIdx = ops.size() / 2;
  ops[stallIdx].key = kStallKey;
  const PhaseResult r = gen.run(ops);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.failures(), 0u);
  const double stallDue = ops[stallIdx].dueS;
  size_t behind = 0;
  for (const Sample& s : r.samples) {
    const double sinceStallMs = (s.dueS - stallDue) * 1000;
    if (sinceStallMs > 1 && sinceStallMs < 100) {
      // Due inside the freeze: done no earlier than its end.
      EXPECT_GE(s.latencyMs, 150 - sinceStallMs - 5) << "due +" << sinceStallMs;
      ++behind;
    } else if (sinceStallMs < -50 || sinceStallMs > 400) {
      EXPECT_LT(s.latencyMs, 100) << "due +" << sinceStallMs;
    }
  }
  EXPECT_GE(behind, 40u);
}

TEST(Generator, BadResponsesCountAsFailures) {
  FakeServer wrongBody([](const http::Request& req, http::Response& res) {
    res.body = "ok:" + req.path + "x";
  });
  FakeServer shortBody([](const http::Request& req, http::Response& res) {
    res.body = ("ok:" + req.path).substr(0, 4);
  });
  FakeServer shortBulk([](const http::Request& req, http::Response& res) {
    (void)req;
    res.body = std::string(patternSlice(5, kBulkMinBytes - 1));
  });
  FakeServer serverError([](const http::Request&, http::Response& res) {
    res.status = 503;
    res.body = "unavailable";
  });
  FakeServer ppr379([](const http::Request&, http::Response& res) {
    res.status = 379;  // a partial-post replay must never reach a user
    res.reason = "Partial POST Replay";
  });
  // A port nobody listens on: bind, learn it, close it.
  SocketAddr refused;
  {
    zdr::TcpListener l(SocketAddr::loopback(0));
    refused = l.localAddr();
  }
  // A listener that never accepts: the kernel completes the handshake,
  // nobody answers.
  zdr::TcpListener mute(SocketAddr::loopback(0));

  struct Case {
    SocketAddr addr;
    Op op;
    Failure expected;
  };
  Op api;
  api.key = 5;
  Op bulk;
  bulk.kind = OpKind::kBulkGet;
  bulk.key = 5;
  bulk.size = kBulkMinBytes;
  const Case cases[] = {
      {wrongBody.addr(), api, Failure::kWrongBody},
      {shortBody.addr(), api, Failure::kWrongBody},
      {shortBulk.addr(), bulk, Failure::kWrongBody},
      {serverError.addr(), api, Failure::kServerError},
      {ppr379.addr(), api, Failure::kBadStatus},
      {refused, api, Failure::kRefused},
      {mute.localAddr(), api, Failure::kTimeout},
  };
  for (const Case& c : cases) {
    Generator::Options o;
    o.entry = c.addr;
    o.timeout = Duration{300};
    Generator gen(o);
    const PhaseResult r = gen.run({c.op});
    ASSERT_EQ(r.samples.size(), 1u);
    EXPECT_EQ(r.samples[0].failure, c.expected)
        << "expected " << failureName(c.expected) << ", got "
        << failureName(r.samples[0].failure);
    EXPECT_EQ(r.failures(), 1u);
    // A failure also fails any latency limit.
    EXPECT_FALSE(judgeStep(r, 1, 1e9).pass);
  }
}

TEST(RateSearch, ConvergesOnTheKneeOfADeterministicProbe) {
  auto probe = [](double rate) {
    StepResult s;
    s.rate = rate;
    s.pass = rate <= 1234;
    return s;
  };
  // The staircase steps 4% either side of the knee, so its estimate
  // lies within one step of it.
  std::vector<StepResult> trail;
  const double up = findKnee(300, 14, 1.4, 1.04, probe, &trail);
  EXPECT_EQ(trail.size(), 14u);
  EXPECT_GT(up, 1234 / 1.04);
  EXPECT_LT(up, 1234 * 1.04);
  const double down = findKnee(5000, 14, 1.4, 1.04, probe);
  EXPECT_GT(down, 1234 / 1.04);
  EXPECT_LT(down, 1234 * 1.04);
}

TEST(RateSearch, OneSpoiledProbeMovesTheKneeByOneStep) {
  // The same knee, but the first probe at a passing rate once the
  // staircase has walked down to it (1212 req/s) fails as if a stall of
  // the machine had hit it.
  int n = 0;
  auto probe = [&n](double rate) {
    StepResult s;
    s.rate = rate;
    s.pass = rate <= 1234 && n != 9;
    ++n;
    return s;
  };
  const double knee = findKnee(300, 14, 1.4, 1.04, probe);
  EXPECT_GT(knee, 1234 / 1.04 / 1.04);
  EXPECT_LT(knee, 1234 * 1.04);
}

TEST(RateSearch, FindsTheKneeOfAFixedServiceTimeServer) {
  // One loop thread at 1 ms per request serves at most 1000 req/s. A
  // 1.5 s probe cannot tell a few percent of overload from none (the
  // queue grows too little), so the search may land just past 1000.
  FakeServer server([](const http::Request& req, http::Response& res) {
    spin(std::chrono::microseconds(1000));
    okHandler(req, res);
  });
  Generator::Options o;
  o.entry = server.addr();
  Generator gen(o);
  uint64_t seed = 0;
  auto probe = [&](double rate) {
    const auto ops = poissonSchedule(++seed, Mix::kApi, rate, 1.5);
    return judgeStep(gen.run(ops), rate, 100);
  };
  const double knee = findKnee(400, 10, 1.4, 1.04, probe);
  EXPECT_GT(knee, 600);
  EXPECT_LT(knee, 1050);
}

}  // namespace
}  // namespace perfbench
