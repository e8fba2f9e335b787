#include "fleet.h"

#include <condition_variable>
#include <cstdlib>
#include <mutex>

#include "metrics/metrics.h"
#include "stats.h"

namespace perfbench {

using namespace zdr;

void runOn(EventLoop& loop, const std::function<void()>& fn) {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  loop.runInLoop(
      [&] {
        fn();
        std::lock_guard<std::mutex> lock(m);
        done = true;
        cv.notify_one();
      },
      "perfbench.sample");
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
}

Fleet::Fleet(const FleetSpec& spec) : spec_(spec) {
  core::TestbedOptions o;
  o.edges = spec.edges;
  o.origins = spec.origins;
  o.appServers = spec.apps;
  o.brokers = spec.mqtt ? 1 : 0;
  o.enableMqtt = spec.mqtt;
  o.enableQuic = spec.quic;
  o.enableL4 = false;  // stood up below, where the benchmark can reach it
  o.httpWorkers = 1;
  o.trunkWorkers = 1;
  tb_ = std::make_unique<core::Testbed>(o);

  l4_ = std::make_unique<core::L4Host>("l4", &tb_->metrics());
  std::vector<l4lb::BackendTarget> http;
  std::vector<l4lb::UdpForwarder::Backend> udp;
  for (size_t i = 0; i < tb_->edgeCount(); ++i) {
    auto& e = tb_->edge(i);
    http.push_back({e.hostName(), e.httpVip()});
    if (spec.quic) {
      udp.push_back({e.hostName() + "-quic", e.quicVip()});
    }
  }
  httpVip_ = l4_->addVip("http", std::move(http), o.l4Options);
  if (spec.quic) {
    quicVip_ = l4_->addUdpVip("quic", std::move(udp), {});
  }
}

Fleet::~Fleet() {
  l4_.reset();  // front tier first, as the Testbed does
  tb_.reset();
}

void Fleet::forEachLoop(const std::function<void(EventLoop&)>& fn) {
  for (size_t i = 0; i < tb_->edgeCount(); ++i) {
    fn(tb_->edge(i).loop());
  }
  for (size_t i = 0; i < tb_->originCount(); ++i) {
    fn(tb_->origin(i).loop());
  }
  for (size_t i = 0; i < tb_->appCount(); ++i) {
    fn(tb_->app(i).loop());
  }
}

std::map<std::string, double> Fleet::hostCpu() {
  std::map<std::string, double> out;
  l4_->withBalancer("http", [&](l4lb::L4Balancer&) {
    out["l4"] = threadCpuSeconds();
  });
  for (size_t i = 0; i < tb_->edgeCount(); ++i) {
    out["edge." + std::to_string(i)] = tb_->edge(i).hostCpuSeconds();
  }
  for (size_t i = 0; i < tb_->originCount(); ++i) {
    out["origin." + std::to_string(i)] = tb_->origin(i).hostCpuSeconds();
  }
  for (size_t i = 0; i < tb_->appCount(); ++i) {
    double cpu = 0;
    runOn(tb_->app(i).loop(), [&cpu] { cpu = threadCpuSeconds(); });
    out["app." + std::to_string(i)] = cpu;
  }
  if (spec_.mqtt) {
    double cpu = 0;
    tb_->broker(0).withBroker([&cpu](mqtt::Broker&) { cpu = threadCpuSeconds(); });
    out["broker.0"] = cpu;
  }
  return out;
}

EngineSample Fleet::engineSum() {
  EngineSample sum;
  forEachLoop([&sum](EventLoop& loop) {
    runOn(loop, [&] {
      const EngineSample s = loop.engineSample();
      sum.backend = s.backend;
      sum.timerImpl = s.timerImpl;
      sum.io.waitSyscalls += s.io.waitSyscalls;
      sum.io.opSyscalls += s.io.opSyscalls;
      sum.timers.armed += s.timers.armed;
      sum.timers.cancelled += s.timers.cancelled;
      sum.timers.fired += s.timers.fired;
    });
  });
  return sum;
}

size_t Fleet::standingTimers() {
  size_t n = 0;
  forEachLoop([&n](EventLoop& loop) {
    runOn(loop, [&] { n += loop.activeTimerCount(); });
  });
  return n;
}

void Fleet::installBulkHandler() {
  auto handler = [](const http::Request& req, http::Response& res) {
    res.status = 200;
    const std::string& p = req.path;
    if (p.rfind("/bulk/", 0) == 0) {
      const size_t slash = p.find('/', 6);
      const auto size = static_cast<uint32_t>(
          std::strtoul(p.substr(6, slash - 6).c_str(), nullptr, 10));
      const auto key = static_cast<uint32_t>(
          std::strtoul(p.substr(slash + 1).c_str(), nullptr, 10));
      res.body = std::string(patternSlice(key, size));
    } else if (p.rfind("/up/", 0) == 0) {
      res.body = uploadReply(req.body);
    } else {
      res.body = "ok:" + p;
    }
  };
  for (size_t i = 0; i < tb_->appCount(); ++i) {
    tb_->app(i).withServer([&](appserver::AppServer* s) {
      if (s != nullptr) {
        s->setHandler(handler);
      }
    });
  }
}

}  // namespace perfbench
