#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

namespace perfbench {

namespace {

// Uniform in [0, 1) from the top 53 bits; independent of the standard
// library's distribution implementations.
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double exponential(std::mt19937_64& rng, double rate) {
  return -std::log1p(-unit(rng)) / rate;
}

// 2 MiB so any (offset < 1 MiB, size <= 1 MiB) slice fits.
const std::string& pattern() {
  static const std::string p = [] {
    std::string s(2 * kBulkMaxBytes, '\0');
    std::mt19937_64 rng(0x5eedULL);
    for (size_t i = 0; i < s.size(); i += 8) {
      const uint64_t v = rng();
      for (size_t j = 0; j < 8; ++j) {
        // Printable, so a body dump stays readable.
        s[i + j] = static_cast<char>('a' + ((v >> (8 * j)) & 0xff) % 26);
      }
    }
    return s;
  }();
  return p;
}

// Fisher-Yates with the benchmark's own draws, so the order depends on
// the seed alone.
template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng() % i]);
  }
}

}  // namespace

std::vector<Op> poissonSchedule(uint64_t seed, Mix mix, double rate,
                                double seconds) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  for (double t = exponential(rng, rate); t < seconds; t += exponential(rng, rate)) {
    Op op;
    op.dueS = t;
    op.key = static_cast<uint32_t>(rng() % 1000000007ULL);
    ops.push_back(op);
  }
  if (mix == Mix::kBulk) {
    // Stratified, then shuffled: every schedule of n ops carries the
    // same log-uniform size mix and the same GET/upload split, so runs
    // with different seeds differ in order and timing, not in how much
    // work they hold.
    const size_t n = ops.size();
    const double lo = std::log(static_cast<double>(kBulkMinBytes));
    const double hi = std::log(static_cast<double>(kBulkMaxBytes));
    std::vector<uint32_t> sizes(n);
    std::vector<OpKind> kinds(n);
    for (size_t i = 0; i < n; ++i) {
      const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
      sizes[i] = std::clamp(static_cast<uint32_t>(std::exp(lo + (hi - lo) * u)),
                            kBulkMinBytes, kBulkMaxBytes);
      kinds[i] = i % 2 == 0 ? OpKind::kBulkGet : OpKind::kUpload;
    }
    shuffle(sizes, rng);
    shuffle(kinds, rng);
    for (size_t i = 0; i < n; ++i) {
      ops[i].kind = kinds[i];
      ops[i].size = sizes[i];
    }
  }
  return ops;
}

std::vector<Op> periodicSchedule(uint64_t seed, OpKind kind, double rate,
                                 double seconds) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  const double gap = 1.0 / rate;
  for (double t = gap / 2; t < seconds; t += gap) {
    Op op;
    op.dueS = t;
    op.kind = kind;
    op.key = static_cast<uint32_t>(rng() % 1000000007ULL);
    ops.push_back(op);
  }
  return ops;
}

std::vector<Op> mergeSchedules(std::vector<std::vector<Op>> parts) {
  std::vector<Op> all;
  for (auto& p : parts) {
    all.insert(all.end(), p.begin(), p.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Op& a, const Op& b) {
    return a.dueS < b.dueS;
  });
  return all;
}

std::string_view patternSlice(uint32_t key, uint32_t size) {
  const std::string& p = pattern();
  const size_t off = (static_cast<size_t>(key) * 4099) % kBulkMaxBytes;
  return std::string_view(p).substr(off, std::min<size_t>(size, kBulkMaxBytes));
}

uint64_t checksum(std::string_view data) {
  // Word-at-a-time FNV-style mix: cheap enough for 1 MiB bodies on the
  // app and generator threads, and order-sensitive.
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ data.size();
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001b3ULL;
  }
  return h;
}

std::string uploadReply(std::string_view body) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "len:%zu sum:%016llx", body.size(),
                static_cast<unsigned long long>(checksum(body)));
  return buf;
}

std::string opPath(const Op& op) {
  switch (op.kind) {
    case OpKind::kApiGet:
      return "/api/" + std::to_string(op.key);
    case OpKind::kBulkGet:
      return "/bulk/" + std::to_string(op.size) + "/" + std::to_string(op.key);
    case OpKind::kUpload:
      return "/up/" + std::to_string(op.key);
    case OpKind::kPacedUpload:
      return "/upload/" + std::to_string(op.key);
    default:
      return {};
  }
}

bool bodyMatches(const Op& op, std::string_view body) {
  switch (op.kind) {
    case OpKind::kApiGet:
    case OpKind::kPacedUpload:
      return body == "ok:" + opPath(op);
    case OpKind::kBulkGet:
      return body == patternSlice(op.key, op.size);
    case OpKind::kUpload:
      return body == uploadReply(patternSlice(op.key, op.size));
    default:
      return true;
  }
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double findKnee(double start, int steps, double grow, double fine,
                const std::function<StepResult(double)>& probe,
                std::vector<StepResult>* trail) {
  std::vector<StepResult> probes;
  double lo = 0;  // highest passing rate of the walk
  double hi = 0;  // lowest failing rate of the walk
  size_t stair = 0;  // index of the staircase's first probe, 0 while walking
  double rate = start;
  for (int i = 0; i < steps; ++i) {
    const StepResult r = probe(rate);
    probes.push_back(r);
    if (trail != nullptr) {
      trail->push_back(r);
    }
    if (stair == 0) {
      if (r.pass) {
        lo = std::max(lo, rate);
      } else {
        hi = hi == 0 ? rate : std::min(hi, rate);
      }
      if (hi == 0) {
        rate = lo * grow;  // still walking up
      } else if (lo == 0) {
        rate = hi / grow;  // still walking down
      } else {
        rate = std::sqrt(lo * hi);
        stair = probes.size();
      }
    } else {
      rate = r.pass ? rate * fine : rate / fine;
    }
  }
  double best = 0;
  for (const auto& p : probes) {
    if (p.pass) {
      best = std::max(best, p.rate);
    }
  }
  if (stair == 0) {
    return best;
  }
  for (size_t i = stair + 1; i < probes.size(); ++i) {
    if (probes[i].pass != probes[i - 1].pass) {
      double logSum = 0;
      for (size_t j = i - 1; j < probes.size(); ++j) {
        logSum += std::log(probes[j].rate);
      }
      return std::exp(logSum / static_cast<double>(probes.size() - (i - 1)));
    }
  }
  return best;
}

}  // namespace perfbench
