// Pure helpers of the benchmark: seeded schedules, deterministic
// bodies, quantiles and the rate search. Nothing here touches a socket,
// so the self-tests can pin each behaviour down exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class OpKind : uint8_t {
  kApiGet,       // GET /api/<key>                 -> "ok:/api/<key>"
  kBulkGet,      // GET /bulk/<size>/<key>         -> pattern(key, size)
  kUpload,       // POST /up/<key>, pattern body   -> "len:<n> sum:<hex>"
  kPacedUpload,  // chunked POST /upload/<key>     -> "ok:/upload/<key>"
  kMqttPublish,  // broker-side publish to the subscriber
  kQuicSend,     // one datagram on the QUIC flow
};

struct Op {
  double dueS = 0;  // seconds after the phase starts
  OpKind kind = OpKind::kApiGet;
  uint32_t key = 0;
  uint32_t size = 0;  // body bytes for kBulkGet / kUpload
};

// Which request mix a Poisson schedule draws.
enum class Mix : uint8_t {
  kApi,   // small uncacheable GETs
  kBulk,  // half large GETs, half uploads, sizes log-uniform (stratified)
};

inline constexpr uint32_t kBulkMinBytes = 16 * 1024;
inline constexpr uint32_t kBulkMaxBytes = 1024 * 1024;

// Poisson arrivals at `rate` per second for `seconds`, drawn from
// `seed` alone: the same arguments give the same ops.
std::vector<Op> poissonSchedule(uint64_t seed, Mix mix, double rate,
                                double seconds);
// `count` ops of `kind` spaced evenly over `seconds`, keys from `seed`.
std::vector<Op> periodicSchedule(uint64_t seed, OpKind kind, double rate,
                                 double seconds);
// Merges schedules by due time (stable).
std::vector<Op> mergeSchedules(std::vector<std::vector<Op>> parts);

// Deterministic body bytes for (key, size): a slice of one fixed
// pseudo-random pattern, so neither side has to store bodies.
std::string_view patternSlice(uint32_t key, uint32_t size);
// 64-bit checksum used by the upload echo.
uint64_t checksum(std::string_view data);
std::string uploadReply(std::string_view body);

std::string opPath(const Op& op);
// The body a correct response to `op` carries.
bool bodyMatches(const Op& op, std::string_view body);

// q in [0,1]; linear interpolation; 0 for an empty input. Sorts `v`.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// One probe of the rate search.
struct StepResult {
  double rate = 0;
  bool pass = false;
  double p99Ms = 0;
};

// Finds the rate at which a probe meets the limit half the time, in
// exactly `steps` probes. It walks geometrically (factor `grow`) from
// `start` until the outcome flips, probes the geometric midpoint of
// that bracket, and from there runs an up-down staircase: one step of
// factor `fine` up after a pass and down after a fail. The estimate is
// the geometric mean of the staircase's rates from the probe before its
// first reversal on, so a probe that a stall of the machine spoils, or
// that passes by luck, moves it by one step instead of closing the
// search on it. Without a reversal it is the highest passing rate seen;
// 0 if none passed. Probes run in order and are appended to `trail`
// when given.
double findKnee(double start, int steps, double grow, double fine,
                const std::function<StepResult(double)>& probe,
                std::vector<StepResult>* trail = nullptr);

}  // namespace perfbench
