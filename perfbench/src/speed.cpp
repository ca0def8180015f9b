#include "speed.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <map>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

bool read_all(int fd, void* data, std::size_t size) {
  auto* at = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t got = ::read(fd, at, size);
    if (got <= 0) return false;
    at += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* at = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t put = ::write(fd, at, size);
    if (put <= 0) return false;
    at += put;
    size -= static_cast<std::size_t>(put);
  }
  return true;
}

// The probe is everyday program work on a few MB, in three kernels: an
// ordered map under inserts and erases, a sort, and a priority queue of
// heap-allocated entries. Each does the same work on every call.

double map_kernel() {
  const std::uint64_t start = now_ns();
  std::map<std::uint64_t, std::vector<int>> map;
  lagover::SplitMix64 mix(3);
  for (int i = 0; i < 20000; ++i) {
    map[mix.next() % 10000].push_back(i);
    if (i % 3 == 0) map.erase(mix.next() % 10000);
  }
  const auto elapsed = static_cast<double>(now_ns() - start);
  return map.size() == 0 ? 0.0 : elapsed;
}

double sort_kernel() {
  const std::uint64_t start = now_ns();
  std::vector<std::uint32_t> values(std::size_t{1} << 16);
  lagover::SplitMix64 mix(5);
  for (std::uint32_t& value : values) value = static_cast<std::uint32_t>(mix.next());
  std::sort(values.begin(), values.end());
  const auto elapsed = static_cast<double>(now_ns() - start);
  return values.front() > values.back() ? 0.0 : elapsed;
}

double queue_kernel() {
  const std::uint64_t start = now_ns();
  std::priority_queue<std::pair<std::uint64_t, std::vector<int>>> queue;
  lagover::SplitMix64 mix(7);
  for (int i = 0; i < 30000; ++i) {
    queue.emplace(mix.next() % 100000, std::vector<int>(3, i));
    if (i % 2 == 1) queue.pop();
  }
  while (!queue.empty()) queue.pop();
  return static_cast<double>(now_ns() - start);
}

/// The helper's loop: one byte in, one probe out (the geometric mean of
/// the three kernel times, in ns); ends when the pipe closes, also when
/// the benchmark dies.
[[noreturn]] void serve(int in, int out) {
  char command = 1;
  if (!write_all(out, &command, 1)) ::_exit(1);
  while (read_all(in, &command, 1)) {
    const double probe =
        std::cbrt(map_kernel() * sort_kernel() * queue_kernel());
    const auto elapsed = static_cast<std::uint64_t>(probe);
    if (!write_all(out, &elapsed, sizeof elapsed)) break;
  }
  ::_exit(0);
}

}  // namespace

SpeedProbe::SpeedProbe() {
  // The benchmark and the helper share one CPU, so the probe sees the
  // same core (and its neighbours' load) as the ops.
  const int cpu = ::sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
  }
  int down[2];
  int up[2];
  if (::pipe(down) != 0) throw std::runtime_error("speed probe: pipe failed");
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw std::runtime_error("speed probe: pipe failed");
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    for (int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    throw std::runtime_error("speed probe: fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(down[1]);
    ::close(up[0]);
    ::close(STDOUT_FILENO);
    serve(down[0], up[1]);
  }
  ::close(down[0]);
  ::close(up[1]);
  to_helper_ = down[1];
  from_helper_ = up[0];
  char ready = 0;
  if (!read_all(from_helper_, &ready, 1)) {
    ::close(to_helper_);
    ::close(from_helper_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    throw std::runtime_error("speed probe: helper did not start");
  }
}

SpeedProbe::~SpeedProbe() {
  ::close(to_helper_);
  ::close(from_helper_);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

std::uint64_t SpeedProbe::measure() {
  const char command = 1;
  std::uint64_t elapsed = 0;
  if (!write_all(to_helper_, &command, 1) ||
      !read_all(from_helper_, &elapsed, sizeof elapsed))
    throw std::runtime_error("speed probe: helper stopped");
  return elapsed;
}

}  // namespace perfbench
