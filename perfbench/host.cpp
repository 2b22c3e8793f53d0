// Host accounting from Linux /proc: thread ids and pinning, per-thread CPU
// time, and the machine-wide steal share.
#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench::host {

int gettid() { return static_cast<int>(::syscall(SYS_gettid)); }

std::vector<int> thread_ids() {
  std::vector<int> tids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') tids.push_back(std::atoi(entry->d_name));
    }
    ::closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::int64_t thread_cpu_ns(int tid) {
  // schedstat's first field is the thread's on-CPU time in nanoseconds.
  std::ifstream schedstat("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  long long ns = 0;
  return schedstat >> ns ? ns : 0;
}

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t self_thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }

CpuStat cpu_stat() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuStat out;
  if (!(stat >> label) || label != "cpu") return out;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    out.total += value;
    if (i == 7) out.steal = value;
  }
  return out;
}

double steal_pct(const CpuStat& before, const CpuStat& after) {
  const std::uint64_t total = after.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace perfbench::host
