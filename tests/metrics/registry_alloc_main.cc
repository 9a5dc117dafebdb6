// Standalone (gtest-free) allocation check for metrics::Registry. A
// counting global operator new tallies every heap allocation in this
// process. After a warm-up that creates each key, 10,000 rounds of
// count, gauge_max and observe calls on existing keys — names longer
// than any std::string keeps inline, one of them formatted into a stack
// buffer the way the kernel forms its per-syscall key — must allocate
// nothing.
// Exits non-zero otherwise.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string_view>

#include "tocttou/metrics/metrics.h"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, so that GCC does not pair an inlined free() with the
// new-expression and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

int main() {
  using tocttou::metrics::Registry;
  Registry reg;
  const char* ops[] = {"stat", "unlink", "symlink", "rename"};
  char buf[48];
  const auto key = [&buf](const char* op) {
    const std::string_view prefix = "kernel.syscalls.";
    std::memcpy(buf, prefix.data(), prefix.size());
    std::memcpy(buf + prefix.size(), op, std::strlen(op));
    return std::string_view(buf, prefix.size() + std::strlen(op));
  };
  const auto round = [&](int i) {
    reg.count("kernel.syscalls");
    reg.count(key(ops[i % 4]));
    reg.gauge_max("sched.runqueue_depth_max", i % 7);
    reg.observe("kernel.syscall_ns", 1000 + i);
  };
  for (int i = 0; i < 4; ++i) round(i);  // warm-up: creates every key

  const std::size_t before = g_allocations;
  constexpr int kCalls = 10000;
  for (int i = 0; i < kCalls; ++i) round(i);
  const std::size_t allocated = g_allocations - before;

  const bool counted = reg.counter("kernel.syscalls") == kCalls + 4 &&
                       reg.counter("kernel.syscalls.stat") == kCalls / 4 + 1;
  std::printf("%d rounds of count/gauge_max/observe on existing keys: "
              "%zu allocations\n",
              kCalls, allocated);
  if (!counted) {
    std::printf("FAIL: counters do not add up\n");
    return 1;
  }
  if (allocated != 0) {
    std::printf("FAIL: updates to existing keys allocated\n");
    return 1;
  }
  return 0;
}
