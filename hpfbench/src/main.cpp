// hpfbench: the end-to-end benchmark of the hpfc compiler and runtime.
//
//   hpfbench --workload NAME --seed N --seconds S --trace 0|1
//            [--inject FAULT] [--out-dir DIR]
//
// Prints progress and diagnostics on stderr and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the span trace is written under DIR. Exits 0
// when every check passed, 1 when one failed, 2 on a usage error.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>

#include "bench.hpp"

namespace {

// Taken during static initialization: setup_s counts from the process's
// start, not from main().
const hpfbench::Clock::time_point g_process_start = hpfbench::Clock::now();

std::atomic<std::uint64_t> g_allocs{0};

int usage(const char* why) {
  std::fprintf(stderr,
               "hpfbench: %s\nusage: hpfbench --workload "
               "remap_loop|proc_fused|compile_corpus|checkpoint_restore "
               "--seed N --seconds S --trace 0|1 [--inject FAULT] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

// Executable-local operator new/delete: count every heap allocation, on
// every thread, for runtime.host_allocs.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) & ~(alignment - 1);
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

std::uint64_t hpfbench::host_allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

int main(int argc, char** argv) {
  hpfbench::Options options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = static_cast<unsigned>(std::stoul(value));
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--inject") {
        options.inject = value;
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seconds || options.seconds <= 0.0 || options.seconds > 120.0)
    return usage("--seconds must be in (0, 120]");
  auto workload = hpfbench::make_workload(options);
  if (workload == nullptr) return usage("unknown workload");

  hpfbench::Result result(options);
  hpfbench::run_benchmark(*workload, result, g_process_start);
  workload.reset();
  std::fflush(stderr);
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
