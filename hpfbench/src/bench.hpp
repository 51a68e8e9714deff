// Shared pieces of the hpfc end-to-end benchmark: options, the result
// record printed as the run's last line, the span tracer, and the
// per-operation totals every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "driver/compiler.hpp"

namespace hpfbench {

using Clock = std::chrono::steady_clock;
using hpfc::driver::OptLevel;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Name of a deliberate fault (the benchmark's own tests use these to
  /// show that every correctness check can fail); empty in real runs.
  std::string inject;
  /// Scratch directory inside the checkout (trace files, snapshot stores).
  std::string out_dir = ".bench_out";
};

/// The run's outcome: correctness, operation counts and metrics, printed
/// as one JSON object on the last line of standard output.
class Result {
 public:
  explicit Result(const Options& options) : options_(options) {}

  /// Records a failed correctness check (the run ends as incorrect).
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool injected(std::string_view fault) const {
    return options_.inject == fault;
  }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::string json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

 private:
  const Options& options_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  int reported_failures_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Heap allocations made by this process so far (operator new in main.cpp).
[[nodiscard]] std::uint64_t host_allocs();

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Each span carries its name, start, end, parent
/// and the id of the operation it belongs to; the whole set is written as
/// one JSON trace file when the run ends. Disabled, it records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int run = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  int open(std::string name);
  void close(int index);

  /// Per operation, the summed self time (span time minus its children's)
  /// of every span called `name`; one entry per operation that has one.
  [[nodiscard]] std::vector<double> self_ms_per_run(
      const std::string& name) const;
  /// Median over operations of self_ms_per_run(name); 0 when never seen.
  [[nodiscard]] double median_self_ms(const std::string& name) const;
  /// Median self time per span name, for the trace file summary.
  [[nodiscard]] std::map<std::string, double> self_time_table() const;

  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  int run_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(std::string name)
      : index_(tracer().enabled() ? tracer().open(std::move(name)) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// ------------------------------------------------------- operation totals

/// Everything one timed operation reports: host times plus the program's
/// own counters, summed over the executions the operation made.
struct OpTotals {
  double run_ms = 0.0;      ///< driver::run wall time, oracle excluded
  double compile_ms = 0.0;  ///< driver::compile_source wall time
  std::uint64_t host_allocs = 0;
  std::uint64_t executions = 0;

  // Counters of the reference level (O2).
  std::uint64_t elements = 0;
  std::uint64_t copies = 0;
  std::uint64_t messages = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t live_reuse = 0;
  std::uint64_t already_mapped = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_runs = 0;

  // Program-reported timers.
  double exec_ms = 0.0;
  double pack_ms = 0.0;
  double exchange_ms = 0.0;
  double unpack_ms = 0.0;
  double snapshot_ms = 0.0;

  /// Adds one execution's report (its counters count toward the
  /// reference level when `reference` is set).
  void add(const hpfc::runtime::RunReport& report, double wall_ms,
           bool reference);
  /// The deterministic counters, for the run-to-run equality check.
  [[nodiscard]] std::vector<std::uint64_t> counters() const;
};

// ------------------------------------------------------------ compilation

/// driver::compile_source; a diagnostic is an error of the benchmark's own
/// input and throws.
hpfc::driver::Compiled compile(std::string_view source, OptLevel level);

/// The same pipeline as driver::compile_source, one phase at a time, each
/// phase under its own span (hpf.parse, opt.hoist, remap.analyze,
/// opt.useless, opt.maybe_live, codegen.generate).
hpfc::driver::Compiled compile_phased(std::string_view source, OptLevel level);

/// Ops in a runtime program, If bodies included.
[[nodiscard]] int count_ops(const hpfc::codegen::RuntimeProgram& code);

/// True when the two compilations produced the same code shape.
[[nodiscard]] bool same_code(const hpfc::driver::Compiled& a,
                             const hpfc::driver::Compiled& b);

// ----------------------------------------------------------- layer probes

/// The workload's own data-movement shapes, extracted from its compiled
/// programs: every distinct (from, to) layout pair a Copy op names, and
/// every (array, version) layout.
class LayerProbe {
 public:
  LayerProbe(const std::vector<const hpfc::driver::Compiled*>& programs,
             hpfc::exec::BackendKind backend, int threads);
  ~LayerProbe();

  /// Runs every probe once, each call into the library under a span.
  void run();

  [[nodiscard]] std::size_t binds() const { return binds_; }
  [[nodiscard]] std::uint64_t segments() const { return segments_; }
  /// Bytes the kernels pack (and unpack) in one probe round.
  [[nodiscard]] std::uint64_t pack_bytes() const { return pack_bytes_; }
  /// Remote payload bytes (checksummed, hashed and exchanged) per round.
  [[nodiscard]] std::uint64_t payload_bytes() const { return payload_bytes_; }
  [[nodiscard]] int step_rounds() const { return step_rounds_; }
  [[nodiscard]] int pings() const { return pings_; }
  [[nodiscard]] bool proc() const {
    return backend_ == hpfc::exec::BackendKind::Proc;
  }

 private:
  struct Pair;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::vector<hpfc::mapping::ConcreteLayout> layouts_;
  hpfc::exec::BackendKind backend_;
  int threads_;
  int ranks_ = 1;
  std::size_t binds_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t pack_bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
  int step_rounds_ = 64;
  int pings_ = 0;
  /// Folds probe results so the measured calls cannot be optimized away.
  std::uint64_t sink_ = 0;
};

// -------------------------------------------------------------- workloads

/// Per-operation constants a workload fills in during setup; the runner
/// turns them, the spans and the operation totals into per-layer metrics.
struct LayerInfo {
  /// Source lines compiled per operation.
  std::uint64_t lines = 0;
  /// The reference (O2) compilations one operation runs.
  std::vector<const hpfc::driver::Compiled*> programs;
  /// Elements the same programs copy at O0 and O1, per operation.
  std::uint64_t elements_o0 = 0;
  std::uint64_t elements_o1 = 0;
  /// Sealed snapshot epochs per execution (checkpoint_restore only).
  std::uint64_t epochs = 0;
  /// Layer probes on the workload's own shapes (traced runs only).
  std::unique_ptr<LayerProbe> probe;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs, compiles, computes the expected values and warms
  /// up. Runs before the timed window; with the process start it is
  /// setup_s.
  virtual void setup(Result& result) = 0;
  /// Executions one operation makes (attempted grows by this much).
  [[nodiscard]] virtual std::uint64_t executions_per_op() const { return 1; }
  /// One timed operation with all its checks.
  virtual OpTotals operation(Result& result, bool traced) = 0;
  /// Removes everything the workload created on disk.
  virtual void cleanup() {}

  LayerInfo info;
};

std::unique_ptr<Workload> make_workload(const Options& options);

/// Drives a workload: setup, timed operations until the time is up,
/// metrics, cleanup. Never throws.
void run_benchmark(Workload& workload, Result& result,
                   Clock::time_point process_start);

// ----------------------------------------------------------------- corpus

struct CorpusRoutine {
  std::string name;
  std::string source;
  int lines = 0;
};

/// A seeded corpus of HPF-lite routines that compile without diagnostics
/// (every array reference sees exactly one mapping: restriction 1).
std::vector<CorpusRoutine> generate_corpus(unsigned seed, int routines,
                                           int lines_per_routine);

}  // namespace hpfbench
