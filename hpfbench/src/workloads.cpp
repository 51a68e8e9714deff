// The four workloads and the runner that times them.
//
//   remap_loop          one ~1M-element array on 8 ranks, block -> cyclic
//                       -> cyclic(3) -> block in a loop, thread backend
//   proc_fused          four arrays aligned to one template on 4 ranks,
//                       the same loop, proc backend (real sockets)
//   compile_corpus      a seeded corpus of long generated routines,
//                       compiled and run at O0, O1 and O2 on the seq backend
//   checkpoint_restore  an ADI sweep over two 2-D arrays sealing a snapshot
//                       at every remap boundary, then restoring the store
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "persist/journal.hpp"
#include "persist/snapshot.hpp"

namespace hpfbench {

namespace {

namespace fs = std::filesystem;
using hpfc::driver::Compiled;
using hpfc::exec::BackendKind;
using hpfc::runtime::RunOptions;
using hpfc::runtime::RunReport;

/// Worker threads for the thread and proc backends: half the host's
/// cores, at most two. Rank work waits at a barrier for its slowest
/// worker, and on a shared host a run that leaves cores free for the proc
/// backend's rank processes (and for everything else) is both as fast and
/// much steadier than one that claims every core.
int host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw / 2), 1, 2);
}

/// A small seed-derived jitter, so each seed gets its own input extents.
unsigned jitter(unsigned seed, unsigned range) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return static_cast<unsigned>(x % range);
}

Compiled timed_compile(std::string_view source, OptLevel level, bool traced,
                       OpTotals& totals) {
  const auto start = Clock::now();
  Compiled compiled;
  {
    Span span("driver.compile");
    compiled = traced ? compile_phased(source, level) : compile(source, level);
  }
  totals.compile_ms += ms_between(start, Clock::now());
  return compiled;
}

/// One driver::run, timed, with its heap allocations counted.
RunReport timed_run(const Compiled& compiled, const RunOptions& options,
                    OpTotals& totals, bool reference = true) {
  Span span("driver.run");
  const std::uint64_t allocs = host_allocs();
  const auto start = Clock::now();
  RunReport report = hpfc::driver::run(compiled, options);
  const double wall_ms = ms_between(start, Clock::now());
  totals.host_allocs += host_allocs() - allocs;
  totals.add(report, wall_ms, reference);
  return report;
}

std::uint64_t oracle_signature(const Compiled& compiled,
                               const RunOptions& options) {
  Span span("driver.run_oracle");
  return hpfc::driver::run_oracle(compiled, options).signature;
}

/// The remaps the loop of a generated program executes, counted from its
/// text: the redistribute/realign lines between `loop N` and `endloop`,
/// times N.
std::uint64_t remaps_in_loop(const std::string& source) {
  std::istringstream in(source);
  std::string line;
  std::uint64_t trips = 0;
  std::uint64_t remaps = 0;
  bool inside = false;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string word;
    words >> word;
    if (word == "loop") {
      words >> trips;
      inside = true;
    } else if (word == "endloop") {
      inside = false;
    } else if (inside && (word == "redistribute" || word == "realign")) {
      ++remaps;
    }
  }
  return remaps * trips;
}

/// The loop program shared by remap_loop and proc_fused: `arrays` arrays
/// (one directly distributed array, or several aligned to one template)
/// redistributed block -> cyclic -> cyclic(3) -> block, each phase
/// writing every array so no copy can be hoisted or reused.
std::string loop_program(long n, int procs, int arrays, int trips) {
  std::ostringstream s;
  std::string names;
  for (int a = 0; a < arrays; ++a)
    names += (a > 0 ? ", A" : "A") + std::to_string(a);
  const std::string target = arrays == 1 ? "A0" : "T";
  s << "routine remaploop\n"
    << "processors P(" << procs << ")\n";
  if (arrays > 1)
    s << "template T(" << n << ")\n"
      << "distribute T(block) onto P\n";
  for (int a = 0; a < arrays; ++a) {
    s << "real A" << a << "(" << n << ")\n";
    if (arrays > 1) s << "align A" << a << "(i) with T(i)\n";
  }
  if (arrays == 1) s << "distribute A0(block) onto P\n";
  s << "begin\n"
    << "  def(" << names << ")\n"
    << "  loop " << trips << "\n";
  for (const char* format : {"cyclic", "cyclic(3)", "block"})
    s << "    redistribute " << target << "(" << format << ")\n"
      << "    def(" << names << ")\n";
  s << "  endloop\n"
    << "  use(" << names << ")\n"
    << "end\n";
  return s.str();
}

/// Closed-form 1-D owners, independent of the mapping library: BLOCK is
/// blocks of ceil(n/P), CYCLIC(k) deals blocks of k round-robin.
struct Format1 {
  bool block = true;
  long k = 1;
  [[nodiscard]] int owner(long i, long n, int procs) const {
    if (block) return static_cast<int>(i / ((n + procs - 1) / procs));
    return static_cast<int>((i / k) % procs);
  }
};

/// Distinct src != dst rank pairs whose ownerships intersect.
std::uint64_t remote_pairs(Format1 from, Format1 to, long n, int procs) {
  std::vector<char> seen(static_cast<std::size_t>(procs * procs), 0);
  for (long i = 0; i < n; ++i)
    seen[static_cast<std::size_t>(from.owner(i, n, procs) * procs +
                                  to.owner(i, n, procs))] = 1;
  std::uint64_t pairs = 0;
  for (int s = 0; s < procs; ++s)
    for (int d = 0; d < procs; ++d)
      if (s != d && seen[static_cast<std::size_t>(s * procs + d)]) ++pairs;
  return pairs;
}

/// Messages one trip of the loop program sends: one per intersecting
/// (src, dst) pair per remap, however many arrays the remap moves.
std::uint64_t loop_messages(long n, int procs) {
  const Format1 block{true, 1};
  const Format1 cyclic{false, 1};
  const Format1 cyclic3{false, 3};
  return remote_pairs(block, cyclic, n, procs) +
         remote_pairs(cyclic, cyclic3, n, procs) +
         remote_pairs(cyclic3, block, n, procs);
}

/// Elements copied at O0 and O1 by the same source (traced runs only).
void lower_levels(LayerInfo& info, const std::string& source,
                  const RunOptions& options) {
  RunOptions seq = options;
  seq.backend = BackendKind::Seq;
  seq.snapshot_dir.clear();
  info.elements_o0 =
      hpfc::driver::run(compile(source, OptLevel::O0), seq).elements_copied;
  info.elements_o1 =
      hpfc::driver::run(compile(source, OptLevel::O1), seq).elements_copied;
}

// ------------------------------------------------------------ remap_loop

class RemapLoop final : public Workload {
 public:
  explicit RemapLoop(const Options& options) : options_(options) {}

  void setup(Result& result) override {
    n_ = (1L << 20) + static_cast<long>(jitter(options_.seed, 1024));
    source_ = loop_program(n_, kProcs, 1, kTrips);
    reference_ = compile(source_, OptLevel::O2);
    run_.backend = BackendKind::Thread;
    run_.threads = host_threads();
    run_.seed = options_.seed;
    expected_elements_ = remaps_in_loop(source_) * static_cast<std::uint64_t>(n_);
    expected_messages_ = kTrips * loop_messages(n_, kProcs);
    if (result.injected("elements")) ++expected_elements_;
    if (result.injected("messages")) ++expected_messages_;
    oracle_ = oracle_signature(reference_, run_);
    if (result.injected("signature")) oracle_ ^= 1;
    info.lines = static_cast<std::uint64_t>(
        std::count(source_.begin(), source_.end(), '\n'));
    info.programs = {&reference_};
    if (options_.trace) {
      lower_levels(info, source_, run_);
      info.probe = std::make_unique<LayerProbe>(info.programs,
                                                run_.backend, run_.threads);
    }
    OpTotals warmup;
    (void)timed_run(reference_, run_, warmup);
  }

  OpTotals operation(Result& result, bool traced) override {
    OpTotals totals;
    const Compiled compiled =
        timed_compile(source_, OptLevel::O2, traced, totals);
    result.check(same_code(compiled, reference_),
                 "remap_loop: compile differs from the reference compile");
    const RunReport report = timed_run(compiled, run_, totals);
    result.check(report.signature == oracle_ && report.exported_values_ok,
                 "remap_loop: signature differs from the oracle's");
    result.check(report.elements_copied == expected_elements_,
                 "remap_loop: elements_copied " +
                     std::to_string(report.elements_copied) + " != " +
                     std::to_string(expected_elements_) +
                     " (remaps x n from the program text)");
    result.check(report.net.messages == expected_messages_,
                 "remap_loop: remote_messages " +
                     std::to_string(report.net.messages) + " != " +
                     std::to_string(expected_messages_) +
                     " (closed-form owner pairs)");
    if (traced) (void)oracle_signature(compiled, run_);
    return totals;
  }

 private:
  static constexpr int kProcs = 8;
  static constexpr int kTrips = 2;
  const Options& options_;
  long n_ = 0;
  std::string source_;
  Compiled reference_;
  RunOptions run_;
  std::uint64_t oracle_ = 0;
  std::uint64_t expected_elements_ = 0;
  std::uint64_t expected_messages_ = 0;
};

// ------------------------------------------------------------ proc_fused

class ProcFused final : public Workload {
 public:
  explicit ProcFused(const Options& options) : options_(options) {}

  void setup(Result& result) override {
    n_ = (1L << 17) + static_cast<long>(jitter(options_.seed, 512));
    source_ = loop_program(n_, kProcs, kArrays, kTrips);
    reference_ = compile(source_, OptLevel::O2);
    run_.backend = BackendKind::Proc;
    run_.threads = host_threads();
    run_.seed = options_.seed;
    // The fusion property: one exchange superstep per remap vertex,
    // however many arrays it moves.
    expected_supersteps_ = remaps_in_loop(source_);
    expected_elements_ =
        expected_supersteps_ * kArrays * static_cast<std::uint64_t>(n_);
    if (result.injected("supersteps")) ++expected_supersteps_;
    RunOptions seq = run_;
    seq.backend = BackendKind::Seq;
    seq_net_ = hpfc::driver::run(reference_, seq).net;
    if (result.injected("netstats")) ++seq_net_.messages;
    oracle_ = oracle_signature(reference_, run_);
    if (result.injected("signature")) oracle_ ^= 1;
    wire_slack_ = result.injected("wire") ? ~std::uint64_t{0} >> 1 : 0;
    info.lines = static_cast<std::uint64_t>(
        std::count(source_.begin(), source_.end(), '\n'));
    info.programs = {&reference_};
    if (options_.trace) {
      lower_levels(info, source_, run_);
      info.probe = std::make_unique<LayerProbe>(info.programs,
                                                run_.backend, run_.threads);
    }
    OpTotals warmup;
    (void)timed_run(reference_, run_, warmup);
  }

  OpTotals operation(Result& result, bool traced) override {
    OpTotals totals;
    const Compiled compiled =
        timed_compile(source_, OptLevel::O2, traced, totals);
    result.check(same_code(compiled, reference_),
                 "proc_fused: compile differs from the reference compile");
    const RunReport report = timed_run(compiled, run_, totals);
    result.check(report.signature == oracle_ && report.exported_values_ok,
                 "proc_fused: signature differs from the oracle's");
    result.check(report.net == seq_net_,
                 "proc_fused: NetStats differ from the seq run's: " +
                     report.net.summary() + " vs " + seq_net_.summary());
    result.check(report.net.supersteps == expected_supersteps_,
                 "proc_fused: supersteps " +
                     std::to_string(report.net.supersteps) +
                     " != remap vertices executed " +
                     std::to_string(expected_supersteps_));
    result.check(report.elements_copied == expected_elements_,
                 "proc_fused: elements_copied " +
                     std::to_string(report.elements_copied) + " != " +
                     std::to_string(expected_elements_));
    result.check(report.wire_bytes >= report.net.bytes + wire_slack_,
                 "proc_fused: wire_bytes " +
                     std::to_string(report.wire_bytes) +
                     " below the remote payload bytes " +
                     std::to_string(report.net.bytes));
    if (traced) (void)oracle_signature(compiled, run_);
    return totals;
  }

 private:
  static constexpr int kProcs = 4;
  static constexpr int kArrays = 4;
  static constexpr int kTrips = 2;
  const Options& options_;
  long n_ = 0;
  std::string source_;
  Compiled reference_;
  RunOptions run_;
  hpfc::net::NetStats seq_net_;
  std::uint64_t oracle_ = 0;
  std::uint64_t expected_supersteps_ = 0;
  std::uint64_t expected_elements_ = 0;
  std::uint64_t wire_slack_ = 0;
};

// -------------------------------------------------------- compile_corpus

class CompileCorpus final : public Workload {
 public:
  explicit CompileCorpus(const Options& options) : options_(options) {}

  void setup(Result& result) override {
    corpus_ = generate_corpus(options_.seed, kRoutines, kLines);
    run_.seed = options_.seed;
    for (const auto& routine : corpus_) {
      Entry entry;
      for (int l = 0; l < 3; ++l) {
        const auto level = static_cast<OptLevel>(l);
        entry.reference[l] = compile(routine.source, level);
        const Compiled phased = compile_phased(routine.source, level);
        result.check(same_code(phased, entry.reference[l]),
                     routine.name + ": phase-by-phase compile differs from "
                                    "driver::compile_source");
      }
      entry.oracle = oracle_signature(entry.reference[0], run_);
      if (result.injected("signature")) entry.oracle ^= 1;
      info.lines += 3 * static_cast<std::uint64_t>(routine.lines);
      entries_.push_back(std::move(entry));
    }
    if (result.injected("phased")) ++entries_.front().reference[2].code.plan_slots;
    for (const auto& entry : entries_) info.programs.push_back(&entry.reference[2]);
    if (options_.trace)
      info.probe = std::make_unique<LayerProbe>(info.programs, BackendKind::Seq,
                                                1);
    // Warm-up: one whole pass, which also records the O0/O1 volumes.
    (void)pass(result, false, &info);
  }

  [[nodiscard]] std::uint64_t executions_per_op() const override {
    return 3 * corpus_.size();
  }

  OpTotals operation(Result& result, bool traced) override {
    return pass(result, traced, nullptr);
  }

 private:
  struct Entry {
    Compiled reference[3];
    std::uint64_t oracle = 0;
  };

  OpTotals pass(Result& result, bool traced, LayerInfo* volumes) {
    OpTotals totals;
    for (std::size_t r = 0; r < corpus_.size(); ++r) {
      const auto& routine = corpus_[r];
      Entry& entry = entries_[r];
      std::uint64_t elements[3] = {0, 0, 0};
      for (int l = 0; l < 3; ++l) {
        const auto level = static_cast<OptLevel>(l);
        const Compiled compiled =
            timed_compile(routine.source, level, traced, totals);
        result.check(same_code(compiled, entry.reference[l]),
                     routine.name + " " + hpfc::driver::to_string(level) +
                         ": op count or plan slots differ from the "
                         "driver::compile_source reference");
        const RunReport report = timed_run(compiled, run_, totals, l == 2);
        result.check(report.signature == entry.oracle &&
                         report.exported_values_ok,
                     routine.name + " " + hpfc::driver::to_string(level) +
                         ": signature differs from the oracle's");
        elements[l] = report.elements_copied;
        if (traced && l == 2) (void)oracle_signature(compiled, run_);
      }
      if (result.injected("levels")) elements[2] = elements[0] + 1;
      result.check(elements[2] <= elements[1] && elements[1] <= elements[0],
                   routine.name + ": elements copied not O2 <= O1 <= O0 (" +
                       std::to_string(elements[0]) + ", " +
                       std::to_string(elements[1]) + ", " +
                       std::to_string(elements[2]) + ")");
      if (volumes != nullptr) {
        volumes->elements_o0 += elements[0];
        volumes->elements_o1 += elements[1];
      }
    }
    return totals;
  }

  static constexpr int kRoutines = 4;
  static constexpr int kLines = 2000;
  const Options& options_;
  std::vector<CorpusRoutine> corpus_;
  std::vector<Entry> entries_;
  RunOptions run_;
};

// ---------------------------------------------------- checkpoint_restore

class CheckpointRestore final : public Workload {
 public:
  explicit CheckpointRestore(const Options& options) : options_(options) {}
  ~CheckpointRestore() override { cleanup(); }

  void setup(Result& result) override {
    n_ = 510 + static_cast<long>(jitter(options_.seed, 5));
    std::ostringstream s;
    s << "routine adisweep\n"
      << "processors P(4)\n"
      << "real U(" << n_ << ", " << n_ << ")\n"
      << "real RHS(" << n_ << ", " << n_ << ")\n"
      << "distribute U(block, *) onto P\n"
      << "align RHS(i, j) with U(i, j)\n"
      << "begin\n"
      << "  def(U, RHS)\n"
      << "  loop " << kSweeps << " nonzero\n"
      << "    redistribute U(block, *)\n"
      << "    ref read(U, RHS) write(U)\n"
      << "    redistribute U(*, block)\n"
      << "    ref read(U, RHS) write(U)\n"
      << "  endloop\n"
      << "  use(U, RHS)\n"
      << "end\n";
    source_ = s.str();
    reference_ = compile(source_, OptLevel::O2);
    dir_ = (fs::path(options_.out_dir) /
            ("snap-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    run_.backend = BackendKind::Seq;
    run_.seed = options_.seed;
    run_.snapshot_dir = dir_;
    run_.snapshot_every = 1;
    oracle_ = oracle_signature(reference_, run_);
    if (result.injected("signature")) oracle_ ^= 1;
    info.lines = static_cast<std::uint64_t>(
        std::count(source_.begin(), source_.end(), '\n'));
    info.programs = {&reference_};
    if (options_.trace) {
      lower_levels(info, source_, run_);
      info.probe = std::make_unique<LayerProbe>(info.programs, run_.backend, 1);
    }
    OpTotals warmup;
    (void)timed_run(reference_, run_, warmup);
    info.epochs = hpfc::persist::sealed_epochs(dir_).size();
  }

  OpTotals operation(Result& result, bool traced) override {
    OpTotals totals;
    const Compiled compiled =
        timed_compile(source_, OptLevel::O2, traced, totals);
    result.check(same_code(compiled, reference_),
                 "checkpoint_restore: compile differs from the reference");
    const RunReport report = timed_run(compiled, run_, totals);
    result.check(report.signature == oracle_ && report.exported_values_ok,
                 "checkpoint_restore: signature differs from the oracle's");
    if (traced) (void)oracle_signature(compiled, run_);
    inject_damage(result);
    try {
      hpfc::persist::RestoredStore store;
      {
        Span span("persist.restore");
        store = hpfc::persist::restore(dir_);
      }
      std::vector<hpfc::persist::SealedEpoch> sealed;
      {
        Span span("persist.sealed_epochs");
        sealed = hpfc::persist::sealed_epochs(dir_);
      }
      check_store(result, store, sealed);
    } catch (const std::exception& e) {
      result.check(false, std::string("checkpoint_restore: restore of the "
                                      "sealed store failed: ") +
                              e.what());
    }
    return totals;
  }

  void cleanup() override {
    if (dir_.empty()) return;
    std::error_code ec;
    fs::remove_all(dir_, ec);
    dir_.clear();
  }

 private:
  void inject_damage(Result& result) {
    const std::string journal =
        hpfc::persist::JournalWriter::journal_path(dir_);
    if (result.injected("journal")) {
      // One flipped byte in the middle of the sealed prefix.
      std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(0, std::ios::end);
      const auto middle = static_cast<std::streamoff>(f.tellg()) / 2;
      char byte = 0;
      f.seekg(middle);
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x40);
      f.seekp(middle);
      f.write(&byte, 1);
    } else if (result.injected("torn")) {
      std::ofstream f(journal, std::ios::app | std::ios::binary);
      f << "torn tail";
    }
  }

  void check_store(Result& result, hpfc::persist::RestoredStore& store,
                   const std::vector<hpfc::persist::SealedEpoch>& sealed) {
    result.check(store.valid && !store.torn_tail,
                 "checkpoint_restore: restored store is not valid or torn");
    if (result.injected("roots") && !store.roots.empty())
      store.roots.begin()->second ^= 1;
    result.check(!sealed.empty() && store.roots == sealed.back().roots,
                 "checkpoint_restore: restored roots differ from the full "
                 "scan's last sealed epoch");
    result.check(sealed.size() == info.epochs,
                 "checkpoint_restore: sealed epochs changed between runs");
    // Per array: every live version covers each global index exactly once,
    // and all live versions agree element by element.
    const auto total = static_cast<std::size_t>(n_ * n_);
    std::map<int, std::vector<double>> first_values;
    bool dropped = false;
    int compared = 0;
    for (auto& version : store.versions) {
      if (!version.allocated || !version.live) continue;
      if (result.injected("coverage") && !dropped) {
        version.runs.begin()->second.pop_back();
        dropped = true;
      }
      std::vector<unsigned char> hits(total, 0);
      std::vector<double> values(total, 0.0);
      for (const auto& [rank, runs] : version.runs)
        for (const auto& run : runs)
          for (long j = 0; j < run.geometry.len; ++j) {
            const auto g = static_cast<std::size_t>(
                run.geometry.global_base + j * run.geometry.global_stride);
            if (g >= total) continue;
            hits[g] = static_cast<unsigned char>(std::min(hits[g] + 1, 2));
            values[g] = run.values[static_cast<std::size_t>(j)];
          }
      const bool covered = std::all_of(hits.begin(), hits.end(),
                                       [](unsigned char h) { return h == 1; });
      result.check(covered, "checkpoint_restore: live version " +
                                std::to_string(version.version) + " of array " +
                                std::to_string(version.array) +
                                " does not cover every index exactly once");
      if (result.injected("agree") && compared == 0 &&
          first_values.count(version.array) > 0)
        values[0] += 1.0;
      const auto [it, fresh] = first_values.emplace(version.array, values);
      if (!fresh) {
        ++compared;
        result.check(it->second == values,
                     "checkpoint_restore: live versions of array " +
                         std::to_string(version.array) + " disagree");
      }
    }
    // O2 keeps the read-only RHS live under both mappings, so the
    // agreement check always has a pair to compare.
    result.check(compared > 0,
                 "checkpoint_restore: no array has two live versions");
  }

  static constexpr int kSweeps = 3;
  const Options& options_;
  long n_ = 0;
  std::string source_;
  std::string dir_;
  Compiled reference_;
  RunOptions run_;
  std::uint64_t oracle_ = 0;
};

// ---------------------------------------------------------------- runner

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

template <typename Fn>
std::vector<double> per_op(const std::vector<OpTotals>& ops, const Fn& fn) {
  std::vector<double> values;
  values.reserve(ops.size());
  for (const auto& op : ops) values.push_back(fn(op));
  return values;
}

template <typename Fn>
double median_of(const std::vector<OpTotals>& ops, const Fn& fn) {
  return median(per_op(ops, fn));
}

/// The end-to-end times are the 5th percentile of the run's per-operation
/// samples. On a shared host the slow tail is interference from outside
/// the process (it moved the median of whole runs by 13-60% where this
/// quantile moved 5-9%); the fast end is what the program costs.
constexpr double kLowQuantile = 0.05;

void end_to_end_metrics(Result& result, double setup_s,
                        const std::vector<OpTotals>& ops) {
  const OpTotals& last = ops.back();
  result.metric("setup_s", setup_s, "s");
  result.metric("run_ms",
                quantile(per_op(ops, [](const OpTotals& t) { return t.run_ms; }),
                         kLowQuantile),
                "ms");
  result.metric("compile_ms",
                quantile(per_op(ops, [](const OpTotals& t) {
                           return t.compile_ms;
                         }),
                         kLowQuantile),
                "ms");
  result.metric("elements_copied", static_cast<double>(last.elements),
                "elements");
  result.metric("copies_performed", static_cast<double>(last.copies),
                "copies");
  result.metric("remote_messages", static_cast<double>(last.messages),
                "messages");
  result.metric("supersteps", static_cast<double>(last.supersteps),
                "supersteps");
  result.metric("peak_bytes", static_cast<double>(last.peak_bytes), "bytes");
  result.metric("max_rss_mb", max_rss_mb(), "MiB");
}

void layer_metrics(Result& result, const Workload& workload,
                   const std::vector<OpTotals>& plain,
                   const std::vector<OpTotals>& traced) {
  const Tracer& tr = tracer();
  const LayerInfo& info = workload.info;
  const LayerProbe& probe = *info.probe;
  std::vector<OpTotals> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  const OpTotals& last = all.back();
  const auto self = [&](const char* name) { return tr.median_self_ms(name); };
  const auto rate = [](double bytes, double ms) {
    return ms > 0.0 ? bytes / (ms * 1e6) : 0.0;  // GB/s
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  std::uint64_t vertices = 0, versions = 0, removed = 0, hoisted = 0;
  std::uint64_t ops = 0, slots = 0, families = 0, groups = 0;
  for (const Compiled* c : info.programs) {
    vertices += c->analysis.graph.vertices().size();
    versions += static_cast<std::uint64_t>(c->total_versions());
    removed += static_cast<std::uint64_t>(c->opt_report.removed_remappings);
    hoisted += static_cast<std::uint64_t>(c->opt_report.hoisted_remaps);
    ops += static_cast<std::uint64_t>(count_ops(c->code));
    slots += static_cast<std::uint64_t>(c->code.plan_slots);
    families += static_cast<std::uint64_t>(c->code.plan_family_count);
    groups += static_cast<std::uint64_t>(c->code.copy_groups);
  }

  result.metric("hpf.parse_ms", self("hpf.parse"), "ms");
  result.metric("hpf.lines_per_s",
                self("hpf.parse") > 0.0
                    ? count(info.lines) / (self("hpf.parse") / 1e3)
                    : 0.0,
                "lines/s");
  result.metric("remap.analyze_ms", self("remap.analyze"), "ms");
  result.metric("remap.graph_vertices", count(vertices), "count");
  result.metric("remap.versions", count(versions), "count");
  result.metric("opt.hoist_ms", self("opt.hoist"), "ms");
  result.metric("opt.useless_ms", self("opt.useless"), "ms");
  result.metric("opt.maybe_live_ms", self("opt.maybe_live"), "ms");
  result.metric("opt.removed_remappings", count(removed), "count");
  result.metric("opt.hoisted_remaps", count(hoisted), "count");
  result.metric("opt.elements_O0", count(info.elements_o0), "elements");
  result.metric("opt.elements_O1", count(info.elements_o1), "elements");
  result.metric("codegen.generate_ms", self("codegen.generate"), "ms");
  result.metric("codegen.ops", count(ops), "count");
  result.metric("codegen.plan_slots", count(slots), "count");
  result.metric("codegen.plan_families", count(families), "count");
  result.metric("codegen.copy_groups", count(groups), "count");
  result.metric("mapping.owned_runs_ms", self("mapping.owned_runs"), "ms");

  result.metric("redist.plan_build_ms", self("redist.plan_build"), "ms");
  result.metric("redist.symbolic_bind_us",
                probe.binds() > 0 ? self("redist.symbolic_bind") * 1e3 /
                                        static_cast<double>(probe.binds())
                                  : 0.0,
                "us");
  result.metric("redist.compile_transfer_ms", self("redist.compile_transfer"),
                "ms");
  result.metric("redist.specialize_ms", self("redist.specialize"), "ms");
  result.metric("redist.pack_gb_per_s",
                rate(count(probe.pack_bytes()), self("redist.pack")), "GB/s");
  result.metric("redist.unpack_gb_per_s",
                rate(count(probe.pack_bytes()), self("redist.unpack")),
                "GB/s");
  result.metric("redist.segments", count(probe.segments()), "count");
  result.metric("redist.plan_cache_hits", count(last.plan_cache_hits),
                "count");
  result.metric("redist.plan_cache_misses", count(last.plan_cache_misses),
                "count");
  const std::uint64_t lookups = last.plan_cache_hits + last.plan_cache_misses;
  result.metric("redist.plan_cache_hit_ratio",
                lookups > 0 ? count(last.plan_cache_hits) / count(lookups)
                            : 0.0,
                "ratio");

  const auto timers = [](const OpTotals& t) {
    return t.pack_ms + t.exchange_ms + t.unpack_ms + t.snapshot_ms;
  };
  result.metric("runtime.exec_ms",
                median_of(all, [](const OpTotals& t) { return t.exec_ms; }),
                "ms");
  result.metric("runtime.pack_ms",
                median_of(all, [](const OpTotals& t) { return t.pack_ms; }),
                "ms");
  result.metric("runtime.exchange_ms", median_of(all, [](const OpTotals& t) {
                  return t.exchange_ms;
                }), "ms");
  result.metric("runtime.unpack_ms",
                median_of(all, [](const OpTotals& t) { return t.unpack_ms; }),
                "ms");
  result.metric("runtime.snapshot_ms", median_of(all, [](const OpTotals& t) {
                  return t.snapshot_ms;
                }), "ms");
  result.metric("runtime.unattributed_ms",
                median_of(all, [&](const OpTotals& t) {
                  return t.exec_ms - timers(t);
                }),
                "ms");
  result.metric("runtime.timer_coverage_pct",
                median_of(all, [&](const OpTotals& t) {
                  return t.exec_ms > 0.0 ? 100.0 * timers(t) / t.exec_ms : 0.0;
                }),
                "%");
  result.metric("runtime.run_overhead_ms",
                median_of(all, [](const OpTotals& t) {
                  return t.run_ms - t.exec_ms;
                }),
                "ms");
  result.metric("runtime.host_allocs", median_of(all, [](const OpTotals& t) {
                  return static_cast<double>(t.host_allocs) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, t.executions));
                }), "count");
  result.metric("runtime.oracle_ms", self("driver.run_oracle"), "ms");
  result.metric("runtime.live_reuse", count(last.live_reuse), "count");
  result.metric("runtime.already_mapped", count(last.already_mapped), "count");
  result.metric("runtime.run_ms_median",
                median_of(all, [](const OpTotals& t) { return t.run_ms; }),
                "ms");
  result.metric("runtime.run_ms_p90",
                quantile(per_op(all, [](const OpTotals& t) { return t.run_ms; }),
                         0.9),
                "ms");

  result.metric("exec.step_us",
                self("exec.step") * 1e3 / probe.step_rounds(), "us");
  result.metric("exec.proc_spawn_ms",
                self("exec.proc_start") + self("exec.proc_stop"), "ms");
  result.metric("exec.proc_ping_us",
                probe.pings() > 0
                    ? self("exec.proc_ping") * 1e3 / probe.pings()
                    : 0.0,
                "us");
  result.metric("exec.exchange_ms", self("exec.exchange"), "ms");
  result.metric("net.checksum_gb_per_s",
                rate(count(probe.payload_bytes()), self("net.checksum")),
                "GB/s");
  result.metric("net.encode_gather_gb_per_s",
                rate(count(probe.payload_bytes()), self("net.encode_gather")),
                "GB/s");
  result.metric("net.wire_msgs", count(last.wire_msgs), "count");
  result.metric("net.wire_bytes", count(last.wire_bytes), "bytes");
  result.metric("net.frame_overhead_bytes",
                last.wire_bytes > last.remote_bytes
                    ? count(last.wire_bytes - last.remote_bytes)
                    : 0.0,
                "bytes");
  result.metric("persist.hash_gb_per_s",
                rate(count(probe.payload_bytes()), self("persist.fnv1a")),
                "GB/s");
  result.metric("persist.runs_written", count(last.snapshot_runs), "count");
  result.metric("persist.epochs", count(info.epochs), "count");
  result.metric("persist.sealed_scan_ms", self("persist.sealed_epochs"), "ms");
  result.metric("persist.snapshot_bytes", count(last.snapshot_bytes), "bytes");
  result.metric("persist.restore_ms", self("persist.restore"), "ms");

  // Tracing overhead: traced against untraced operations of the same run
  // (compile + run; the spans sit around library calls, not inside them).
  const auto op_ms = [](const OpTotals& t) { return t.compile_ms + t.run_ms; };
  const double plain_ms = median_of(plain, op_ms);
  const double traced_ms = median_of(traced, op_ms);
  result.metric("trace.untraced_op_ms", plain_ms, "ms");
  result.metric("trace.traced_op_ms", traced_ms, "ms");
  result.metric("trace.overhead_pct",
                plain_ms > 0.0 ? 100.0 * (traced_ms - plain_ms) / plain_ms
                               : 0.0,
                "%");
}

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "remap_loop")
    return std::make_unique<RemapLoop>(options);
  if (options.workload == "proc_fused")
    return std::make_unique<ProcFused>(options);
  if (options.workload == "compile_corpus")
    return std::make_unique<CompileCorpus>(options);
  if (options.workload == "checkpoint_restore")
    return std::make_unique<CheckpointRestore>(options);
  return nullptr;
}

void run_benchmark(Workload& workload, Result& result,
                   Clock::time_point process_start) {
  const Options& options = result.options();
  try {
    workload.setup(result);
  } catch (const std::exception& e) {
    result.check(false, std::string("setup failed: ") + e.what());
    workload.cleanup();
    return;
  }
  const double setup_s = ms_between(process_start, Clock::now()) / 1e3;

  // Whole operations until the time is up; in traced runs every second
  // operation is traced (and followed by the layer probes), so the
  // untraced ones in between measure the tracing overhead.
  std::vector<OpTotals> plain;
  std::vector<OpTotals> traced;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  const int min_ops = options.trace ? 4 : 3;
  for (int op = 0;; ++op) {
    const bool trace_op = options.trace && op % 2 == 1;
    tracer().set_enabled(trace_op);
    tracer().set_run(op);
    try {
      OpTotals totals;
      {
        Span span("operation");
        totals = workload.operation(result, trace_op);
      }
      if (trace_op) {
        Span span("probe");
        workload.info.probe->run();
      }
      (trace_op ? traced : plain).push_back(totals);
    } catch (const std::exception& e) {
      result.failed += workload.executions_per_op();
      std::fprintf(stderr, "hpfbench: operation %d failed: %s\n", op,
                   e.what());
    }
    tracer().set_enabled(false);
    result.attempted += workload.executions_per_op();
    if (op + 1 >= min_ops && (op + 1) % 2 == 0 && Clock::now() >= deadline)
      break;
  }

  // The program's counters are deterministic: every operation must
  // report the same ones.
  std::set<std::vector<std::uint64_t>> distinct;
  for (const auto& t : plain) distinct.insert(t.counters());
  for (const auto& t : traced) distinct.insert(t.counters());
  result.check(distinct.size() <= 1,
               "counters differ between executions of the same input");

  if (plain.empty() || (options.trace && traced.empty())) {
    result.check(false, "no operation completed");
  } else if (!options.trace) {
    const auto run_ms = per_op(plain, [](const OpTotals& t) { return t.run_ms; });
    std::fprintf(stderr,
                 "hpfbench: %zu operations, run_ms min %.3f p05 %.3f median "
                 "%.3f p90 %.3f max %.3f\n",
                 run_ms.size(), quantile(run_ms, 0.0),
                 quantile(run_ms, kLowQuantile), median(run_ms),
                 quantile(run_ms, 0.9), quantile(run_ms, 1.0));
    end_to_end_metrics(result, setup_s, plain);
  } else {
    layer_metrics(result, workload, plain, traced);
    fs::create_directories(options.out_dir);
    const std::string path = (fs::path(options.out_dir) /
                              ("trace-" + options.workload + "-" +
                               std::to_string(options.seed) + ".json"))
                                 .string();
    tracer().write(path);
    std::fprintf(stderr, "hpfbench: trace written to %s\n", path.c_str());
  }
  workload.cleanup();
}

}  // namespace hpfbench
