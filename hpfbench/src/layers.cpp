// Compilation helpers and the per-layer probes. Every layer is measured
// from outside, by timing calls into its public functions on the
// workload's own shapes and buffers.
#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "codegen/gen.hpp"
#include "exec/proc_backend.hpp"
#include "hpf/parser.hpp"
#include "mapping/symbolic.hpp"
#include "net/wire.hpp"
#include "opt/passes.hpp"
#include "persist/hash.hpp"
#include "redist/kernelgen.hpp"
#include "redist/symbolic_plan.hpp"

namespace hpfbench {

using hpfc::driver::Compiled;

// ------------------------------------------------------------ compilation

Compiled compile(std::string_view source, OptLevel level) {
  hpfc::DiagnosticEngine diags;
  hpfc::driver::CompileOptions options;
  options.level = level;
  Compiled compiled = hpfc::driver::compile_source(source, options, diags);
  if (!compiled.ok)
    throw std::runtime_error("benchmark input does not compile at " +
                             std::string(hpfc::driver::to_string(level)) +
                             ": " + diags.to_string());
  return compiled;
}

Compiled compile_phased(std::string_view source, OptLevel level) {
  hpfc::DiagnosticEngine diags;
  Compiled result;
  {
    Span span("hpf.parse");
    result.program = hpfc::hpf::parse(source, diags);
  }
  if (!diags.has_errors() && level == OptLevel::O2) {
    Span span("opt.hoist");
    result.opt_report.hoisted_remaps =
        hpfc::opt::hoist_loop_invariant_remaps(result.program);
  }
  if (!diags.has_errors()) {
    Span span("remap.analyze");
    result.analysis = hpfc::remap::analyze(result.program, diags);
  }
  if (!result.analysis.ok)
    throw std::runtime_error("benchmark input does not analyze: " +
                             diags.to_string());
  hpfc::codegen::CodegenOptions cg;
  cg.use_maybe_live = level == OptLevel::O2;
  cg.skip_dead_transfers = level != OptLevel::O0;
  if (level != OptLevel::O0) {
    Span span("opt.useless");
    hpfc::opt::remove_useless_remappings(result.analysis, result.opt_report);
  }
  if (level == OptLevel::O2) {
    Span span("opt.maybe_live");
    hpfc::opt::compute_maybe_live(result.analysis);
  }
  {
    Span span("codegen.generate");
    result.code = hpfc::codegen::generate(result.program, result.analysis, cg);
  }
  result.ok = !diags.has_errors();
  return result;
}

namespace {

int count_list(const hpfc::codegen::OpList& ops) {
  int count = 0;
  for (const auto& op : ops) count += 1 + count_list(op.body);
  return count;
}

template <typename Fn>
void for_each_op(const hpfc::codegen::OpList& ops, const Fn& fn) {
  for (const auto& op : ops) {
    fn(op);
    for_each_op(op.body, fn);
  }
}

template <typename Fn>
void for_each_op(const hpfc::codegen::RuntimeProgram& code, const Fn& fn) {
  for_each_op(code.at_entry, fn);
  for (const auto& ops : code.at_node) for_each_op(ops, fn);
  for_each_op(code.at_exit, fn);
}

}  // namespace

int count_ops(const hpfc::codegen::RuntimeProgram& code) {
  int count = count_list(code.at_entry) + count_list(code.at_exit);
  for (const auto& ops : code.at_node) count += count_list(ops);
  return count;
}

bool same_code(const Compiled& a, const Compiled& b) {
  return count_ops(a.code) == count_ops(b.code) &&
         a.code.plan_slots == b.code.plan_slots &&
         a.code.copy_groups == b.code.copy_groups &&
         a.code.plan_family_count == b.code.plan_family_count &&
         a.code.save_slots == b.code.save_slots;
}

// ----------------------------------------------------------- layer probes

namespace {

namespace redist = hpfc::redist;
namespace mapping = hpfc::mapping;
namespace net = hpfc::net;

std::vector<std::vector<net::Message>> message_set(
    const std::vector<redist::SegmentProgram>& programs, int ranks) {
  std::vector<std::vector<net::Message>> outboxes(
      static_cast<std::size_t>(ranks));
  int tag = 0;
  for (const auto& p : programs) {
    ++tag;
    if (p.src == p.dst) continue;
    net::Message m;
    m.src = p.src;
    m.dst = p.dst;
    m.tag = tag;
    m.payload.assign(static_cast<std::size_t>(p.elements), 1.0);
    m.segments = static_cast<int>(p.segments.size());
    outboxes[static_cast<std::size_t>(p.src)].push_back(std::move(m));
  }
  return outboxes;
}

}  // namespace

struct LayerProbe::Pair {
  mapping::ConcreteLayout from;
  mapping::ConcreteLayout to;
  std::optional<mapping::SymbolicLayout> symbolic_from;
  std::optional<mapping::SymbolicLayout> symbolic_to;
  std::vector<redist::SegmentProgram> programs;
  std::vector<redist::Kernel> kernels;
};

LayerProbe::LayerProbe(const std::vector<const Compiled*>& programs,
                       hpfc::exec::BackendKind backend, int threads)
    : backend_(backend), threads_(threads) {
  std::map<std::string, std::size_t> seen_pairs;
  std::map<std::string, bool> seen_layouts;
  for (const Compiled* compiled : programs) {
    const auto& versions = compiled->analysis.versions;
    for (const auto& table : versions)
      for (int v = 0; v < table.size(); ++v) {
        const auto& layout = table.layout(v);
        if (seen_layouts.emplace(layout.to_string(), true).second)
          layouts_.push_back(layout);
      }
    for_each_op(compiled->code, [&](const hpfc::codegen::Op& op) {
      if (op.kind != hpfc::codegen::OpKind::Copy) return;
      const auto& table = versions[static_cast<std::size_t>(op.array)];
      const auto& from = table.layout(op.src_version);
      const auto& to = table.layout(op.version);
      if (!seen_pairs.emplace(from.to_string() + " -> " + to.to_string(),
                              pairs_.size())
               .second)
        return;
      auto pair = std::make_unique<Pair>();
      pair->from = from;
      pair->to = to;
      pair->symbolic_from = mapping::SymbolicLayout::abstract(from);
      pair->symbolic_to = mapping::SymbolicLayout::abstract(to);
      if (pair->symbolic_from && pair->symbolic_to) ++binds_;
      ranks_ = std::max({ranks_, from.ranks(), to.ranks()});
      pairs_.push_back(std::move(pair));
    });
  }
}

LayerProbe::~LayerProbe() = default;

void LayerProbe::run() {
  std::uint64_t sink = 0;
  {
    Span span("mapping.owned_runs");
    for (const auto& layout : layouts_)
      for (int r = 0; r < layout.ranks(); ++r)
        layout.for_each_owned_run(r, [&](const mapping::OwnedRun& run) {
          sink += static_cast<std::uint64_t>(run.len);
        });
  }

  // Redistribution plans, compiled transfers and kernels, pair by pair,
  // on the workload's own layouts.
  std::uint64_t segments = 0;
  std::uint64_t pack_bytes = 0;
  std::uint64_t remote_bytes = 0;
  mapping::Extent max_local = 1;
  mapping::Extent max_payload = 1;
  for (auto& pair : pairs_) {
    redist::RedistPlanV2 plan;
    {
      Span span("redist.plan_build");
      plan = redist::build_runs(pair->from, pair->to);
    }
    if (pair->symbolic_from && pair->symbolic_to) {
      redist::SymbolicPlan symbolic(*pair->symbolic_from, *pair->symbolic_to);
      Span span("redist.symbolic_bind");
      const auto instance =
          symbolic.instantiate(pair->from.array_shape(),
                               pair->from.proc_shape(), pair->to.proc_shape());
      sink += instance->plan.transfers.size();
    }
    pair->programs.clear();
    {
      Span span("redist.compile_transfer");
      for (const auto& t : plan.transfers)
        pair->programs.push_back(redist::compile_transfer(
            t, pair->from.owned_index_runs(t.src),
            pair->to.owned_index_runs(t.dst)));
    }
    pair->kernels.clear();
    {
      Span span("redist.specialize");
      for (const auto& p : pair->programs)
        pair->kernels.push_back(redist::specialize(p));
    }
    for (int r = 0; r < pair->from.ranks(); ++r)
      max_local = std::max(max_local, pair->from.local_count(r));
    for (int r = 0; r < pair->to.ranks(); ++r)
      max_local = std::max(max_local, pair->to.local_count(r));
    for (const auto& p : pair->programs) {
      segments += p.segments.size();
      pack_bytes += static_cast<std::uint64_t>(p.elements) * sizeof(double);
      if (p.src != p.dst)
        remote_bytes += static_cast<std::uint64_t>(p.elements) * sizeof(double);
      max_payload = std::max(max_payload, p.elements);
    }
  }
  segments_ = segments;
  payload_bytes_ = remote_bytes;
  pack_bytes_ = pack_bytes;

  // Kernels, checksums and hashes over the packed payloads.
  std::vector<double> src_local(static_cast<std::size_t>(max_local), 1.0);
  std::vector<double> dst_local(static_cast<std::size_t>(max_local), 0.0);
  std::vector<double> payload(static_cast<std::size_t>(max_payload), 0.0);
  for (auto& pair : pairs_) {
    for (std::size_t i = 0; i < pair->programs.size(); ++i) {
      const auto& p = pair->programs[i];
      const auto& k = pair->kernels[i];
      const std::span<double> window(payload.data(),
                                     static_cast<std::size_t>(p.elements));
      {
        Span span("redist.pack");
        k.pack(std::span<const double>(
                   src_local.data(),
                   static_cast<std::size_t>(pair->from.local_count(p.src))),
               window);
      }
      {
        Span span("redist.unpack");
        k.unpack(window, std::span<double>(
                             dst_local.data(),
                             static_cast<std::size_t>(
                                 pair->to.local_count(p.dst))));
      }
      if (p.src == p.dst) continue;
      const std::span<const std::uint8_t> bytes(
          reinterpret_cast<const std::uint8_t*>(payload.data()),
          window.size() * sizeof(double));
      {
        Span span("net.checksum");
        sink += net::wire::checksum_bytes(bytes);
      }
      {
        Span span("persist.fnv1a");
        sink += hpfc::persist::fnv1a(bytes.data(), bytes.size());
      }
    }
  }

  // The execution backend: step rounds, proc start/stop and pings, and
  // one exchange superstep per pair carrying that pair's remote messages.
  std::unique_ptr<hpfc::exec::Backend> backend;
  {
    std::optional<Span> span;
    if (proc()) span.emplace("exec.proc_start");
    backend = hpfc::exec::make_backend(backend_, ranks_, {}, threads_);
  }
  {
    Span span("exec.step");
    for (int i = 0; i < step_rounds_; ++i) backend->step([](int) {});
  }
  if (proc()) {
    auto& procs = static_cast<hpfc::exec::ProcBackend&>(*backend);
    pings_ = ranks_;
    Span span("exec.proc_ping");
    for (int r = 0; r < ranks_; ++r) procs.ping(r, 512);
  }
  for (auto& pair : pairs_) {
    auto outboxes = message_set(pair->programs, ranks_);
    for (int r = 0; r < ranks_; ++r) {
      const auto& box = outboxes[static_cast<std::size_t>(r)];
      if (box.empty()) continue;
      Span span("net.encode_gather");
      const auto frame = net::wire::encode_frame_gather(
          net::wire::FrameKind::Outbox, r, box);
      sink += frame.bytes;
    }
    Span span("exec.exchange");
    const auto inboxes = backend->exchange(std::move(outboxes));
    sink += inboxes.size();
  }
  {
    std::optional<Span> span;
    if (proc()) span.emplace("exec.proc_stop");
    backend.reset();
  }
  sink_ += sink;
}

}  // namespace hpfbench
