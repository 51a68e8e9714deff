// The span tracer, the result record and the per-operation totals.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "bench.hpp"

namespace hpfbench {

// ------------------------------------------------------------------ stats

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ----------------------------------------------------------------- result

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  // The first failures name themselves; a broken invariant in a hot loop
  // must not flood the log.
  if (reported_failures_++ < 20)
    std::fprintf(stderr, "hpfbench: check failed: %s\n", what.c_str());
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string Result::json() const {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << (std::isfinite(entry.first) ? entry.first : 0.0) << ", \"unit\": \""
       << entry.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ----------------------------------------------------------------- tracer

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_ms = ms_between(origin_, Clock::now());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms =
      ms_between(origin_, Clock::now());
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::self_ms_per_run(const std::string& name) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  std::map<int, double> per_run;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == name)
      per_run[s.run] += (s.end_ms - s.start_ms) - child_ms[i];
  }
  std::vector<double> out;
  out.reserve(per_run.size());
  for (const auto& [run, ms] : per_run) out.push_back(ms);
  return out;
}

double Tracer::median_self_ms(const std::string& name) const {
  return median(self_ms_per_run(name));
}

std::map<std::string, double> Tracer::self_time_table() const {
  std::set<std::string> names;
  for (const Span& s : spans_) names.insert(s.name);
  std::map<std::string, double> table;
  for (const auto& name : names) table[name] = median_self_ms(name);
  return table;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << std::setprecision(9);
  out << "{\"schema\": \"hpfbench-trace-v1\",\n \"self_ms_median\": {";
  bool first = true;
  for (const auto& [name, ms] : self_time_table()) {
    out << (first ? "" : ", ") << '"' << name << "\": " << ms;
    first = false;
  }
  out << "},\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run << '}'
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

// ------------------------------------------------------------- op totals

void OpTotals::add(const hpfc::runtime::RunReport& report, double wall_ms,
                   bool reference) {
  run_ms += wall_ms;
  ++executions;
  exec_ms += report.exec_ms;
  pack_ms += report.pack_ms;
  exchange_ms += report.exchange_ms;
  unpack_ms += report.unpack_ms;
  snapshot_ms += report.snapshot_ms;
  if (!reference) return;
  elements += report.elements_copied;
  copies += static_cast<std::uint64_t>(report.copies_performed);
  messages += report.net.messages;
  supersteps += report.net.supersteps;
  peak_bytes += report.peak_bytes;
  remote_bytes += report.net.bytes;
  wire_bytes += report.wire_bytes;
  wire_msgs += report.wire_msgs;
  live_reuse += static_cast<std::uint64_t>(report.skipped_live_copy);
  already_mapped += static_cast<std::uint64_t>(report.skipped_already_mapped);
  plan_cache_hits += report.net.plan_cache_hits;
  plan_cache_misses += report.net.plan_cache_misses;
  snapshot_bytes += report.snapshot_bytes;
  snapshot_runs += report.snapshot_runs_written;
}

std::vector<std::uint64_t> OpTotals::counters() const {
  return {executions,     elements,        copies,
          messages,       supersteps,      peak_bytes,
          remote_bytes,   wire_bytes,      wire_msgs,
          live_reuse,     already_mapped,  plan_cache_hits,
          plan_cache_misses, snapshot_bytes, snapshot_runs};
}

}  // namespace hpfbench
