#include "trace.hpp"

#include "telemetry/perf.hpp"

namespace perfbench {

namespace {

std::uint64_t allocs_now() { return lagover::telemetry::alloc_stats().allocs; }

std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

Tracer::Tracer() { spans_.reserve(1 << 16); }

std::int32_t Tracer::open(const char* name) {
  if (!recording_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.trace_id = trace_id_;
  span.allocs = allocs_now();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  // Stamp last so the span's own bookkeeping is not inside it.
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  const std::uint64_t end = now_ns();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  span.allocs = allocs_now() - span.allocs;
  stack_.pop_back();
}

void Tracer::finish() {
  for (Span& span : spans_) {
    span.self_ns = span.duration_ns();
    span.self_allocs = span.allocs;
  }
  // Children are recorded after their parent, so one pass suffices.
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    parent.self_ns -= span.duration_ns();
    parent.self_allocs -= span.allocs;
  }
}

std::map<std::string, LayerTotals> Tracer::by_name() const {
  std::map<std::string, LayerTotals> totals;
  for (const Span& span : spans_) {
    LayerTotals& t = totals[span.name];
    ++t.spans;
    t.total_ns += span.duration_ns();
    t.self_ns += span.self_ns;
    t.self_allocs += span.self_allocs;
  }
  return totals;
}

std::map<std::string, LayerTotals> Tracer::by_layer() const {
  std::map<std::string, LayerTotals> totals;
  for (const auto& [name, t] : by_name()) {
    LayerTotals& layer = totals[layer_of(name.c_str())];
    layer.spans += t.spans;
    layer.total_ns += t.total_ns;
    layer.self_ns += t.self_ns;
    layer.self_allocs += t.self_allocs;
  }
  return totals;
}

std::vector<double> Tracer::durations_ns(const char* name) const {
  const std::string wanted(name);
  std::vector<double> out;
  for (const Span& span : spans_)
    if (wanted == span.name)
      out.push_back(static_cast<double>(span.duration_ns()));
  return out;
}

void OverlayProbe::run(Tracer& tracer, const lagover::Overlay& overlay) {
  ++probes;
  {
    Tracer::Scope scope(tracer, "overlay.delay_at");
    for (lagover::NodeId id = 1; id < overlay.node_count(); ++id) {
      if (!overlay.online(id)) continue;
      depth_sum += overlay.delay_at(id);
      ++delay_queries;
    }
  }
  Tracer::Scope scope(tracer, "overlay.all_satisfied");
  static_cast<void>(overlay.all_satisfied());
}

}  // namespace perfbench
