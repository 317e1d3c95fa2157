#include "ledger.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <vector>

#include "driver.h"

namespace e2e {
namespace {

using lira::telemetry::SpanRecord;

constexpr double kNsToS = 1e-9;

std::string LayerOf(const char* name) {
  const std::string_view view(name);
  return std::string(view.substr(0, view.find('.')));
}

bool IsPass(const char* name) {
  return std::strcmp(name, kNodePass) == 0 ||
         std::strcmp(name, kSamplePass) == 0;
}

int64_t EndOf(const SpanRecord& span) {
  return span.start_ns + span.duration_ns;
}

std::vector<const SpanRecord*> SortedSpans(
    const lira::telemetry::TraceLane& lane, bool driver, int64_t from_ns,
    int64_t to_ns) {
  std::vector<const SpanRecord*> out;
  for (const SpanRecord& span : lane.spans()) {
    if (IsDriverSpan(span.name) == driver && span.start_ns >= from_ns &&
        span.start_ns < to_ns) {
      out.push_back(&span);
    }
  }
  // Parents before the children they contain.
  std::sort(out.begin(), out.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_ns != b->start_ns
                         ? a->start_ns < b->start_ns
                         : a->duration_ns > b->duration_ns;
            });
  return out;
}

}  // namespace

bool IsDriverSpan(const char* name) {
  static constexpr const char* kLayers[] = {"roadnet.", "mobility.", "motion.",
                                            "cq.",      "core.",     "server.",
                                            "sim."};
  for (const char* prefix : kLayers) {
    if (std::strncmp(name, prefix, std::strlen(prefix)) == 0) {
      return true;
    }
  }
  return false;
}

Ledger BuildLedger(const lira::telemetry::TraceRecorder& trace,
                   int64_t loop_start_ns, int64_t loop_end_ns,
                   int32_t first_worker_lane, double core_adapt_s) {
  Ledger ledger;
  ledger.loop_s = static_cast<double>(loop_end_ns - loop_start_ns) * kNsToS;
  const lira::telemetry::TraceLane& main_lane =
      *trace.lane(lira::telemetry::TraceRecorder::kDriverLane);

  for (const SpanRecord* span :
       SortedSpans(main_lane, /*driver=*/true, 0, loop_start_ns)) {
    ledger.setup_s[span->name] += static_cast<double>(span->duration_ns) *
                                  kNsToS;
  }

  std::vector<std::vector<const SpanRecord*>> worker_spans;
  for (int32_t lane = first_worker_lane; lane < trace.num_lanes(); ++lane) {
    worker_spans.push_back(SortedSpans(*trace.lane(lane), /*driver=*/true,
                                       loop_start_ns, loop_end_ns));
  }
  std::vector<size_t> next(worker_spans.size(), 0);

  // Lane 0 walk: gaps between top-level driver spans are unaccounted,
  // overlaps are double counted.
  int64_t cursor = loop_start_ns;
  double unaccounted_ns = 0.0;
  double pass_idle_ns = 0.0;
  std::map<std::string, double> self_ns;
  for (const SpanRecord* span :
       SortedSpans(main_lane, /*driver=*/true, loop_start_ns, loop_end_ns)) {
    if (span->start_ns > cursor) {
      unaccounted_ns += static_cast<double>(span->start_ns - cursor);
    }
    cursor = std::max(cursor, EndOf(*span));
    if (!IsPass(span->name)) {
      self_ns[LayerOf(span->name)] += static_cast<double>(span->duration_ns);
      continue;
    }
    std::map<std::string, double> busy_ns;
    double busy_total_ns = 0.0;
    int32_t lanes_used = 0;
    for (size_t w = 0; w < worker_spans.size(); ++w) {
      const std::vector<const SpanRecord*>& spans = worker_spans[w];
      bool used = false;
      while (next[w] < spans.size() &&
             spans[next[w]]->start_ns <= EndOf(*span)) {
        const SpanRecord& inner = *spans[next[w]++];
        if (inner.start_ns < span->start_ns) {
          continue;  // outside every pass; never charged
        }
        busy_ns[LayerOf(inner.name)] += static_cast<double>(inner.duration_ns);
        busy_total_ns += static_cast<double>(inner.duration_ns);
        used = true;
      }
      lanes_used += used ? 1 : 0;
    }
    const double lanes = std::max(1, lanes_used);
    for (const auto& [layer, ns] : busy_ns) {
      self_ns[layer] += ns / lanes;
    }
    pass_idle_ns +=
        static_cast<double>(span->duration_ns) - busy_total_ns / lanes;
  }
  if (loop_end_ns > cursor) {
    unaccounted_ns += static_cast<double>(loop_end_ns - cursor);
  }

  self_ns["sim"] += pass_idle_ns;
  for (const auto& [layer, ns] : self_ns) {
    ledger.layer_self_s[layer] = ns * kNsToS;
  }
  ledger.layer_self_s["server"] -= core_adapt_s;
  ledger.layer_self_s["core"] += core_adapt_s;
  ledger.unaccounted_s = unaccounted_ns * kNsToS;
  ledger.pass_idle_s = pass_idle_ns * kNsToS;

  for (int32_t lane = 0; lane < trace.num_lanes(); ++lane) {
    for (const SpanRecord* span : SortedSpans(*trace.lane(lane), true,
                                              loop_start_ns, loop_end_ns)) {
      ledger.driver_s[span->name] +=
          static_cast<double>(span->duration_ns) * kNsToS;
    }
    // Program spans: self time = duration minus directly nested spans.
    struct Open {
      const SpanRecord* span;
      int64_t child_ns;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& open) {
      ledger.program_self_s[open.span->name] +=
          static_cast<double>(open.span->duration_ns - open.child_ns) *
          kNsToS;
    };
    for (const SpanRecord* span : SortedSpans(*trace.lane(lane), false,
                                              loop_start_ns, loop_end_ns)) {
      while (!stack.empty() && EndOf(*stack.back().span) <= span->start_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty() && EndOf(*span) <= EndOf(*stack.back().span)) {
        stack.back().child_ns += span->duration_ns;
      }
      stack.push_back({span, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return ledger;
}

}  // namespace e2e
