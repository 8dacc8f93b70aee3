/// \file trace.cpp
/// Reads the Chrome trace qfc::obs exports and derives the per-layer
/// self-time table and the span coverage of a pass.

#include <algorithm>
#include <map>
#include <set>

#include "bench.hpp"

namespace perfbench {

namespace {

bool is_bench_span(std::string_view name) { return name.rfind("bench.", 0) == 0; }

std::string layer_of(std::string_view name) {
  if (is_bench_span(name)) {
    name.remove_prefix(6);
    const auto dot = name.find('.');
    return dot == std::string_view::npos ? "bench" : std::string(name.substr(0, dot));
  }
  const std::string_view head = name.substr(0, name.find('.'));
  if (head == "engine") return "detect";
  if (head == "network") return "core";
  if (head == "pool") return "parallel";
  return std::string(head);
}

std::vector<SelfTime> sorted(std::map<std::string, SelfTime> rows) {
  std::vector<SelfTime> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.self_s > b.self_s; });
  return out;
}

}  // namespace

std::vector<Span> parse_trace(const std::string& trace_json) {
  // obs writes one event object per line; parsing line by line keeps memory
  // proportional to one event instead of the whole document tree.
  std::vector<Span> spans;
  std::size_t pos = 0;
  while (pos < trace_json.size()) {
    std::size_t end = trace_json.find('\n', pos);
    if (end == std::string::npos) end = trace_json.size();
    std::string_view line(trace_json.data() + pos, end - pos);
    pos = end + 1;
    if (line.rfind("{\"name\"", 0) != 0) continue;
    if (line.back() == ',') line.remove_suffix(1);
    const qfc::io::Json ev = qfc::io::Json::parse(line);
    Span s;
    s.name = ev.find("name")->string_value();
    s.tid = static_cast<std::uint32_t>(ev.find("tid")->int_value());
    s.t0_us = ev.find("ts")->number_value();
    s.dur_us = ev.find("dur")->number_value();
    spans.push_back(std::move(s));
  }
  return spans;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  // Spans on one thread nest (they are scoped guards), so a stack walk in
  // start order finds each span's direct parent.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.t0_us != y.t0_us) return x.t0_us < y.t0_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Span& s = spans[order[k]];
    if (k > 0 && spans[order[k - 1]].tid != s.tid) stack.clear();
    while (!stack.empty() && spans[stack.back()].t1_us() <= s.t0_us) stack.pop_back();
    if (!stack.empty())
      child_us[stack.back()] += std::min(s.t1_us(), spans[stack.back()].t1_us()) - s.t0_us;
    stack.push_back(order[k]);
  }
  std::map<std::string, SelfTime> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& row = rows[spans[i].name];
    row.name = spans[i].name;
    ++row.count;
    row.total_s += spans[i].dur_us * 1e-6;
    row.self_s += std::max(0.0, spans[i].dur_us - child_us[i]) * 1e-6;
  }
  return sorted(std::move(rows));
}

std::vector<SelfTime> by_layer(const std::vector<SelfTime>& rows) {
  std::map<std::string, SelfTime> layers;
  for (const SelfTime& row : rows) {
    const std::string layer = layer_of(row.name);
    SelfTime& l = layers[layer];
    l.name = layer;
    l.count += row.count;
    l.total_s += row.total_s;
    l.self_s += row.self_s;
  }
  return sorted(std::move(layers));
}

double program_coverage(const std::vector<Span>& spans, double t0_us, double t1_us) {
  std::vector<std::pair<double, double>> intervals;
  for (const Span& s : spans) {
    if (is_bench_span(s.name)) continue;
    const double a = std::max(t0_us, s.t0_us);
    const double b = std::min(t1_us, s.t1_us());
    if (b > a) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = t0_us;
  for (const auto& [a, b] : intervals) {
    if (b <= reach) continue;
    covered += b - std::max(a, reach);
    reach = b;
  }
  return t1_us > t0_us ? covered / (t1_us - t0_us) : 0.0;
}

std::size_t distinct_threads(const std::vector<Span>& spans, std::string_view name,
                             double t0_us, double t1_us) {
  std::set<std::uint32_t> tids;
  for (const Span& s : spans)
    if (s.name == name && s.t0_us >= t0_us && s.t0_us <= t1_us) tids.insert(s.tid);
  return tids.size();
}

}  // namespace perfbench
