#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

namespace perfbench {

namespace {

struct SpanRecord {
  const char* layer = nullptr;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::uint32_t depth = 0;
};

struct ThreadBuffer {
  std::vector<SpanRecord> spans;   ///< in begin order
  std::vector<std::size_t> open;   ///< indices of open spans, innermost last
};

// Buffers live as long as the process: a pool worker that exits (the pool is
// rebuilt when the thread count changes) leaves its buffer behind, which the
// next trace_reset() empties.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const LayerStats& TraceSummary::layer(const std::string& name) const {
  static const LayerStats kEmpty;
  const auto it = layers.find(name);
  return it == layers.end() ? kEmpty : it->second;
}

Span::Span(const char* layer) {
  ThreadBuffer& buf = local_buffer();
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back({layer, now_ns(), -1, static_cast<std::uint32_t>(buf.open.size() - 1)});
}

Span::~Span() {
  ThreadBuffer& buf = local_buffer();
  buf.spans[buf.open.back()].end_ns = now_ns();
  buf.open.pop_back();
}

void trace_reset() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& buf : g_buffers) {
    buf->spans.clear();
    buf->open.clear();
  }
}

TraceSummary trace_summary() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  TraceSummary out;

  struct Event {
    std::int64_t t;
    int kind;  // 0 = end, 1 = begin (ends first at equal times)
    std::int64_t order;  // ends: deeper first; begins: shallower first
    std::size_t thread;
    const char* layer;
  };
  std::vector<Event> events;
  for (std::size_t t = 0; t < g_buffers.size(); ++t) {
    const auto& spans = g_buffers[t]->spans;
    if (!g_buffers[t]->open.empty())
      throw std::logic_error("trace_summary with a span still open");
    // Self time: a span's duration minus its direct children's durations.
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      while (!stack.empty() && spans[stack.back()].depth >= s.depth) stack.pop_back();
      const auto dur = static_cast<double>(s.end_ns - s.begin_ns);
      if (!stack.empty()) child_ns[stack.back()] += dur;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const auto dur = static_cast<double>(s.end_ns - s.begin_ns);
      LayerStats& l = out.layers[s.layer];
      ++l.calls;
      l.self_ns += dur - child_ns[i];
      l.durations_ns.push_back(dur);
      if (s.end_ns == s.begin_ns) continue;  // holds no wall time to share
      events.push_back({s.begin_ns, 1, static_cast<std::int64_t>(s.depth), t, s.layer});
      events.push_back({s.end_ns, 0, -static_cast<std::int64_t>(s.depth), t, s.layer});
    }
  }

  // Wall share: sweep the merged begin/end events of all threads.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.t, a.kind, a.order) < std::tie(b.t, b.kind, b.order);
  });
  std::vector<std::vector<LayerStats*>> stacks(g_buffers.size());
  std::size_t active = 0;
  std::int64_t prev = events.empty() ? 0 : events.front().t;
  for (const Event& e : events) {
    if (e.t > prev && active > 0) {
      const double share = static_cast<double>(e.t - prev) / static_cast<double>(active);
      for (const auto& stack : stacks)
        if (!stack.empty()) stack.back()->wall_ns += share;
      out.covered_ns += static_cast<double>(e.t - prev);
    }
    prev = e.t;
    auto& stack = stacks[e.thread];
    if (e.kind == 1) {
      if (stack.empty()) ++active;
      stack.push_back(&out.layers[e.layer]);
    } else {
      stack.pop_back();
      if (stack.empty()) --active;
    }
  }
  return out;
}

}  // namespace perfbench
