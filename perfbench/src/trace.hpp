#pragma once
// Outside-in layer tracing for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into each
// hpcpower module (and around the hooks it hands to the simulator); nothing
// inside the library is instrumented. Each thread appends to its own buffer,
// so recording takes no lock after a thread's first span.
//
// Two views of the same spans:
//   self time   a span's duration minus its direct children on the same
//               thread (busy time of the layer itself);
//   wall share  the operation's wall clock split across layers: at every
//               instant each thread inside a span credits its innermost
//               span's layer with 1/k of the time, k being the number of
//               threads inside spans at that instant. Wall shares add up to
//               the covered part of the operation's wall time even when two
//               campaigns run at once.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

struct LayerStats {
  std::uint64_t calls = 0;
  double self_ns = 0.0;
  double wall_ns = 0.0;
  std::vector<double> durations_ns;  ///< inclusive duration of every span
};

struct TraceSummary {
  std::map<std::string, LayerStats> layers;
  double covered_ns = 0.0;  ///< wall time during which any thread was in a span

  /// Stats of `layer`, or an empty record when no span of it was recorded.
  [[nodiscard]] const LayerStats& layer(const std::string& name) const;
};

/// Drops every recorded span. Call only while no thread is recording.
void trace_reset();

/// Summarizes everything recorded since the last trace_reset(). Call only
/// after every recording thread has been joined with the caller (pool tasks
/// waited for), so no span is still open.
[[nodiscard]] TraceSummary trace_summary();

/// One span on the calling thread, from construction to destruction. Spans
/// on one thread nest; `layer` must be a string literal (only the pointer is
/// stored).
class Span {
 public:
  explicit Span(const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench
