#pragma once
// Order statistics used for every reported figure.

#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument when `values` is empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, `p` in [0, 100]: the smallest value with at
/// least p% of the samples at or below it (p = 0 gives the minimum).
/// Throws std::invalid_argument on an empty input or p outside [0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace perfbench
