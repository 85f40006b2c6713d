// The benchmark's own arithmetic: percentiles, open-loop schedules and
// timings, and span self time. Header-only so the
// self-test (perfbench_selftest.cc) checks exactly what the benchmark runs.
#ifndef SDEA_PERFBENCH_BENCH_STATS_H_
#define SDEA_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"

namespace perfbench {

/// Median of repeated measurements (mean of the middle two for even n);
/// 0 for an empty input.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A latency percentile read off a sample: `value` is the sample at
/// nearest rank `rank` (1-based) of `n`, so `n - rank` samples lie beyond
/// it and `percentile` = rank / n.
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;
  int64_t rank = 0;
  int64_t n = 0;
};

/// Nearest-rank percentile q in (0, 1] of `v`. Empty input gives n = 0.
inline Percentile NearestRank(std::vector<double> v, double q) {
  Percentile p;
  p.n = static_cast<int64_t>(v.size());
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(p.n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, p.n);
  p.rank = rank;
  p.value = v[static_cast<size_t>(rank - 1)];
  p.percentile = static_cast<double>(rank) / static_cast<double>(p.n);
  return p;
}

/// The tail a sample supports: the highest percentile no higher than `cap`
/// that still has at least `beyond` samples above it. With n >= 1000 and
/// the default cap that is p99; smaller samples report a lower percentile
/// (stated in `percentile`). With n <= beyond no percentile qualifies and
/// the maximum is returned with percentile 1.
inline Percentile TailPercentile(std::vector<double> v, double cap = 0.99,
                                 int64_t beyond = 10) {
  Percentile p;
  p.n = static_cast<int64_t>(v.size());
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  int64_t rank;
  if (p.n <= beyond) {
    rank = p.n;
  } else {
    const auto cap_rank = static_cast<int64_t>(
        std::ceil(cap * static_cast<double>(p.n) - 1e-9));
    rank = std::clamp<int64_t>(std::min(cap_rank, p.n - beyond), 1, p.n);
  }
  p.rank = rank;
  p.value = v[static_cast<size_t>(rank - 1)];
  p.percentile = static_cast<double>(rank) / static_cast<double>(p.n);
  return p;
}

/// A tail that one burst of outside interference cannot set on its own:
/// `values` (in the order they were measured) are cut into `chunks`
/// consecutive slices of equal count, each slice's TailPercentile is
/// taken, and the median of those is returned.
inline double ChunkedTail(const std::vector<double>& values, int chunks = 5) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  const size_t k = std::clamp<size_t>(static_cast<size_t>(chunks), 1, n);
  std::vector<double> tails;
  for (size_t c = 0; c < k; ++c) {
    const size_t b = c * n / k, e = (c + 1) * n / k;
    tails.push_back(TailPercentile({values.begin() + static_cast<std::ptrdiff_t>(b),
                                    values.begin() + static_cast<std::ptrdiff_t>(e)})
                        .value);
  }
  return Median(tails);
}

/// Due times (seconds from the schedule start, ascending) of an open-loop
/// Poisson arrival process at `rate` requests/s over [0, duration_s).
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                           double duration_s) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  sdea::Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

/// One open-loop request's clock readings, seconds on one steady clock.
struct RequestTiming {
  double due = 0.0;   ///< When the schedule said to send it.
  double sent = 0.0;  ///< When the generator actually sent it.
  double done = 0.0;  ///< When its answer was available.
  bool ok = false;    ///< Answered without error.
};

/// Latency counted from the due time, so a stall that delays the sending
/// of later requests is charged to them. A failed request misses any limit.
inline double LatencyMs(const RequestTiming& t) {
  if (!t.ok) return std::numeric_limits<double>::infinity();
  return (t.done - t.due) * 1e3;
}

/// How late the generator sent the request.
inline double GeneratorLagMs(const RequestTiming& t) {
  return (t.sent - t.due) * 1e3;
}

/// Outcome of one fixed rate of an open-loop ladder.
struct RungSummary {
  double offered_qps = 0.0;   ///< Scheduled requests / rung duration.
  double achieved_qps = 0.0;  ///< Answered / (last answer - first due).
  Percentile p50;
  Percentile tail;            ///< TailPercentile of the latencies.
  double drain_ms = 0.0;      ///< Last answer minus last due time.
  int64_t failed = 0;
  bool sustained = false;     ///< Tail within the limit, no growing backlog.
};

/// Summarizes a rung that ran over [0, duration_s) of its schedule. The
/// backlog counts as growing when the answers finish later than one limit
/// after the last due time or fall behind the offered rate by over 10%.
inline RungSummary SummarizeRung(const std::vector<RequestTiming>& timings,
                                 double duration_s, double limit_ms) {
  RungSummary s;
  if (timings.empty() || duration_s <= 0.0) return s;
  std::vector<double> lat;
  lat.reserve(timings.size());
  double last_done = 0.0, last_due = 0.0, first_due = timings.front().due;
  int64_t answered = 0;
  for (const RequestTiming& t : timings) {
    lat.push_back(LatencyMs(t));
    last_due = std::max(last_due, t.due);
    first_due = std::min(first_due, t.due);
    if (t.ok) {
      ++answered;
      last_done = std::max(last_done, t.done);
    } else {
      ++s.failed;
    }
  }
  s.offered_qps = static_cast<double>(timings.size()) / duration_s;
  const double span = last_done - first_due;
  s.achieved_qps = span > 0.0 ? static_cast<double>(answered) / span : 0.0;
  s.p50 = NearestRank(lat, 0.5);
  s.tail = TailPercentile(lat);
  s.drain_ms = (last_done - last_due) * 1e3;
  s.sustained = s.failed == 0 && s.tail.value <= limit_ms &&
                s.drain_ms <= limit_ms &&
                s.achieved_qps >= 0.9 * s.offered_qps;
  return s;
}

/// A recorded span: a named [start_us, end_us) interval whose parent is
/// the span that caused it (-1 for a root). Served requests carry their
/// request id (-1 otherwise).
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t request = -1;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// children are clipped to the parent). Returned in input order, in us.
inline std::vector<int64_t> SelfTimesUs(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  std::vector<int64_t> index_of_id;
  int64_t max_id = -1;
  for (const SpanRecord& s : spans) max_id = std::max(max_id, s.id);
  index_of_id.assign(static_cast<size_t>(max_id + 1), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id >= 0) index_of_id[static_cast<size_t>(spans[i].id)] = static_cast<int64_t>(i);
  }
  for (const SpanRecord& s : spans) {
    if (s.parent < 0 || s.parent > max_id) continue;
    const int64_t p = index_of_id[static_cast<size_t>(s.parent)];
    if (p < 0) continue;
    const SpanRecord& ps = spans[static_cast<size_t>(p)];
    const int64_t b = std::max(s.start_us, ps.start_us);
    const int64_t e = std::min(s.end_us, ps.end_us);
    if (e > b) kids[static_cast<size_t>(p)].push_back({b, e});
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (cur_e < cur_b || b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // SDEA_PERFBENCH_BENCH_STATS_H_
