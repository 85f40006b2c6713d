// Tests of the benchmark's own arithmetic. Exits nonzero on the first
// failed expectation; perfbench/run.py runs it before every benchmark run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "bench_trace.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTailPercentile() {
  // 1000 samples: p99 itself has exactly ten samples beyond it.
  Percentile p = TailPercentile(Iota(1000));
  Expect(p.rank == 990 && p.value == 990.0 && p.percentile == 0.99, "p99 at n=1000");
  Expect(p.n - p.rank == 10, "ten samples beyond p99 at n=1000");
  // 500 samples: p99 would leave five beyond, so the tail drops to p98.
  p = TailPercentile(Iota(500));
  Expect(p.rank == 490 && p.value == 490.0, "highest supported tail at n=500");
  Expect(p.n - p.rank == 10 && p.percentile == 0.98, "p98 at n=500");
  // 5000 samples: capped at p99 with more than ten beyond.
  p = TailPercentile(Iota(5000));
  Expect(p.rank == 4950 && p.n - p.rank >= 10, "cap at p99 for n=5000");
  // Unsorted input is sorted first.
  std::vector<double> v = Iota(100);
  std::swap(v[0], v[99]);
  p = TailPercentile(v);
  Expect(p.value == 90.0 && p.percentile == 0.9, "p90 at n=100, unsorted input");
  // Ten or fewer samples: no percentile qualifies, the maximum is reported.
  p = TailPercentile(Iota(7));
  Expect(p.value == 7.0 && p.percentile == 1.0, "max when n <= 10");
  Expect(TailPercentile({}).n == 0, "empty sample");
  Expect(NearestRank(Iota(10), 0.5).value == 5.0, "nearest-rank median");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
  // Five slices of 100: one slice holds a burst of eleven 1000 ms outliers.
  std::vector<double> burst;
  for (int c = 0; c < 5; ++c) {
    for (int i = 1; i <= 100; ++i) burst.push_back(c == 2 && i > 89 ? 1000.0 : i);
  }
  Expect(TailPercentile(burst).value == 1000.0, "pooled tail set by one burst");
  Expect(ChunkedTail(burst, 5) == 90.0, "chunked tail ignores one burst");
  for (double& x : burst) x += 5.0;
  Expect(ChunkedTail(burst, 5) == 95.0, "a rise in every slice moves it");
  Expect(ChunkedTail({5.0}, 5) == 5.0 && ChunkedTail({}, 5) == 0.0, "chunked tail edges");
}

void TestOpenLoopTiming() {
  // A request sent 3 ms late and answered 5 ms after sending is 8 ms late
  // for its user: latency counts from the due time, lag is the 3 ms.
  RequestTiming t{1.000, 1.003, 1.008, true};
  Expect(std::abs(LatencyMs(t) - 8.0) < 1e-9, "latency from due time");
  Expect(std::abs(GeneratorLagMs(t) - 3.0) < 1e-9, "generator lag");
  t.ok = false;
  Expect(LatencyMs(t) > 1e300, "failed request misses every limit");

  // A stall: the server blocks for 100 ms at t=0.5; requests due during
  // the stall are charged the wait even though their own service is fast.
  std::vector<RequestTiming> rung;
  for (int i = 0; i < 1000; ++i) {
    const double due = i * 0.001;
    const double done = (due >= 0.5 && due < 0.6) ? 0.6 + 0.0001 : due + 0.0001;
    rung.push_back({due, due, done, true});
  }
  RungSummary s = SummarizeRung(rung, 1.0, 50.0);
  Expect(s.tail.value > 50.0, "stall shows in the tail when timed from due");
  Expect(!s.sustained, "rung with a stall beyond the limit is not sustained");
  s = SummarizeRung(rung, 1.0, 150.0);
  Expect(s.sustained && std::abs(s.offered_qps - 1000.0) < 1e-9, "within a looser limit");

  // A growing backlog: answers fall further behind every request.
  std::vector<RequestTiming> behind;
  for (int i = 0; i < 1000; ++i) {
    const double due = i * 0.001;
    behind.push_back({due, due, due + i * 0.0005, true});
  }
  s = SummarizeRung(behind, 1.0, 1000.0);
  Expect(!s.sustained && s.drain_ms > 400.0, "growing backlog is not sustained");
}

void TestSelfTime() {
  // parent [0,100) with children [10,30), [20,50) (overlapping) and
  // [90,120) (clipped to the parent): covered = 40 + 10, self = 50.
  std::vector<SpanRecord> spans = {
      {0, -1, "parent", 0, 100, -1},
      {1, 0, "a", 10, 30, -1},
      {2, 0, "b", 20, 50, -1},
      {3, 0, "c", 90, 120, -1},
      {4, 1, "grandchild", 12, 18, -1},
  };
  const std::vector<int64_t> self = SelfTimesUs(spans);
  Expect(self[0] == 50, "parent self time = duration - child coverage");
  Expect(self[1] == 14, "child self time excludes its own child");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self time = duration");

  // The recorder's parent links come from the thread's open spans.
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span outer(&tracer, "outer");
    Span inner(&tracer, "inner", 42);
  }
  const auto rec = tracer.spans();
  Expect(rec.size() == 2 && rec[1].parent == rec[0].id && rec[1].request == 42 &&
             rec[0].end_us >= rec[1].end_us,
         "span nesting and request id");
  Tracer off;
  { Span s(&off, "ignored"); }
  Expect(off.spans().empty(), "disabled tracer records nothing");
}

void TestDeterministicStreams() {
  const auto a = PoissonSchedule(7, 200.0, 5.0);
  const auto b = PoissonSchedule(7, 200.0, 5.0);
  const auto c = PoissonSchedule(8, 200.0, 5.0);
  Expect(a == b, "same seed, same schedule");
  Expect(a != c, "another seed, another schedule");
  Expect(a.size() > 900 && a.size() < 1100, "Poisson count near rate x duration");
  bool ascending = true;
  for (size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  Expect(ascending && a.back() < 5.0, "due times ascend within the duration");

  // The serve workload's query stream: Zipf ranks from sdea::Rng.
  sdea::Rng r1(3), r2(3), r3(4);
  std::vector<uint64_t> s1, s2, s3;
  int64_t top = 0;
  for (int i = 0; i < 5000; ++i) {
    s1.push_back(r1.Zipf(1000, 1.0));
    s2.push_back(r2.Zipf(1000, 1.0));
    s3.push_back(r3.Zipf(1000, 1.0));
    top += s1.back() == 0;
  }
  Expect(s1 == s2, "same seed, same query stream");
  Expect(s1 != s3, "another seed, another query stream");
  // Rng::Zipf's rejection sampler gives rank 0 about 7.6% of draws at
  // n = 1000 (an exact Zipf(1) would give 1/H(1000) ~ 13%).
  Expect(top > 250 && top < 500, "Zipf head share");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestOpenLoopTiming();
  TestSelfTime();
  TestDeterministicStreams();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
