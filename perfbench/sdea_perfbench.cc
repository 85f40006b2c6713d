// End-to-end benchmark runner. Usage (normally through perfbench/run.py):
//
//   sdea_perfbench --workload fit_pipeline|serve_open|stream_refresh
//                  --seed N --seconds S --trace 0|1
//                  --work-dir DIR --out-dir DIR [--commit ID]
//
// --trace 0 runs the workload with every trace switched off and prints the
// end-to-end metrics. --trace 1 runs it once more untraced and once with
// the benchmark's spans and the program's own spans on, and prints the
// per-layer metrics plus the tracing overhead. Every output check runs in
// both modes; any failure exits nonzero. The last stdout line is the JSON
// result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "base/logging.h"
#include "base/threadpool.h"
#include "bench_common.h"
#include "obs/obs.h"
#include "tensor/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    s += (first ? "" : ", ");
    s += "\"" + name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return s + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: sdea_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out-dir DIR [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--work-dir") o.work_dir = value;
    else if (flag == "--out-dir") o.out_dir = value;
    else if (flag == "--commit") commit = value;
    else return Usage();
  }
  if (argc % 2 != 1 || (trace != 0 && trace != 1) || o.seconds <= 0 ||
      o.work_dir.empty() || o.out_dir.empty()) {
    return Usage();
  }
  o.trace = trace == 1;
  std::function<Outcome(const Options&, bool, int, Tracer*)> run;
  if (o.workload == "fit_pipeline") run = RunFit;
  else if (o.workload == "serve_open") run = RunServe;
  else if (o.workload == "stream_refresh") run = RunStream;
  else return Usage();
  // At the default pool size this small fit is dominated by pool wake-ups
  // (about 9.5 s wall for 7.6 s CPU, against 5.4 s on one thread) and its
  // wall time follows host preemption, so it is gated on one thread; the
  // traced run reports the default pool's figures (fit.cpu_util,
  // fit.default_pool_run_s).
  if (o.workload == "fit_pipeline") sdea::base::ThreadPool::SetGlobalNumThreads(1);
  std::filesystem::create_directories(o.work_dir);
  std::filesystem::create_directories(o.out_dir);

  const std::string context =
      "{\"workload\": \"" + o.workload + "\", \"seed\": " + std::to_string(o.seed) +
      ", \"seconds\": " + Num(o.seconds) + ", \"trace\": " + std::to_string(trace) +
      ", \"kernel_mode\": \"" +
      sdea::tmath::KernelModeName(sdea::tmath::ActiveKernelMode()) +
      "\", \"simd_level\": \"" + sdea::tmath::SimdLevelName(sdea::tmath::ActiveSimdLevel()) +
      "\", \"pool_threads\": " + std::to_string(PoolThreads()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"obs_compiled\": " + (sdea::obs::kCompiledIn ? "true" : "false") +
      ", \"obs_enabled_measured\": " + (o.trace ? "\"untraced pass off, traced pass on\"" : "false") +
      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"commit\": \"" + JsonEscape(commit) + "\"}";
  std::printf("context %s\n", context.c_str());

  Tracer tracer;
  Outcome result;
  std::map<std::string, Metric> untraced_e2e;
  std::vector<std::string> failures;
  if (!o.trace) {
    // Set-up is timed several times and its median reported. The fit's
    // set-up takes milliseconds, so it is repeated more; each of the
    // stream's set-ups is followed by one replay of the stream.
    const int setups = o.workload == "fit_pipeline" ? 25 : o.workload == "stream_refresh" ? 4 : 3;
    result = run(o, false, setups, &tracer);
    failures = result.failures;
  } else {
    Tracer off;
    const Outcome untraced = run(o, false, 1, &off);
    untraced_e2e = untraced.e2e;
    result = run(o, true, 1, &tracer);
    failures = untraced.failures;
    failures.insert(failures.end(), result.failures.begin(), result.failures.end());
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    if (untraced.decisions_hash != result.decisions_hash ||
        untraced.e2e.at("hits1").value != result.e2e.at("hits1").value) {
      failures.push_back("traced run's decisions or hits1 differ from the untraced run");
    }
    result.layer["trace.overhead"] = {
        untraced.overhead_basis > 0 ? result.overhead_basis / untraced.overhead_basis - 1.0 : 0.0,
        "ratio"};
    const std::string trace_path = o.out_dir + "/trace-" + o.workload + "-seed" +
                                   std::to_string(o.seed) + ".json";
    if (!tracer.WriteJson(trace_path)) failures.push_back("cannot write " + trace_path);
  }

  std::map<std::string, Metric> printed;
  if (!o.trace) {
    for (const std::string& name : GatedMetrics()) printed[name] = result.e2e.at(name);
    for (const auto& [name, m] : result.e2e) {
      if (printed.count(name) == 0) {
        std::printf("metric %-30s %16.6f %s (not gated)\n", name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  } else {
    // A layer the workload never calls prints 0, marked "not run" here and
    // listed under "not_run" in the result file.
    const std::vector<std::string>& not_run = LayersNotRun(o.workload);
    for (const auto& [name, unit] : LayerMetricUnits()) {
      Metric m{0.0, unit};
      if (const auto it = result.layer.find(name); it != result.layer.end()) {
        m = it->second;
      } else if (const auto jt = untraced_e2e.find(name); jt != untraced_e2e.end()) {
        m = jt->second;
      } else if (std::find(not_run.begin(), not_run.end(), name) == not_run.end()) {
        failures.push_back("per-layer metric " + name + " was not measured");
      }
      m.unit = unit;
      printed[name] = m;
    }
  }
  const std::vector<std::string>& not_run = o.trace ? LayersNotRun(o.workload)
                                                    : std::vector<std::string>{};
  for (const auto& [name, m] : printed) {
    const bool absent = std::find(not_run.begin(), not_run.end(), name) != not_run.end();
    std::printf("metric %-30s %16.6f %s%s\n", name.c_str(), m.value, m.unit.c_str(),
                absent ? " (layer not run by this workload)" : "");
  }
  for (const std::string& w : result.warnings) std::printf("WARNING: %s\n", w.c_str());
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();

  const std::string result_path = o.out_dir + "/result-" + o.workload + "-seed" +
                                  std::to_string(o.seed) + "-trace" + std::to_string(trace) + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::string checks = "[";
    for (size_t i = 0; i < failures.size(); ++i) {
      checks += (i ? ", \"" : "\"") + JsonEscape(failures[i]) + "\"";
    }
    checks += "]";
    std::string absent = "[";
    for (size_t i = 0; i < not_run.size(); ++i) absent += (i ? ", \"" : "\"") + not_run[i] + "\"";
    absent += "]";
    std::fprintf(f,
                 "{\"context\": %s, \"failed_checks\": %s, \"end_to_end\": %s, "
                 "\"per_layer\": %s, \"not_run\": %s}\n",
                 context.c_str(), checks.c_str(), MetricsJson(result.e2e).c_str(),
                 MetricsJson(result.layer).c_str(), absent.c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(std::max<int64_t>(result.attempted, 1)),
              static_cast<long long>(result.failed), MetricsJson(printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
