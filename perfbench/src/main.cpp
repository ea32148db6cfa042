// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload fleet|wire_churn|self_learning --seed N
//             --seconds S --trace 0|1 [--trace-file PATH]
//   perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exit codes: 0 ok; 1 output check failed (the
// result line is still printed); 2 degenerate run, refused without a
// result line; 3 usage error or a call that threw outside the checks.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace pb;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet|wire_churn|self_learning "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n"
               "       perfbench --selftest\n");
  return 3;
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_report(const std::string& workload, const Result& result) {
  std::printf("perfbench %s: %llu operations checked, %llu failed\n",
              workload.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const Metric& m : result.metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ------------------------------------------------------------- self-tests

bool expect(bool condition, const char* what) {
  std::printf("  %-66s %s\n", what, condition ? "ok" : "FAILED");
  return condition;
}

/// The output check catches one corrupted detection (and one dropped one)
/// in a real threaded run checked against its inline replay.
bool selftest_output_check() {
  using namespace esl;
  const Inputs inputs = make_inputs(3, 2, 1);
  std::vector<Stream> streams;
  for (std::size_t s = 0; s < 4; ++s) {
    streams.push_back({&inputs.pool[s % inputs.pool.size()], k_hop_samples,
                       17 * s});
  }
  constexpr std::size_t k_chunks = 12;
  const auto run = [&](bool threaded, DetectionLog& log) {
    engine::ServiceConfig config;
    config.shards = threaded ? 2 : 1;
    std::unique_ptr<engine::ExecutionBackend> backend;
    if (threaded) {
      backend = std::make_unique<engine::ThreadPoolBackend>();
    }
    engine::DetectionService service(inputs.fleet_model, config,
                                     std::move(backend));
    service.set_detection_sink(&log);
    std::vector<engine::SessionHandle> handles;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      handles.push_back(service.create_session(s, engine::SessionConfig{}));
      log.add(handles.back());
    }
    std::vector<std::span<const Real>> chunk;
    for (std::size_t k = 0; k < k_chunks; ++k) {
      for (std::size_t s = 0; s < streams.size(); ++s) {
        streams[s].chunk(k, chunk);
        service.ingest(handles[s], chunk);
      }
    }
    service.flush();
  };
  DetectionLog threaded;
  DetectionLog reference;
  run(true, threaded);
  run(false, reference);
  const std::size_t expected = k_chunks - 3;
  const auto failures = [&](const DetectionLog& log) {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      failed += check_session(log.logs()[s], reference.logs()[s], expected,
                              attempted);
    }
    return failed;
  };
  bool ok = expect(failures(threaded) == 0,
                   "threaded detections equal the inline replay");
  DetectionLog& corrupted = threaded;
  corrupted.logs()[2][5].label ^= 1;
  ok &= expect(failures(corrupted) == 1,
               "one flipped label is one failed operation");
  corrupted.logs()[2][5].label ^= 1;
  corrupted.logs()[1][3].alarm = !corrupted.logs()[1][3].alarm;
  ok &= expect(failures(corrupted) == 1,
               "one flipped alarm flag is one failed operation");
  corrupted.logs()[1][3].alarm = !corrupted.logs()[1][3].alarm;
  corrupted.logs()[0].pop_back();
  ok &= expect(failures(corrupted) == 1,
               "one dropped detection is one failed operation");
  return ok;
}

/// Per-layer self times plus the unattributed share sum to the traced
/// wall time: exactly on a hand-built trace, and on real nested spans.
bool selftest_trace() {
  using trace::Layer;
  trace::Lane a;
  a.begin_ns = 0;
  a.end_ns = 1000;
  trace::add_span(a, "engine.call", Layer::kEngine, 100, 600, -1);
  trace::add_span(a, "features.call", Layer::kFeatures, 150, 300, 0);
  trace::add_span(a, "dsp.call", Layer::kDsp, 350, 500, 0);
  trace::add_span(a, "ml.call", Layer::kMl, 400, 450, 2);
  trace::add_span(a, "net.call", Layer::kNet, 700, 800, -1);
  trace::Lane b;
  b.begin_ns = 0;
  b.end_ns = 500;
  trace::add_span(b, "core.call", Layer::kCore, 0, 500, -1);
  const trace::Report report = trace::self_time({&a, &b});
  const auto self = [&](Layer layer) {
    return report.self_ns[static_cast<std::size_t>(layer)];
  };
  bool ok = expect(report.wall_ns == 1500.0 && report.attributed_ns == 1100.0,
                   "hand-built trace: wall 1500 ns, 1100 ns attributed");
  ok &= expect(self(Layer::kEngine) == 200.0 &&
                   self(Layer::kFeatures) == 150.0 &&
                   self(Layer::kDsp) == 100.0 && self(Layer::kMl) == 50.0 &&
                   self(Layer::kNet) == 100.0 && self(Layer::kCore) == 500.0,
               "hand-built trace: self time is duration minus children");
  double shares = report.unattributed_share();
  for (std::size_t l = 0; l < trace::k_layers; ++l) {
    shares += report.self_share(static_cast<Layer>(l));
  }
  ok &= expect(std::abs(shares - 1.0) < 1e-12,
               "hand-built trace: self shares + unattributed share = 1");

  trace::Recorder& recorder = trace::Recorder::instance();
  recorder.set_enabled(true);
  {
    trace::LaneScope lane("selftest");
    volatile double sink = 0.0;
    for (int i = 0; i < 50; ++i) {
      trace::Scope outer("engine.outer", Layer::kEngine);
      for (int j = 0; j < 1000; ++j) {
        sink = sink + std::sqrt(static_cast<double>(j));
      }
      trace::Scope inner("dsp.inner", Layer::kDsp);
      for (int j = 0; j < 1000; ++j) {
        sink = sink + std::sqrt(static_cast<double>(j));
      }
    }
  }
  recorder.set_enabled(false);
  const trace::Report real = recorder.report();
  double real_ns = real.wall_ns - real.attributed_ns;
  for (const double ns : real.self_ns) {
    real_ns += ns;
  }
  ok &= expect(real.attributed_ns > 0.0 &&
                   std::abs(real_ns - real.wall_ns) <= 1e-9 * real.wall_ns,
               "recorded trace: layer self times + unattributed = wall");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_file;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else {
      return usage();
    }
  }
  if (selftest) {
    std::printf("perfbench self-tests\n");
    bool ok = false;
    try {
      ok = selftest_output_check();
      ok &= selftest_trace();
    } catch (const std::exception& e) {
      std::printf("  threw: %s\n", e.what());
      ok = false;
    }
    std::printf("%s\n", ok ? "all self-tests passed" : "SELF-TESTS FAILED");
    return ok ? 0 : 1;
  }
  if (!(options.seconds > 0.0)) {
    return usage();
  }

  Result result;
  try {
    trace::Recorder::instance().set_enabled(options.trace);
    if (options.workload == "fleet") {
      result = run_fleet(options);
    } else if (options.workload == "wire_churn") {
      result = run_wire_churn(options);
    } else if (options.workload == "self_learning") {
      result = run_self_learning(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.refuse("metric " + m.name + " is not a finite number");
    }
  }
  if (!result.refusal.empty()) {
    std::fprintf(stderr, "perfbench: refused: %s\n", result.refusal.c_str());
    return 2;
  }
  if (options.trace && !trace_file.empty() &&
      !trace::Recorder::instance().write_json(trace_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
    return 3;
  }
  print_report(options.workload, result);
  print_result(result);
  return result.failed == 0 ? 0 : 1;
}
