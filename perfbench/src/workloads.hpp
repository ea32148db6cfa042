// The three workloads and the per-layer replay of the traced run.
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace pb {

/// Facts only the live (traced) phases can supply to the per-layer report.
struct Live {
  double rows_per_batch = 0.0;       // EngineStats forest_windows / batches
  double ingest_blocked_share = 0.0; // generator time inside ingest calls
  std::vector<double> lag_ms;        // generator lateness per arrival
  std::vector<double> latency_ms;    // window due -> delivered
  std::vector<double> stall_ms;      // windows beside a running trigger
  double cpu_us_per_window = 0.0;
  std::size_t triggers = 0;
  std::vector<double> label_error_s;
};

/// The workload's own inputs the replay reuses.
struct ReplayInputs {
  const Inputs* inputs = nullptr;
  /// A sample of the workload's session streams (its chunk shape).
  std::vector<Stream> streams;
  std::size_t chunks_per_stream = 0;
  /// Seizure records for the trigger replay (history = whole record),
  /// with their patient's average seizure length (Algorithm 1's W).
  struct History {
    const esl::signal::EegRecord* record = nullptr;
    esl::Seconds average_seizure_s = 0.0;
  };
  std::vector<History> histories;
  /// Sessions open, stream one window and close (wire_churn's shape):
  /// bytes per window then include the session's open/flush/close frames.
  bool churn_shape = false;
};

Result run_fleet(const Options& options);
Result run_wire_churn(const Options& options);
Result run_self_learning(const Options& options);

/// Replays the workload's windows, chunks and histories through each
/// layer's public functions (once untraced, once traced), then adds every
/// per-layer metric to `result`, preferring live spans and facts where the
/// workload made the call itself.
void report_layers(const ReplayInputs& replay, const Live& live,
                   Result& result);

/// Median of `runs` repetitions of `setup` on a fresh State (seconds); the
/// previous repetition is torn down untimed and the last one is kept.
template <typename State, typename Setup>
double timed_setup(int runs, std::unique_ptr<State>& state, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < runs; ++i) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = std::make_unique<State>();
    setup(*state);
    seconds.push_back(seconds_between(start, Clock::now()));
  }
  return median(seconds);
}

/// Spans the benchmark records around its calls into the library.
using trace::Layer;
using trace::Scope;

}  // namespace pb
