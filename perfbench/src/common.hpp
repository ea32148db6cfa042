// Shared pieces of the repository benchmark: options, results, seeded
// inputs, the detection log every workload checks, and small statistics.
//
// The benchmark drives the library only through its public headers. Each
// workload generates its inputs from --seed, runs its timed phases, checks
// the detections against a single-thread replay, and returns a Result
// whose metrics main.cpp prints as the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/realtime_detector.hpp"
#include "engine/service.hpp"
#include "signal/eeg_record.hpp"
#include "sim/cohort.hpp"

namespace pb {

using esl::Real;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `refusal` non-empty means the run was
/// degenerate: main exits non-zero and prints no result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string refusal;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void refuse(const std::string& why) {
    if (refusal.empty()) {
      refusal = why;
    }
  }
};

// ------------------------------------------------------------ statistics

inline Clock::duration from_seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double max_of(const std::vector<double>& values);

/// Windows processed in some seconds (one batch, round or group).
struct Step {
  double windows = 0.0;
  double seconds = 0.0;
};

/// Pins every thread of the process to one CPU of the mask the process
/// had when the pin was made, and gives every thread that mask back on
/// destruction. Threads created while pinned inherit the pin. Without
/// /proc/self/task or a readable mask it does nothing.
class ProcessPin {
 public:
  ProcessPin();
  ~ProcessPin();
  ProcessPin(const ProcessPin&) = delete;
  ProcessPin& operator=(const ProcessPin&) = delete;

  /// Pins to CPU number `k` (modulo the count) of the saved mask.
  void to(std::size_t k);

 private:
  std::vector<int> cpus_;
  std::vector<unsigned char> saved_mask_;
};

/// Throughput on a shared host: a thread's speed depends on the CPU it
/// lands on (other tenants load some more than others), and threads that
/// hand work to each other across CPUs wait on the host to wake those
/// CPUs, which swings from run to run. So each group of `group_windows`
/// windows runs with the whole process pinned to the next CPU, and the
/// median group rate is reported. `first_cpu` continues a rotation an
/// earlier RotatingRate left off (its count of groups).
class RotatingRate {
 public:
  explicit RotatingRate(double group_windows, std::size_t first_cpu = 0);

  /// Records one step; moves to the next CPU when a group completes.
  void add(double windows, double seconds);
  double median_rate() const { return pb::median(rates_); }
  const std::vector<double>& rates() const { return rates_; }

 private:
  double group_windows_;
  Step group_;
  std::vector<double> rates_;
  std::size_t next_cpu_;
  ProcessPin pin_;
};

/// Mean rows per batched forest pass (EngineStats forest_windows / batches).
double rows_per_batch(const esl::engine::EngineStats& stats);

/// Process CPU time (user + system), seconds.
double cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

// ---------------------------------------------------------------- inputs

/// Every record the benchmark streams is this long: long enough for 36 of
/// the cohort's 45 seizure layouts, and a whole number of 1 s and 0.25 s
/// chunks at 256 Hz.
inline constexpr esl::Seconds k_record_seconds = 240.0;
inline constexpr Real k_sample_rate_hz = 256.0;
/// Window geometry of every session (the library defaults).
inline constexpr std::size_t k_window_samples = 1024;
inline constexpr std::size_t k_hop_samples = 256;

/// splitmix64: derives independent streams of choices from one seed.
std::uint64_t mix(std::uint64_t x);

/// The cohort and the shared fleet model of one run.
struct Inputs {
  std::unique_ptr<esl::sim::CohortSimulator> sim;
  /// Seizure records first, then background records; all k_record_seconds.
  std::vector<esl::signal::EegRecord> pool;
  /// Cohort patient of each pool record.
  std::vector<std::size_t> pool_patients;
  std::shared_ptr<esl::core::RealtimeDetector> fleet_model;
};

/// Draws the cohort instance, `seizure_records` seizure records (random
/// events and placements that fit k_record_seconds) and
/// `background_records` seizure-free records, and fits the fleet model on
/// the first two seizure records plus the first background record.
Inputs make_inputs(std::uint64_t seed, std::size_t seizure_records,
                   std::size_t background_records);

/// A seizure record of `patient` (event chosen from `pick`, skipping
/// layouts that do not fit k_record_seconds); nullopt when none fits.
std::optional<esl::signal::EegRecord> seizure_record(
    const esl::sim::CohortSimulator& sim, std::size_t patient,
    std::uint64_t pick);

/// A seeded permutation of 0..n-1: which arrival slot each session gets.
std::vector<std::size_t> arrival_slots(std::size_t n, std::uint64_t seed);

/// One session's input: consecutive chunks of a record, starting at
/// chunk `first_chunk` and wrapping around at the record's end.
struct Stream {
  const esl::signal::EegRecord* record = nullptr;
  std::size_t chunk_samples = 256;
  std::size_t first_chunk = 0;

  std::size_t chunks_per_record() const {
    return record->length_samples() / chunk_samples;
  }
  /// Views of chunk `k` (one span per channel) into `out`.
  void chunk(std::size_t k, std::vector<std::span<const Real>>& out) const;
};

// -------------------------------------------------------- detection log

/// One delivered detection as the benchmark keeps it.
struct Delivered {
  std::uint64_t window = 0;
  int label = 0;
  bool alarm = false;
  bool screened_out = false;
  Clock::time_point at{};
};

/// Sink that files every detection under its session, with its delivery
/// time. Sessions are registered before their first chunk; calls from
/// several shard workers are serialized by one mutex.
class DetectionLog final : public esl::engine::DetectionSink {
 public:
  /// Registers a session; returns its index into logs().
  std::size_t add(esl::engine::SessionHandle handle);
  void on_detections(
      std::span<const esl::engine::Detection> detections) override;

  /// Alarms delivered so far for session `index`.
  std::size_t alarms(std::size_t index);
  std::size_t delivered();
  /// Only read once no detection can still arrive (after a flush).
  const std::vector<std::vector<Delivered>>& logs() const { return logs_; }
  std::vector<std::vector<Delivered>>& logs() { return logs_; }

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, std::size_t> index_;
  std::vector<std::vector<Delivered>> logs_;
  std::vector<std::size_t> alarms_;
  std::size_t delivered_ = 0;
};

/// Output check: `got` must hold windows 0..expected-1 in order, each equal
/// (label, alarm, screened_out) to the same window of `reference`.
/// Returns the number of failed windows (mismatches, missing and extra);
/// adds `expected` to `attempted`.
std::uint64_t check_session(const std::vector<Delivered>& got,
                            const std::vector<Delivered>& reference,
                            std::size_t expected, std::uint64_t& attempted);

}  // namespace pb
