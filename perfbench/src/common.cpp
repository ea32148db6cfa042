#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "common/random.hpp"
#include "ml/dataset.hpp"

namespace pb {

using namespace esl;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

namespace {

/// Sets `mask` on every thread of the process (none if it cannot list them).
void set_process_affinity(const cpu_set_t& mask) {
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    return;
  }
  while (const dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] != '.') {
      sched_setaffinity(static_cast<pid_t>(std::atoi(entry->d_name)),
                        sizeof(mask), &mask);
    }
  }
  closedir(tasks);
}

}  // namespace

ProcessPin::ProcessPin() : saved_mask_(sizeof(cpu_set_t)) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    std::memcpy(saved_mask_.data(), &mask, sizeof(mask));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

ProcessPin::~ProcessPin() {
  if (!cpus_.empty()) {
    cpu_set_t mask;
    std::memcpy(&mask, saved_mask_.data(), sizeof(mask));
    set_process_affinity(mask);
  }
}

void ProcessPin::to(std::size_t k) {
  if (cpus_.empty()) {
    return;  // no mask to rotate through: run unpinned
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[k % cpus_.size()], &mask);
  set_process_affinity(mask);
}

RotatingRate::RotatingRate(double group_windows, std::size_t first_cpu)
    : group_windows_(group_windows), next_cpu_(first_cpu) {
  pin_.to(next_cpu_++);
}

void RotatingRate::add(double windows, double seconds) {
  group_.windows += windows;
  group_.seconds += seconds;
  if (group_.windows >= group_windows_ && group_.seconds > 0.0) {
    rates_.push_back(group_.windows / group_.seconds);
    group_ = Step{};
    pin_.to(next_cpu_++);
  }
}

double rows_per_batch(const engine::EngineStats& stats) {
  return static_cast<double>(stats.forest_windows) /
         static_cast<double>(std::max<std::size_t>(1, stats.batches));
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::optional<signal::EegRecord> seizure_record(
    const sim::CohortSimulator& sim, std::size_t patient, std::uint64_t pick) {
  const std::vector<sim::SeizureEvent> events = sim.events_for_patient(patient);
  for (std::size_t attempt = 0; attempt < 4 * events.size(); ++attempt) {
    const sim::SeizureEvent& event = events[(pick + attempt) % events.size()];
    try {
      return sim.synthesize_sample(event, mix(pick + attempt), k_record_seconds,
                                   k_record_seconds);
    } catch (const InvalidArgument&) {
      // This event's layout does not fit the record length; try the next.
    }
  }
  return std::nullopt;
}

Inputs make_inputs(std::uint64_t seed, std::size_t seizure_records,
                   std::size_t background_records) {
  Inputs inputs;
  inputs.sim = std::make_unique<sim::CohortSimulator>(mix(seed));
  const std::size_t patients = inputs.sim->cohort().size();
  std::uint64_t draw = mix(seed ^ 0x51ull);
  for (std::size_t i = 0; i < seizure_records; ++i) {
    draw = mix(draw);
    for (std::size_t p = 0;; ++p) {
      const std::size_t patient = (draw + p) % patients;
      if (auto record = seizure_record(*inputs.sim, patient, draw >> 8)) {
        inputs.pool.push_back(std::move(*record));
        inputs.pool_patients.push_back(patient);
        break;
      }
      if (p == patients) {
        throw Error("no seizure of the cohort fits the record length");
      }
    }
  }
  for (std::size_t i = 0; i < background_records; ++i) {
    draw = mix(draw);
    inputs.pool.push_back(inputs.sim->synthesize_background_record(
        draw % patients, k_record_seconds, draw >> 8));
    inputs.pool_patients.push_back(draw % patients);
  }

  ml::Dataset train;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, seizure_records); ++i) {
    train.append(core::build_window_dataset(inputs.pool[i],
                                            inputs.pool[i].seizures()));
  }
  if (background_records > 0) {
    train.append(core::build_window_dataset(inputs.pool[seizure_records], {}));
  }
  Rng rng(mix(seed ^ 0x7ull));
  inputs.fleet_model = std::make_shared<core::RealtimeDetector>();
  inputs.fleet_model->fit(ml::balance_classes(train, rng), seed);
  return inputs;
}

std::vector<std::size_t> arrival_slots(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots[i] = i;
  }
  std::uint64_t draw = mix(seed);
  for (std::size_t i = n; i > 1; --i) {
    draw = mix(draw);
    std::swap(slots[i - 1], slots[draw % i]);
  }
  return slots;
}

void Stream::chunk(std::size_t k,
                   std::vector<std::span<const Real>>& out) const {
  const std::size_t offset =
      ((first_chunk + k) % chunks_per_record()) * chunk_samples;
  out.clear();
  for (std::size_t c = 0; c < record->channel_count(); ++c) {
    out.push_back(std::span<const Real>(record->channel(c).samples)
                      .subspan(offset, chunk_samples));
  }
}

std::size_t DetectionLog::add(engine::SessionHandle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t index = logs_.size();
  index_[handle.value] = index;
  logs_.emplace_back();
  alarms_.push_back(0);
  return index;
}

void DetectionLog::on_detections(
    std::span<const engine::Detection> detections) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const engine::Detection& d : detections) {
    const auto it = index_.find(d.session_id);
    if (it == index_.end()) {
      continue;  // not a benchmark session; the check counts it missing
    }
    logs_[it->second].push_back(
        {d.window_index, d.label, d.alarm, d.screened_out, now});
    alarms_[it->second] += d.alarm ? 1 : 0;
    ++delivered_;
  }
}

std::size_t DetectionLog::alarms(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  return alarms_[index];
}

std::size_t DetectionLog::delivered() {
  std::lock_guard<std::mutex> lock(mutex_);
  return delivered_;
}

std::uint64_t check_session(const std::vector<Delivered>& got,
                            const std::vector<Delivered>& reference,
                            std::size_t expected, std::uint64_t& attempted) {
  attempted += expected;
  std::uint64_t failed = 0;
  for (std::size_t w = 0; w < expected; ++w) {
    if (w >= got.size() || w >= reference.size()) {
      ++failed;
      continue;
    }
    const Delivered& a = got[w];
    const Delivered& b = reference[w];
    if (a.window != w || b.window != w || a.label != b.label ||
        a.alarm != b.alarm || a.screened_out != b.screened_out) {
      ++failed;
    }
  }
  if (got.size() > expected) {
    failed += got.size() - expected;
  }
  return failed;
}

}  // namespace pb
