// self_learning: the paper's own loop beside a streaming fleet.
//
// Why: fleet sessions at a fixed offered rate share 2 threaded shards with
// personal sessions (use_fleet_model=false, a self-learning pipeline, and a
// history as long as their records). Each personal session streams
// equal-length seizure records of its patient; at each record's end a
// control thread runs a scoped flush and, if the record raised no alarm,
// presses the button: patient_trigger, then compile + swap_model. The
// session's next record starts after that returns, which keeps detections
// deterministic. The control plane (history features, Algorithm 1,
// training) writes under the shard lock while the data plane reads beside
// it. Threads: generator, control and 2 shard workers.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <queue>
#include <thread>

#include "common/error.hpp"
#include "core/self_learning.hpp"
#include "ml/inference_model.hpp"
#include "workloads.hpp"

namespace pb {

using namespace esl;

namespace {

constexpr std::size_t k_fleet_sessions = 64;
constexpr double k_fleet_chunks_per_s = 8.0;  // per session: 512 windows/s
constexpr std::size_t k_personal_sessions = 24;
constexpr std::size_t k_personal_patients = 6;
constexpr std::size_t k_records_per_patient = 4;
/// A personal session streams one record per this share of the live
/// phase, and the sessions' first records start staggered over one record
/// period, so every first record (a guaranteed trigger: a cold session
/// cannot alarm) ends inside the phase.
constexpr double k_record_period_share = 3.0 / 7.0;
constexpr std::size_t k_min_triggers = 20;
/// A trigger holds its shard for ~80 ms; at --seconds 20 about 740 chunks/s
/// arrive per shard, so ~60 queue up behind it.
constexpr std::size_t k_shard_queue_chunks = 256;
constexpr std::size_t k_warm_chunks = 4;
constexpr double k_max_lag_ms = 500.0;
constexpr std::size_t k_chunks_per_record =
    static_cast<std::size_t>(k_record_seconds);  // 1 s chunks

struct State {
  Inputs inputs;
  std::vector<Stream> fleet_streams;
  /// Arrival slots: fleet sessions within a chunk period, personal
  /// sessions in the first-record stagger.
  std::vector<std::size_t> fleet_slots;
  std::vector<std::size_t> personal_slots;
  std::vector<std::size_t> patients;                      // per personal slot
  std::vector<std::vector<signal::EegRecord>> records;    // per patient slot
  std::unique_ptr<engine::DetectionService> service;
};

struct Personal {
  std::size_t patient = 0;  // slot into State::patients / records
  std::size_t first_record = 0;
  core::SelfLearningConfig config;

  const signal::EegRecord& record(const State& state, std::size_t m) const {
    return state.records[patient][(first_record + m) % k_records_per_patient];
  }
};

struct Trigger {
  std::size_t session = 0;  // personal index
  std::size_t record = 0;   // record number within the session
  signal::Interval label;
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t shard = 0;
};

std::shared_ptr<const ml::InferenceModel> compiled(
    std::shared_ptr<const ml::InferenceModel> model) {
  const auto forest = std::dynamic_pointer_cast<const ml::ForestModel>(model);
  if (forest == nullptr) {
    return model;  // already a flat artifact
  }
  return ml::compile(forest->forest(), forest->scaler(),
                     ml::InferenceBackend::kCompiled);
}

/// The control step at the end of record `m` of a personal session: scoped
/// flush, alarm check, and on a miss the button press plus redeploy.
/// Returns true when it triggered (label in `label`, press time in
/// `pressed`).
bool record_end(engine::DetectionService& service, engine::SessionHandle handle,
                DetectionLog& log, std::size_t log_index,
                std::size_t& alarms_seen, signal::Interval& label,
                Clock::time_point& pressed) {
  {
    Scope span("engine.flush", Layer::kEngine, handle.value);
    service.flush_sessions(std::span<const engine::SessionHandle>(&handle, 1));
  }
  const std::size_t alarms = log.alarms(log_index);
  const bool raised = alarms > alarms_seen;
  alarms_seen = alarms;
  if (raised) {
    return false;
  }
  pressed = Clock::now();
  {
    Scope span("core.trigger", Layer::kCore, handle.value);
    label = service.patient_trigger(handle);
  }
  std::shared_ptr<const ml::InferenceModel> artifact;
  {
    Scope span("ml.compile", Layer::kMl, handle.value);
    artifact = compiled(service.session_model(handle));
  }
  Scope span("engine.swap", Layer::kEngine, handle.value);
  service.swap_model(handle, std::move(artifact));
  return true;
}

engine::SessionConfig personal_session_config() {
  engine::SessionConfig config;
  config.history_seconds = k_record_seconds;
  config.use_fleet_model = false;
  return config;
}

}  // namespace

Result run_self_learning(const Options& options) {
  Result result;
  std::unique_ptr<State> owned;
  const double setup_s = timed_setup(5, owned, [&](State& s) {
    s.inputs = make_inputs(options.seed, 8, 8);
    std::uint64_t draw = mix(options.seed ^ 0x5Eull);
    for (std::size_t i = 0; i < k_fleet_sessions; ++i) {
      draw = mix(draw);
      Stream stream;
      stream.record = &s.inputs.pool[draw % s.inputs.pool.size()];
      stream.first_chunk = (draw >> 16) % stream.chunks_per_record();
      s.fleet_streams.push_back(stream);
    }
    s.fleet_slots = arrival_slots(k_fleet_sessions, options.seed ^ 0xA5ull);
    s.personal_slots =
        arrival_slots(k_personal_sessions, options.seed ^ 0x5Aull);
    std::vector<std::size_t> all(s.inputs.sim->cohort().size());
    for (std::size_t p = 0; p < all.size(); ++p) {
      all[p] = p;
    }
    // Patients in a seeded order, skipping any whose seizures do not fit
    // the record length.
    for (std::size_t p = 0;
         p < all.size() && s.patients.size() < k_personal_patients; ++p) {
      draw = mix(draw);
      std::swap(all[p], all[p + draw % (all.size() - p)]);
      std::vector<signal::EegRecord> records;
      for (std::size_t r = 0; r < k_records_per_patient; ++r) {
        if (auto record =
                seizure_record(*s.inputs.sim, all[p], (draw >> 8) + r)) {
          records.push_back(std::move(*record));
        }
      }
      if (records.size() == k_records_per_patient) {
        s.patients.push_back(all[p]);
        s.records.push_back(std::move(records));
      }
    }
    if (s.patients.size() < k_personal_patients) {
      throw Error("too few cohort patients have seizures that fit the "
                  "record length");
    }
    engine::ServiceConfig config;
    config.shards = 2;
    // Room for a whole trigger's worth of chunks per shard, so a trigger
    // stalls its own shard's windows rather than blocking the generator
    // (and with it the other shard's arrivals).
    engine::ThreadPoolConfig pool;
    pool.queue_capacity = k_shard_queue_chunks;
    s.service = std::make_unique<engine::DetectionService>(
        s.inputs.fleet_model, config,
        std::make_unique<engine::ThreadPoolBackend>(pool));
  });
  State& state = *owned;
  engine::DetectionService& service = *state.service;

  std::vector<Personal> personal(k_personal_sessions);
  for (std::size_t j = 0; j < k_personal_sessions; ++j) {
    personal[j].patient = j % k_personal_patients;
    personal[j].first_record = j / k_personal_patients;
    personal[j].config.average_seizure_duration_s =
        state.inputs.sim->average_seizure_duration(
            state.patients[personal[j].patient]);
  }

  // Log index: fleet sessions 0..63, personal sessions 64..87.
  DetectionLog log;
  service.set_detection_sink(&log);
  std::vector<engine::SessionHandle> handles;
  for (std::size_t i = 0; i < k_fleet_sessions; ++i) {
    handles.push_back(service.create_session(i, engine::SessionConfig{}));
    log.add(handles.back());
  }
  for (std::size_t j = 0; j < k_personal_sessions; ++j) {
    handles.push_back(
        service.create_session(1000 + j, personal_session_config()));
    log.add(handles.back());
    service.attach_self_learning(handles.back(), personal[j].config);
  }
  const std::size_t sessions = handles.size();
  std::vector<std::span<const Real>> chunk;
  // Chunks ingested per session (personal: across records).
  std::vector<std::size_t> ingested(sessions, 0);
  for (std::size_t k = 0; k < k_warm_chunks; ++k) {
    for (std::size_t s = 0; s < sessions; ++s) {
      if (s < k_fleet_sessions) {
        state.fleet_streams[s].chunk(k, chunk);
      } else {
        const Personal& p = personal[s - k_fleet_sessions];
        Stream{&p.record(state, 0), k_hop_samples, 0}.chunk(k, chunk);
      }
      service.ingest(handles[s], chunk);
      ++ingested[s];
    }
  }
  service.flush();

  // ---- timed phase: generator (this thread) + control thread.
  Live live;
  const double phase_s = 0.7 * options.seconds;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point t_end = t0 + from_seconds(phase_s);
  const auto at = [&](double seconds) { return t0 + from_seconds(seconds); };
  const double fleet_period = 1.0 / k_fleet_chunks_per_s;
  const double record_period = k_record_period_share * phase_s;
  const double personal_period = record_period / k_chunks_per_record;

  struct Event {
    Clock::time_point due;
    std::size_t session;
    bool operator>(const Event& other) const { return due > other.due; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::vector<Clock::time_point> record_start(k_personal_sessions);
  std::vector<std::size_t> record_number(k_personal_sessions, 0);
  for (std::size_t i = 0; i < k_fleet_sessions; ++i) {
    events.push(
        {at(static_cast<double>(state.fleet_slots[i]) / k_fleet_sessions *
            fleet_period),
         i});
  }
  // Personal chunks fall on per-session grids offset by 1/24 of a chunk
  // period, so the 24 sessions' arrivals interleave instead of bursting.
  std::vector<double> grid_offset(k_personal_sessions);
  for (std::size_t j = 0; j < k_personal_sessions; ++j) {
    const double share = static_cast<double>(state.personal_slots[j]) /
                         k_personal_sessions;
    grid_offset[j] = share * (record_period + personal_period);
    record_start[j] = at(grid_offset[j] - k_warm_chunks * personal_period);
    events.push({at(grid_offset[j]), k_fleet_sessions + j});
  }
  // The first point of session j's grid at or after `t`.
  const auto on_grid = [&](std::size_t j, Clock::time_point t) {
    const double since = seconds_between(at(grid_offset[j]), t);
    return at(grid_offset[j] +
              std::ceil(since / personal_period) * personal_period);
  };

  std::mutex mutex;
  std::condition_variable wake;
  std::deque<std::size_t> requests;  // personal index at a record end
  std::deque<std::pair<std::size_t, Clock::time_point>> resumed;
  bool stopping = false;
  std::size_t busy = 0;
  std::vector<Trigger> triggers;
  std::atomic<std::uint64_t> control_failures{0};
  std::vector<std::size_t> alarms_seen(k_personal_sessions, 0);

  std::thread control([&] {
    trace::LaneScope lane("self_learning.control");
    for (;;) {
      std::size_t j = 0;
      {
        Scope span("bench.wait", Layer::kBench);
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return stopping || !requests.empty(); });
        if (requests.empty()) {
          return;
        }
        j = requests.front();
        requests.pop_front();
        ++busy;
      }
      const engine::SessionHandle handle = handles[k_fleet_sessions + j];
      Trigger trigger;
      trigger.session = j;
      trigger.record = record_number[j];
      trigger.shard = handle.shard();
      try {
        if (record_end(service, handle, log, k_fleet_sessions + j,
                       alarms_seen[j], trigger.label, trigger.start)) {
          trigger.end = Clock::now();
          triggers.push_back(trigger);
        }
      } catch (const std::exception&) {
        control_failures.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(mutex);
      resumed.emplace_back(j, Clock::now());
      --busy;
      wake.notify_all();
    }
  });

  double ingest_s = 0.0;
  const double cpu_start = cpu_seconds();
  {
    trace::LaneScope lane("self_learning.generator");
    try {
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          while (!resumed.empty()) {
            const auto [j, done] = resumed.front();
            resumed.pop_front();
            ++record_number[j];
            const Clock::time_point earliest =
                std::max(done, record_start[j] + from_seconds(record_period));
            record_start[j] = on_grid(j, earliest);
            events.push({record_start[j], k_fleet_sessions + j});
          }
        }
        if (events.empty() || events.top().due > t_end) {
          if (Clock::now() >= t_end) {
            break;
          }
          Scope span("bench.wait", Layer::kBench);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          continue;
        }
        const Event event = events.top();
        events.pop();
        {
          Scope span("bench.wait", Layer::kBench);
          std::this_thread::sleep_until(event.due);
        }
        const Clock::time_point sent = Clock::now();
        live.lag_ms.push_back(ms_between(event.due, sent));
        const std::size_t s = event.session;
        std::size_t within = 0;  // personal: chunk index within the record
        if (s < k_fleet_sessions) {
          state.fleet_streams[s].chunk(ingested[s], chunk);
        } else {
          const std::size_t j = s - k_fleet_sessions;
          within = ingested[s] % k_chunks_per_record;
          Stream{&personal[j].record(state, record_number[j]), k_hop_samples, 0}
              .chunk(within, chunk);
        }
        {
          Scope span("engine.ingest", Layer::kEngine, s);
          service.ingest(handles[s], chunk);
        }
        ingest_s += seconds_between(sent, Clock::now());
        ++ingested[s];
        if (s < k_fleet_sessions) {
          events.push({event.due + from_seconds(fleet_period), s});
        } else if (within + 1 == k_chunks_per_record) {
          std::lock_guard<std::mutex> lock(mutex);
          requests.push_back(s - k_fleet_sessions);
          wake.notify_all();
        } else {
          const std::size_t j = s - k_fleet_sessions;
          events.push(
              {record_start[j] + from_seconds((within + 1) * personal_period),
               s});
        }
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
      }
      wake.notify_all();
      control.join();  // the control thread uses this frame's state
      throw;
    }
    {
      Scope span("bench.wait", Layer::kBench);
      std::unique_lock<std::mutex> lock(mutex);
      wake.wait(lock, [&] { return requests.empty() && busy == 0; });
      stopping = true;
      wake.notify_all();
    }
    control.join();
    Scope span("engine.flush", Layer::kEngine);
    service.flush();
  }
  const double phase_wall = seconds_between(t0, Clock::now());
  const engine::EngineStats stats = service.stats();
  live.rows_per_batch = rows_per_batch(stats);
  service.stop();
  // Every session delivered one window before timing started.
  const std::size_t timed_windows = log.delivered() - sessions;
  live.cpu_us_per_window =
      (cpu_seconds() - cpu_start) * 1e6 /
      static_cast<double>(std::max<std::size_t>(1, timed_windows));
  live.ingest_blocked_share = ingest_s / phase_wall;
  live.triggers = triggers.size();
  result.failed += control_failures.load();

  // ---- single-thread replay: the reference, and the inline baseline.
  DetectionLog replay_log;
  std::vector<Trigger> replay_triggers;
  // Data-plane time per session (ingest and the final flush; the control
  // steps are control_p50_ms's and excluded).
  double replay_rate = 0.0;
  {
    engine::DetectionService inline_service(state.inputs.fleet_model);
    inline_service.set_detection_sink(&replay_log);
    trace::LaneScope lane("self_learning.inline");
    RotatingRate rate(1024.0);
    for (std::size_t s = 0; s < sessions; ++s) {
      double data_plane_s = 0.0;
      const bool is_personal = s >= k_fleet_sessions;
      const std::size_t j = s - (is_personal ? k_fleet_sessions : 0);
      const engine::SessionHandle handle = inline_service.create_session(
          s, is_personal ? personal_session_config() : engine::SessionConfig{});
      replay_log.add(handle);
      if (is_personal) {
        inline_service.attach_self_learning(handle, personal[j].config);
      }
      std::size_t alarms = 0;
      for (std::size_t k = 0; k < ingested[s]; ++k) {
        if (is_personal) {
          const std::size_t m = k / k_chunks_per_record;
          Stream{&personal[j].record(state, m), k_hop_samples, 0}.chunk(
              k % k_chunks_per_record, chunk);
        } else {
          state.fleet_streams[s].chunk(k, chunk);
        }
        const Clock::time_point sent = Clock::now();
        {
          Scope span("engine.ingest", Layer::kEngine, s);
          inline_service.ingest(handle, chunk);
        }
        data_plane_s += seconds_between(sent, Clock::now());
        if (is_personal && (k + 1) % k_chunks_per_record == 0) {
          Trigger trigger;
          trigger.session = j;
          trigger.record = k / k_chunks_per_record;
          try {
            if (record_end(inline_service, handle, replay_log, s, alarms,
                           trigger.label, trigger.start)) {
              replay_triggers.push_back(trigger);
            }
          } catch (const std::exception&) {
            ++result.failed;
          }
        }
      }
      const Clock::time_point flushed = Clock::now();
      {
        Scope span("engine.flush", Layer::kEngine, s);
        inline_service.flush_sessions(
            std::span<const engine::SessionHandle>(&handle, 1));
      }
      data_plane_s += seconds_between(flushed, Clock::now());
      rate.add(static_cast<double>(replay_log.logs()[s].size()), data_plane_s);
    }
    replay_rate = rate.median_rate();
  }

  // ---- output checks: detections, and each label against an offline
  // SelfLearningPipeline over the same records.
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::size_t expected =
        ingested[s] >= k_warm_chunks ? ingested[s] - (k_warm_chunks - 1) : 0;
    result.failed += check_session(log.logs()[s], replay_log.logs()[s],
                                   expected, result.attempted);
  }
  const auto same = [](const signal::Interval& a, const signal::Interval& b) {
    return a.onset == b.onset && a.offset == b.offset;
  };
  std::sort(triggers.begin(), triggers.end(),
            [](const Trigger& a, const Trigger& b) {
              return a.session != b.session ? a.session < b.session
                                            : a.record < b.record;
            });
  result.attempted += triggers.size();
  if (triggers.size() != replay_triggers.size()) {
    result.failed += std::max(triggers.size(), replay_triggers.size()) -
                     std::min(triggers.size(), replay_triggers.size());
  }
  const std::size_t paired = std::min(triggers.size(), replay_triggers.size());
  for (std::size_t t = 0; t < paired; ++t) {
    if (triggers[t].session != replay_triggers[t].session ||
        triggers[t].record != replay_triggers[t].record ||
        !same(triggers[t].label, replay_triggers[t].label)) {
      ++result.failed;
    }
  }
  std::vector<core::SelfLearningPipeline> offline;
  for (const Personal& p : personal) {
    offline.emplace_back(p.config);
  }
  for (const Trigger& trigger : triggers) {
    const signal::EegRecord& record =
        personal[trigger.session].record(state, trigger.record);
    result.attempted += 1;
    const signal::Interval offline_label =
        offline[trigger.session].on_patient_trigger(record);
    if (!same(offline_label, trigger.label)) {
      ++result.failed;
    }
    live.label_error_s.push_back(
        std::abs(trigger.label.onset - record.seizures().front().onset));
  }

  // ---- latency of fleet windows; stall = those due beside a trigger.
  for (std::size_t i = 0; i < k_fleet_sessions; ++i) {
    for (const Delivered& d : log.logs()[i]) {
      if (d.window == 0) {
        continue;  // warm-up window
      }
      const Clock::time_point due =
          at((static_cast<double>(d.window - 1) +
              static_cast<double>(state.fleet_slots[i]) / k_fleet_sessions) *
             fleet_period);
      const double latency = ms_between(due, d.at);
      live.latency_ms.push_back(latency);
      for (const Trigger& trigger : triggers) {
        if (trigger.shard == handles[i].shard() && due >= trigger.start &&
            due <= trigger.end) {
          live.stall_ms.push_back(latency);
          break;
        }
      }
    }
  }

  if (triggers.size() < k_min_triggers) {
    result.refuse("self_learning ran fewer than 20 triggers");
  }
  if (timed_windows == 0 || log.delivered() < replay_log.delivered()) {
    result.refuse(
        "self_learning classified fewer windows than its schedule implies");
  }
  if (max_of(live.lag_ms) > k_max_lag_ms) {
    result.refuse("self_learning generator fell behind its schedule");
  }

  if (options.trace) {
    ReplayInputs replay;
    replay.inputs = &state.inputs;
    replay.streams.assign(state.fleet_streams.begin(),
                          state.fleet_streams.begin() + 16);
    replay.chunks_per_stream = 32;
    for (std::size_t j = 0; j < 2; ++j) {
      replay.histories.push_back(
          {&personal[j].record(state, 0),
           personal[j].config.average_seizure_duration_s});
    }
    report_layers(replay, live, result);
    return result;
  }
  std::vector<double> trigger_ms;
  for (const Trigger& trigger : triggers) {
    trigger_ms.push_back(ms_between(trigger.start, trigger.end));
  }
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("windows_per_s", static_cast<double>(timed_windows) / phase_wall,
             "1/s");
  result.add("windows_per_s_1t", replay_rate, "1/s");
  result.add("latency_p50_ms", median(live.latency_ms), "ms");
  result.add("control_p50_ms", median(trigger_ms), "ms");
  return result;
}

}  // namespace pb
