// fleet: 256 wearables streaming 1 s chunks into an in-process service.
//
// Why: feature extraction is most of a window's cost here, 256 sessions'
// rings and workspaces exceed L2, and saturated polls batch many rows. The
// stage-1 screen is off, so every window reaches the forest; `net` is not
// used at all. Two services stream the same per-session chunk sequences:
//   threaded  ThreadPoolBackend, 2 shards, in two kinds of segment:
//             saturated  no per-round flush; one generator per shard (the
//                        caller and one more thread), so each shard is
//                        paced only by its own backpressure (4 threads)
//             open loop  a fixed offered rate, each session's arrivals
//                        staggered evenly over the period (3 threads,
//                        one CPU, see below)
//   inline    InlineBackend, 1 shard, caller thread: the single-thread
//             baseline and the reference the threaded detections are
//             checked against
// The run is k_cycles cycles of a saturated, an open-loop and an inline
// segment, so every metric samples the whole run and a slow stretch of a
// shared host moves only a part of it. After each threaded segment the
// idle, flushed service starts and closes k_start_groups groups of 8 extra
// sessions: control_p50_ms.
//
// Open-loop segments and session-start groups run with the whole process on
// one CPU (rotated, see ProcessPin). Spread over CPUs, every arrival at an
// idle shard waits for the host to wake that shard's CPU: on a shared host
// that wait moved the open-loop p50 latency between 0.3 and 2.9 ms from run
// to run of the same code, while on one CPU, with a generator that spins
// instead of sleeping, the p90 stayed within 0.33-0.36 ms.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "workloads.hpp"

namespace pb {

using namespace esl;

namespace {

constexpr std::size_t k_sessions = 256;
constexpr std::size_t k_group = 8;
constexpr std::size_t k_cycles = 8;
/// Session-start groups after each threaded segment.
constexpr std::size_t k_start_groups = 6;
/// Throughput is the median rate over groups of this many windows.
constexpr std::size_t k_rate_group_windows = 4 * k_sessions;
/// Chunks each session receives before timing starts: its first window.
constexpr std::size_t k_warm_chunks = 4;
/// Offered load of the open-loop segments, which run on one CPU: about 40 %
/// of what one x86 core classifies.
constexpr double k_offered_windows_per_s = 1500.0;
/// An open-loop run whose generator falls further behind is refused.
constexpr double k_max_lag_ms = 500.0;

struct State {
  Inputs inputs;
  std::vector<Stream> streams;
  /// Open-loop arrival slot of each session within a period.
  std::vector<std::size_t> slots;
  std::unique_ptr<engine::DetectionService> threaded;
};

std::unique_ptr<engine::DetectionService> make_service(const Inputs& inputs,
                                                       bool threaded) {
  engine::ServiceConfig config;
  config.shards = threaded ? 2 : 1;
  std::unique_ptr<engine::ExecutionBackend> backend;
  if (threaded) {
    backend = std::make_unique<engine::ThreadPoolBackend>();
  }
  return std::make_unique<engine::DetectionService>(inputs.fleet_model, config,
                                                    std::move(backend));
}

/// Streams the first window of `streams[first, end)` into new sessions
/// (create, k_warm_chunks chunks each, scoped flush); returns the seconds
/// it took. The handles are appended to `handles` and registered in `log`.
double start_group(engine::DetectionService& service, DetectionLog& log,
                   const std::vector<Stream>& streams, std::size_t first,
                   std::size_t end, std::uint64_t first_key,
                   std::vector<engine::SessionHandle>& handles) {
  std::vector<std::span<const Real>> chunk;
  const std::size_t base = handles.size();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = first; i < end; ++i) {
    const std::uint64_t key = first_key + (i - first);
    Scope span("engine.create", Layer::kEngine, key);
    handles.push_back(service.create_session(key, engine::SessionConfig{}));
    log.add(handles.back());
  }
  for (std::size_t k = 0; k < k_warm_chunks; ++k) {
    for (std::size_t i = first; i < end; ++i) {
      streams[i].chunk(k, chunk);
      Scope span("engine.ingest", Layer::kEngine, i);
      service.ingest(handles[base + (i - first)], chunk);
    }
  }
  {
    Scope span("engine.flush", Layer::kEngine);
    service.flush_sessions(std::span<const engine::SessionHandle>(
        handles.data() + base, end - first));
  }
  return seconds_between(start, Clock::now());
}

/// Waits until `due` without sleeping (a sleeping thread wakes when the
/// host next runs its CPU), yielding to the shard workers on the same CPU.
void spin_until(Clock::time_point due) {
  while (Clock::now() < due) {
    sched_yield();
  }
}

/// Opens one session per stream, in groups of k_group (untimed).
std::vector<engine::SessionHandle> open_sessions(
    engine::DetectionService& service, DetectionLog& log,
    const std::vector<Stream>& streams) {
  std::vector<engine::SessionHandle> handles;
  for (std::size_t first = 0; first < streams.size(); first += k_group) {
    start_group(service, log, streams, first,
                std::min(first + k_group, streams.size()), first, handles);
  }
  return handles;
}

/// Extra sessions the threaded service starts (and closes) between segments:
/// log index and the fleet session whose first window they repeat.
struct Starts {
  std::vector<double> ms;
  std::vector<std::pair<std::size_t, std::size_t>> checked;
  std::uint64_t next_key = k_sessions;
};

/// Starts k_start_groups groups of k_group sessions on an idle service that
/// already hosts the fleet, each repeating the first window of the next
/// fleet streams, then closes them. Each group runs with the process pinned
/// to the next CPU (see RotatingRate for why).
void start_and_close(engine::DetectionService& service, DetectionLog& log,
                     const std::vector<Stream>& streams, Starts& starts) {
  std::vector<engine::SessionHandle> handles;
  ProcessPin pin;
  for (std::size_t g = 0; g < k_start_groups; ++g) {
    pin.to(starts.ms.size());
    const std::size_t first =
        static_cast<std::size_t>(starts.next_key) % k_sessions;
    const std::size_t end = std::min(first + k_group, k_sessions);
    const std::size_t log_index = log.logs().size();
    starts.ms.push_back(
        1e3 * start_group(service, log, streams, first, end, starts.next_key,
                          handles));
    for (std::size_t i = first; i < end; ++i) {
      starts.checked.emplace_back(log_index + (i - first), i);
    }
    starts.next_key += end - first;
  }
  for (const engine::SessionHandle handle : handles) {
    Scope span("engine.close", Layer::kEngine);
    service.close_session(handle);
  }
}

}  // namespace

Result run_fleet(const Options& options) {
  Result result;
  std::unique_ptr<State> owned;
  const double setup_s = timed_setup(5, owned, [&](State& s) {
    s.inputs = make_inputs(options.seed, 8, 8);
    std::uint64_t draw = mix(options.seed ^ 0xF1ull);
    for (std::size_t i = 0; i < k_sessions; ++i) {
      draw = mix(draw);
      Stream stream;
      stream.record = &s.inputs.pool[draw % s.inputs.pool.size()];
      stream.chunk_samples = k_hop_samples;
      stream.first_chunk = (draw >> 16) % stream.chunks_per_record();
      s.streams.push_back(stream);
    }
    s.slots = arrival_slots(k_sessions, options.seed ^ 0xA5ull);
    s.threaded = make_service(s.inputs, true);
  });
  State& state = *owned;
  const std::vector<Stream>& streams = state.streams;
  const double segment_s =
      0.25 * options.seconds / static_cast<double>(k_cycles);
  std::vector<std::span<const Real>> chunk;
  Live live;

  // Every session of both services gets its first window untimed.
  DetectionLog threaded_log;
  DetectionLog inline_log;
  engine::DetectionService& threaded = *state.threaded;
  const auto inline_service = make_service(state.inputs, false);
  threaded.set_detection_sink(&threaded_log);
  inline_service->set_detection_sink(&inline_log);
  std::vector<engine::SessionHandle> handles;
  std::vector<engine::SessionHandle> inline_handles;
  {
    trace::LaneScope lane("fleet.open_sessions");
    handles = open_sessions(threaded, threaded_log, streams);
    inline_handles = open_sessions(*inline_service, inline_log, streams);
  }
  // Chunks each threaded session has received; the shards' generators
  // advance at their own pace, so sessions differ.
  std::vector<std::size_t> next_chunk(k_sessions, k_warm_chunks);
  std::vector<std::vector<std::size_t>> by_shard(threaded.shard_count());
  for (std::size_t i = 0; i < k_sessions; ++i) {
    by_shard[handles[i].shard()].push_back(i);
  }
  std::vector<double> saturated_rates;
  double saturated_cpu_s = 0.0;
  double saturated_windows = 0.0;
  engine::EngineStats saturated_batching;  // forest windows and batches
  // Open loop: arrival order within a period, and when each session's
  // open-loop windows were due (by window index; other windows stay at the
  // epoch).
  const double period_s =
      static_cast<double>(k_sessions) / k_offered_windows_per_s;
  const auto rounds_per_segment = std::max<std::size_t>(
      1, static_cast<std::size_t>(segment_s / period_s));
  std::vector<std::size_t> session_at(k_sessions);
  for (std::size_t i = 0; i < k_sessions; ++i) {
    session_at[state.slots[i]] = i;
  }
  std::vector<std::vector<Clock::time_point>> due_of(k_sessions);
  double ingest_s = 0.0;
  double open_s = 0.0;
  std::size_t inline_rounds = 0;
  std::vector<double> inline_rates;
  Starts starts;

  for (std::size_t cycle = 0; cycle < k_cycles; ++cycle) {
    // ---- saturated: the generators never wait on a schedule; each shard's
    // backpressure paces its own generator.
    {
      std::atomic<bool> stop{false};
      const auto generate = [&](std::size_t shard,
                                std::vector<std::span<const Real>>& views) {
        for (const std::size_t i : by_shard[shard]) {
          streams[i].chunk(next_chunk[i]++, views);
          Scope span("engine.ingest", Layer::kEngine, i);
          threaded.ingest(handles[i], views);
        }
      };
      trace::LaneScope lane("fleet.saturated");
      const std::vector<std::size_t> chunks_before = next_chunk;
      const engine::EngineStats stats_before = threaded.stats();
      const double cpu_start = cpu_seconds();
      const Clock::time_point start = Clock::now();
      std::thread second([&] {
        trace::LaneScope second_lane("fleet.saturated");
        std::vector<std::span<const Real>> views;
        while (!stop.load(std::memory_order_relaxed)) {
          generate(1, views);
        }
      });
      while (seconds_between(start, Clock::now()) < segment_s) {
        generate(0, chunk);
      }
      stop.store(true);
      const Clock::time_point end = Clock::now();
      second.join();
      {
        Scope span("engine.flush", Layer::kEngine);
        threaded.flush();
      }
      saturated_cpu_s += cpu_seconds() - cpu_start;
      const engine::EngineStats stats_after = threaded.stats();
      saturated_batching.forest_windows +=
          stats_after.forest_windows - stats_before.forest_windows;
      saturated_batching.batches += stats_after.batches - stats_before.batches;
      for (std::size_t i = 0; i < k_sessions; ++i) {
        saturated_windows +=
            static_cast<double>(next_chunk[i] - chunks_before[i]);
      }
      // Delivery rate over each k_rate_group_windows consecutive
      // detections delivered inside the segment.
      std::vector<double> at_s;
      for (std::size_t i = 0; i < k_sessions; ++i) {
        for (const Delivered& d : threaded_log.logs()[i]) {
          if (d.at > start && d.at <= end) {
            at_s.push_back(seconds_between(start, d.at));
          }
        }
      }
      std::sort(at_s.begin(), at_s.end());
      for (std::size_t k = 0; k + k_rate_group_windows < at_s.size();
           k += k_rate_group_windows) {
        const double seconds = at_s[k + k_rate_group_windows] - at_s[k];
        if (seconds > 0.0) {
          saturated_rates.push_back(
              static_cast<double>(k_rate_group_windows) / seconds);
        }
      }
    }
    {
      trace::LaneScope lane("fleet.starts");
      start_and_close(threaded, threaded_log, streams, starts);
    }

    // ---- open loop: arrivals on a fixed schedule, whatever the service
    // does.
    {
      trace::LaneScope lane("fleet.open_loop");
      ProcessPin pin;
      pin.to(cycle);
      const Clock::time_point start =
          Clock::now() + std::chrono::milliseconds(5);
      for (std::size_t r = 0; r < rounds_per_segment; ++r) {
        for (std::size_t slot = 0; slot < k_sessions; ++slot) {
          const std::size_t i = session_at[slot];
          const Clock::time_point due =
              start + from_seconds((static_cast<double>(r) +
                                    static_cast<double>(slot) / k_sessions) *
                                   period_s);
          {
            Scope span("bench.wait", Layer::kBench);
            spin_until(due);
          }
          const Clock::time_point sent = Clock::now();
          live.lag_ms.push_back(ms_between(due, sent));
          // Chunk c completes window c - (k_warm_chunks - 1).
          due_of[i].resize(next_chunk[i] - k_warm_chunks + 2);
          due_of[i].back() = due;
          streams[i].chunk(next_chunk[i]++, chunk);
          {
            Scope span("engine.ingest", Layer::kEngine, i);
            threaded.ingest(handles[i], chunk);
          }
          ingest_s += seconds_between(sent, Clock::now());
        }
      }
      {
        Scope span("engine.flush", Layer::kEngine);
        threaded.flush();
      }
      open_s += seconds_between(start, Clock::now());
    }
    {
      trace::LaneScope lane("fleet.starts");
      start_and_close(threaded, threaded_log, streams, starts);
    }

    // ---- inline: the same chunk sequences on one thread, up to the
    // furthest threaded session.
    {
      trace::LaneScope lane("fleet.inline");
      const std::size_t target =
          *std::max_element(next_chunk.begin(), next_chunk.end()) -
          k_warm_chunks;
      RotatingRate rate(static_cast<double>(k_rate_group_windows),
                        inline_rates.size());
      for (; inline_rounds < target; ++inline_rounds) {
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < k_sessions; ++i) {
          streams[i].chunk(k_warm_chunks + inline_rounds, chunk);
          Scope span("engine.ingest", Layer::kEngine, i);
          inline_service->ingest(inline_handles[i], chunk);
        }
        {
          Scope span("engine.flush", Layer::kEngine);
          inline_service->flush();
        }
        rate.add(k_sessions, seconds_between(start, Clock::now()));
      }
      inline_rates.insert(inline_rates.end(), rate.rates().begin(),
                          rate.rates().end());
    }
  }
  live.cpu_us_per_window = saturated_cpu_s * 1e6 / saturated_windows;
  live.rows_per_batch = rows_per_batch(saturated_batching);
  live.ingest_blocked_share = ingest_s / open_s;
  threaded.stop();

  // ---- output check and degenerate-run guards (outside the timed phases).
  const auto& reference = inline_log.logs();
  for (std::size_t i = 0; i < k_sessions; ++i) {
    result.failed += check_session(threaded_log.logs()[i], reference[i],
                                   next_chunk[i] - k_warm_chunks + 1,
                                   result.attempted);
    result.failed += check_session(reference[i], reference[i],
                                   1 + inline_rounds, result.attempted);
  }
  for (const auto& [index, session] : starts.checked) {
    result.failed += check_session(threaded_log.logs()[index],
                                   reference[session], 1, result.attempted);
  }
  std::size_t scheduled = starts.checked.size();
  for (std::size_t i = 0; i < k_sessions; ++i) {
    scheduled += next_chunk[i] - k_warm_chunks + 1;
  }
  if (threaded_log.delivered() < scheduled || saturated_rates.empty() ||
      inline_rates.empty()) {
    result.refuse("fleet classified fewer windows than its schedule implies");
  }
  if (max_of(live.lag_ms) > k_max_lag_ms) {
    result.refuse("fleet open-loop generator fell behind its schedule");
  }
  for (std::size_t i = 0; i < k_sessions; ++i) {
    for (const Delivered& d : threaded_log.logs()[i]) {
      if (d.window < due_of[i].size() &&
          due_of[i][d.window] != Clock::time_point{}) {
        live.latency_ms.push_back(ms_between(due_of[i][d.window], d.at));
      }
    }
  }

  if (options.trace) {
    ReplayInputs replay;
    replay.inputs = &state.inputs;
    replay.streams.assign(streams.begin(), streams.begin() + 16);
    replay.chunks_per_stream = 32;
    for (std::size_t i = 0; i < 2; ++i) {
      replay.histories.push_back(
          {&state.inputs.pool[i], state.inputs.sim->average_seizure_duration(
                                      state.inputs.pool_patients[i])});
    }
    report_layers(replay, live, result);
    return result;
  }
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("windows_per_s", median(saturated_rates), "1/s");
  result.add("windows_per_s_1t", median(inline_rates), "1/s");
  result.add("latency_p50_ms", median(live.latency_ms), "ms");
  result.add("control_p50_ms", median(starts.ms), "ms");
  return result;
}

}  // namespace pb
