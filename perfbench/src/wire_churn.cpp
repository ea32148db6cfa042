// wire_churn: short sessions through RemoteBackend to an in-process
// ShardServer over a loopback unix socket (closed loop, one connection).
//
// Why: per batch, 16 sessions open, stream 4 s of signal (exactly one
// window) in 0.25 s chunks, flush and close, so open and close round trips,
// frame encode and decode and per-chunk queue hand-off dominate client
// time. Features are one window per session and poll batches are small:
// the other side of any batch-size-selected inference path. Threads:
// client, server loop and 2 shard workers. The same batches through an
// in-process InlineBackend service are the single-thread baseline and the
// reference the wire detections are checked against.
//
// The wire path is a chain of round trips between threads. Spread over
// the CPUs of a shared host, each hop waits on the host to wake a CPU,
// which moved this workload's rate by 2x between runs of the same code; so
// every group of batches runs with the whole process on one CPU (rotated
// per group, see RotatingRate), and the rate measures the path's own cost.
#include <filesystem>
#include <string>
#include <unistd.h>

#include "net/client.hpp"
#include "net/shard_server.hpp"
#include "workloads.hpp"

namespace pb {

using namespace esl;

namespace {

constexpr std::size_t k_batch = 16;
constexpr std::size_t k_chunk_samples = 64;  // 0.25 s
constexpr std::size_t k_chunks_per_session =
    k_window_samples / k_chunk_samples;  // one window
constexpr std::size_t k_warm_batches = 4;
/// Cycles of (batches over the wire, the same batches in process) per run.
constexpr std::size_t k_cycles = 10;
/// Batches per second of --seconds a wire block runs: a fixed amount of
/// work, so what the run leaves behind (closed sessions, logs) and with it
/// peak_rss_mb do not depend on how fast it went. About the wire rate on
/// one CPU of a 4-vCPU x86 host.
constexpr double k_batches_per_s = 128.0;
/// Throughput is the median rate over groups of this many batches.
constexpr std::size_t k_group_batches = 8;
constexpr double k_rate_group_windows = k_group_batches * k_batch;

struct State {
  Inputs inputs;
  std::unique_ptr<net::ShardServer> server;
  std::unique_ptr<engine::DetectionService> client;
};

/// The stream of churn session `n` (a pure function of the seed).
Stream session_stream(const Inputs& inputs, std::uint64_t seed,
                      std::size_t n) {
  const std::uint64_t draw = mix(mix(seed ^ 0xC4ull) + n);
  Stream stream;
  stream.record = &inputs.pool[draw % inputs.pool.size()];
  stream.chunk_samples = k_chunk_samples;
  stream.first_chunk = (draw >> 16) % stream.chunks_per_record();
  return stream;
}

struct CallNames {
  const char* open;
  const char* ingest;
  const char* flush;
  const char* close;
  Layer layer;
};
constexpr CallNames k_remote_calls{"net.open", "net.ingest", "net.flush",
                                   "net.close", Layer::kNet};
constexpr CallNames k_inline_calls{"engine.create", "engine.ingest",
                                   "engine.flush", "engine.close",
                                   Layer::kEngine};

struct BatchTimes {
  std::vector<Step> steps;                     // per batch
  std::vector<double> lifecycle_ms;            // per session
  std::vector<Clock::time_point> last_sent;    // per session index
  double ingest_s = 0.0;
};

/// One batch: open 16 sessions, stream one window each, flush, close.
void run_batch(engine::DetectionService& service, DetectionLog& log,
               const Inputs& inputs, std::uint64_t seed, std::size_t batch,
               const CallNames& calls, BatchTimes& times) {
  std::vector<engine::SessionHandle> handles;
  std::vector<Stream> streams;
  std::vector<Clock::time_point> opened;
  std::vector<std::span<const Real>> chunk;
  const Clock::time_point start = Clock::now();
  for (std::size_t j = 0; j < k_batch; ++j) {
    const std::size_t n = batch * k_batch + j;
    streams.push_back(session_stream(inputs, seed, n));
    opened.push_back(Clock::now());
    Scope span(calls.open, calls.layer, n);
    handles.push_back(service.create_session(n, engine::SessionConfig{}));
    log.add(handles.back());
  }
  times.last_sent.resize((batch + 1) * k_batch);
  for (std::size_t k = 0; k < k_chunks_per_session; ++k) {
    for (std::size_t j = 0; j < k_batch; ++j) {
      streams[j].chunk(k, chunk);
      const Clock::time_point sent = Clock::now();
      times.last_sent[batch * k_batch + j] = sent;
      {
        Scope span(calls.ingest, calls.layer, batch * k_batch + j);
        service.ingest(handles[j], chunk);
      }
      times.ingest_s += seconds_between(sent, Clock::now());
    }
  }
  {
    Scope span(calls.flush, calls.layer, batch);
    service.flush_sessions(handles);
  }
  for (std::size_t j = 0; j < k_batch; ++j) {
    {
      Scope span(calls.close, calls.layer, batch * k_batch + j);
      service.close_session(handles[j]);
    }
    times.lifecycle_ms.push_back(ms_between(opened[j], Clock::now()));
  }
  times.steps.push_back({k_batch, seconds_between(start, Clock::now())});
}

}  // namespace

Result run_wire_churn(const Options& options) {
  Result result;
  std::unique_ptr<State> owned;
  std::filesystem::create_directories(".bench_build");
  int repetition = 0;
  const double setup_s = timed_setup(5, owned, [&](State& s) {
    s.inputs = make_inputs(options.seed, 8, 8);
    net::ShardServerConfig config;
    // Relative path: the run's working directory is the checkout root.
    config.address = platform::SocketAddress::parse(
        "unix:.bench_build/perfbench-" + std::to_string(::getpid()) + "-" +
        std::to_string(repetition++) + ".sock");
    config.service.shards = 2;
    config.threaded_backend = true;
    s.server = std::make_unique<net::ShardServer>(s.inputs.fleet_model, config);
    s.server->start();
    engine::ServiceConfig client_config;
    client_config.shards = 2;
    s.client = std::make_unique<engine::DetectionService>(
        s.inputs.fleet_model, client_config,
        std::make_unique<net::RemoteBackend>(s.server->address()));
  });
  State& state = *owned;

  Live live;
  DetectionLog remote_log;
  DetectionLog inline_log;
  BatchTimes remote;
  BatchTimes in_process;
  engine::DetectionService& client = *state.client;
  client.set_detection_sink(&remote_log);
  engine::DetectionService inline_service(state.inputs.fleet_model);
  inline_service.set_detection_sink(&inline_log);
  for (std::size_t b = 0; b < k_warm_batches; ++b) {
    run_batch(client, remote_log, state.inputs, options.seed, b,
              k_remote_calls, remote);
    run_batch(inline_service, inline_log, state.inputs, options.seed, b,
              k_inline_calls, in_process);
  }
  remote = BatchTimes{};

  // k_cycles cycles: a block of batches over the wire, then the same
  // batches in process, so both rates sample the whole run. Both run with
  // the process pinned to one CPU per group (RotatingRate).
  const std::size_t groups_per_block = std::max<std::size_t>(
      1, static_cast<std::size_t>(0.45 * options.seconds * k_batches_per_s /
                                  (k_cycles * k_group_batches)));
  std::size_t batches = k_warm_batches;
  double remote_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> remote_rates;
  std::vector<double> inline_rates;
  for (std::size_t cycle = 0; cycle < k_cycles; ++cycle) {
    const std::size_t first = batches;
    {
      trace::LaneScope lane("wire_churn.remote");
      RotatingRate rate(k_rate_group_windows, remote_rates.size());
      const double cpu_start = cpu_seconds();
      const Clock::time_point start = Clock::now();
      Clock::time_point previous_end = start;
      while (batches < first + groups_per_block * k_group_batches) {
        live.lag_ms.push_back(ms_between(previous_end, Clock::now()));
        run_batch(client, remote_log, state.inputs, options.seed, batches++,
                  k_remote_calls, remote);
        previous_end = Clock::now();
        rate.add(remote.steps.back().windows, remote.steps.back().seconds);
      }
      remote_s += seconds_between(start, Clock::now());
      cpu_s += cpu_seconds() - cpu_start;
      remote_rates.insert(remote_rates.end(), rate.rates().begin(),
                          rate.rates().end());
    }
    {
      trace::LaneScope lane("wire_churn.inline");
      RotatingRate rate(k_rate_group_windows, inline_rates.size());
      for (std::size_t b = first; b < batches; ++b) {
        run_batch(inline_service, inline_log, state.inputs, options.seed, b,
                  k_inline_calls, in_process);
        rate.add(in_process.steps.back().windows,
                 in_process.steps.back().seconds);
      }
      inline_rates.insert(inline_rates.end(), rate.rates().begin(),
                          rate.rates().end());
    }
  }
  live.cpu_us_per_window =
      cpu_s * 1e6 / static_cast<double>((batches - k_warm_batches) * k_batch);
  live.ingest_blocked_share = remote.ingest_s / remote_s;
  live.rows_per_batch = rows_per_batch(state.server->service().stats());
  client.stop();
  state.server->stop();

  // ---- output check, latency, degenerate-run guard.
  const std::size_t sessions = batches * k_batch;
  std::size_t timed_windows = 0;
  for (std::size_t n = 0; n < sessions; ++n) {
    result.failed += check_session(remote_log.logs()[n], inline_log.logs()[n],
                                   1, result.attempted);
    if (n >= k_warm_batches * k_batch && !remote_log.logs()[n].empty()) {
      ++timed_windows;
      live.latency_ms.push_back(
          ms_between(remote.last_sent[n], remote_log.logs()[n].front().at));
    }
  }
  const std::size_t timed_sessions = sessions - k_warm_batches * k_batch;
  if (timed_sessions == 0 || timed_windows < timed_sessions) {
    result.refuse(
        "wire_churn classified fewer windows than its sessions imply");
  }

  if (options.trace) {
    ReplayInputs replay;
    replay.inputs = &state.inputs;
    for (std::size_t n = 0; n < 16; ++n) {
      replay.streams.push_back(session_stream(state.inputs, options.seed, n));
    }
    replay.chunks_per_stream = 64;
    for (std::size_t i = 0; i < 2; ++i) {
      replay.histories.push_back(
          {&state.inputs.pool[i], state.inputs.sim->average_seizure_duration(
                                      state.inputs.pool_patients[i])});
    }
    replay.churn_shape = true;
    report_layers(replay, live, result);
    return result;
  }
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("windows_per_s", median(remote_rates), "1/s");
  result.add("windows_per_s_1t", median(inline_rates), "1/s");
  result.add("latency_p50_ms", median(live.latency_ms), "ms");
  result.add("control_p50_ms", median(remote.lifecycle_ms), "ms");
  return result;
}

}  // namespace pb
