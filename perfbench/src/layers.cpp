// Per-layer replay of the traced run.
//
// Layers the workload only reaches inside the service (dsp, features, ml,
// core, signal) are timed by replaying the workload's own windows, chunks
// and histories through their public functions, one span per call:
//   dsp        periodogram_into / wavedec_into per channel-window
//   features   EglassFeatureExtractor / PaperFeatureExtractor::extract_into,
//              StreamingExtractor::push per chunk
//   engine     Engine::ingest / Engine::poll_into in an inline replay,
//              Engine::swap_model
//   ml         InferenceModel::predict_into at the observed batch size,
//              RealtimeDetector::fit and compile
//   signal     PatientSession::history_record
//   core       the trigger's steps (Algorithm 1, build_window_dataset)
//   net        encode_chunk; and, where the workload never used the wire,
//              a short loopback session churn for the round-trip spans
// The replay runs untraced, traced and untraced again; the traced pass
// against the mean of the untraced ones is the tracing overhead.
#include <cmath>
#include <filesystem>
#include <unistd.h>

#include "common/random.hpp"
#include "core/aposteriori.hpp"
#include "core/self_learning.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"
#include "engine/engine.hpp"
#include "features/eglass_features.hpp"
#include "features/paper_features.hpp"
#include "features/streaming.hpp"
#include "ml/dataset.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

namespace pb {

using namespace esl;

namespace {

constexpr std::size_t k_dwt_levels = 7;  // as the e-Glass extractor
constexpr std::size_t k_probe_batches = 4;
constexpr std::size_t k_probe_sessions = 16;

struct Counts {
  std::size_t stream_windows = 0;
  std::size_t engine_windows = 0;
  std::size_t predicted_rows = 0;
  double bytes_per_window = 0.0;
  std::vector<double> label_error_s;
};

class CountingSink final : public features::WindowSink {
 public:
  void on_window(std::size_t, Seconds, std::span<const Real>) override {
    ++windows;
  }
  std::size_t windows = 0;
};

/// Views of the `samples`-long window of `record` starting at `start`.
std::vector<std::span<const Real>> window_views(const signal::EegRecord& record,
                                                std::size_t start) {
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(std::span<const Real>(record.channel(c).samples)
                        .subspan(start, k_window_samples));
  }
  return views;
}

/// Short loopback churn: sessions open, stream one window in the
/// workload's chunk shape, flush and close, over a 2-shard threaded
/// ShardServer.
void net_probe(const ReplayInputs& in) {
  net::ShardServerConfig config;
  config.address = platform::SocketAddress::parse(
      "unix:.bench_build/perfbench-" + std::to_string(::getpid()) +
      "-probe.sock");
  config.service.shards = 2;
  config.threaded_backend = true;
  net::ShardServer server(in.inputs->fleet_model, config);
  server.start();
  {
    engine::ServiceConfig client_config;
    client_config.shards = 2;
    engine::DetectionService client(
        in.inputs->fleet_model, client_config,
        std::make_unique<net::RemoteBackend>(server.address()));
    std::vector<std::span<const Real>> chunk;
    const std::size_t chunk_samples = in.streams.front().chunk_samples;
    const std::size_t chunks =
        (k_window_samples + chunk_samples - 1) / chunk_samples;
    for (std::size_t b = 0; b < k_probe_batches; ++b) {
      std::vector<engine::SessionHandle> handles;
      for (std::size_t j = 0; j < k_probe_sessions; ++j) {
        Scope span("net.open", Layer::kNet, j);
        handles.push_back(client.create_session(b * k_probe_sessions + j,
                                                engine::SessionConfig{}));
      }
      for (std::size_t k = 0; k < chunks; ++k) {
        for (std::size_t j = 0; j < k_probe_sessions; ++j) {
          in.streams[j % in.streams.size()].chunk(k + b * chunks, chunk);
          Scope span("net.ingest", Layer::kNet, j);
          client.ingest(handles[j], chunk);
        }
      }
      {
        Scope span("net.flush", Layer::kNet, b);
        client.flush_sessions(handles);
      }
      for (std::size_t j = 0; j < k_probe_sessions; ++j) {
        Scope span("net.close", Layer::kNet, j);
        client.close_session(handles[j]);
      }
    }
    client.stop();
  }
  server.stop();
}

Counts replay_layers(const ReplayInputs& in, double rows_per_batch,
                     bool probe_net) {
  Counts counts;
  const features::EglassFeatureExtractor eglass(2);
  const features::PaperFeatureExtractor paper;
  const dsp::Wavelet db4 = dsp::Wavelet::daubechies(4);
  dsp::Workspace workspace;
  std::vector<std::span<const Real>> chunk;

  // dsp + features on the workload's own windows.
  Matrix rows;
  RealVector row;
  for (std::size_t s = 0; s < in.streams.size(); ++s) {
    const Stream& stream = in.streams[s];
    const std::size_t length = stream.record->length_samples();
    const std::size_t samples = in.chunks_per_stream * stream.chunk_samples;
    const std::size_t windows =
        (samples - k_window_samples) / k_hop_samples + 1;
    for (std::size_t w = 0; w < windows; ++w) {
      const std::size_t start =
          (stream.first_chunk * stream.chunk_samples + w * k_hop_samples) %
          (length - k_window_samples);
      const auto views = window_views(*stream.record, start);
      for (const auto& channel : views) {
        {
          Scope span("dsp.periodogram", Layer::kDsp, s);
          dsp::periodogram_into(channel, k_sample_rate_hz, workspace,
                                workspace.psd);
        }
        Scope span("dsp.wavedec", Layer::kDsp, s);
        dsp::wavedec_into(channel, db4, k_dwt_levels, workspace,
                          workspace.decomposition,
                          dsp::ExtensionMode::kPeriodic);
      }
      {
        Scope span("features.eglass", Layer::kFeatures, s);
        eglass.extract_into(views, k_sample_rate_hz, row, workspace);
      }
      rows.append_row(row);
      Scope span("features.paper", Layer::kFeatures, s);
      paper.extract_into(views, k_sample_rate_hz, row, workspace);
    }
  }

  // Streaming extraction, chunk by chunk.
  for (std::size_t s = 0; s < in.streams.size(); ++s) {
    features::StreamingExtractor streaming(eglass, k_sample_rate_hz);
    CountingSink sink;
    for (std::size_t k = 0; k < in.chunks_per_stream; ++k) {
      in.streams[s].chunk(k, chunk);
      Scope span("features.stream_push", Layer::kFeatures, s);
      streaming.push(chunk, sink);
    }
    counts.stream_windows += sink.windows;
  }

  // Inline engine replay of the same chunks, one poll per round.
  engine::Engine engine(in.inputs->fleet_model);
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < in.streams.size(); ++s) {
    ids.push_back(engine.add_session());
  }
  std::vector<engine::Detection> detections;
  for (std::size_t k = 0; k < in.chunks_per_stream; ++k) {
    for (std::size_t s = 0; s < in.streams.size(); ++s) {
      in.streams[s].chunk(k, chunk);
      Scope span("engine.replay_ingest", Layer::kEngine, s);
      engine.ingest(ids[s], chunk);
    }
    Scope span("engine.replay_poll", Layer::kEngine, k);
    engine.poll_into(detections);
  }
  counts.engine_windows = detections.size();

  // Forest inference at the batch size the live service saw.
  const auto batch_rows = static_cast<std::size_t>(
      std::max(1.0, std::round(rows_per_batch)));
  const std::shared_ptr<const ml::InferenceModel> model =
      in.inputs->fleet_model->model();
  Matrix batch;
  RealVector proba;
  std::vector<int> labels;
  for (std::size_t first = 0; counts.predicted_rows < 4096;
       first += batch_rows) {
    batch.clear_rows();
    for (std::size_t r = 0; r < batch_rows; ++r) {
      batch.append_row(rows.row((first + r) % rows.rows()));
    }
    Scope span("ml.predict", Layer::kMl, first);
    model->predict_into(batch, proba, labels);
    counts.predicted_rows += batch_rows;
  }

  // The trigger's steps on each history (the whole record).
  for (const ReplayInputs::History& entry : in.histories) {
    const signal::EegRecord* history = entry.record;
    core::SelfLearningConfig config;
    config.average_seizure_duration_s = entry.average_seizure_s;
    engine::SessionConfig session_config;
    session_config.history_seconds = k_record_seconds;
    engine::PatientSession session(0, eglass, session_config);
    const Stream whole{history, k_hop_samples, 0};
    for (std::size_t k = 0; k < whole.chunks_per_record(); ++k) {
      whole.chunk(k, chunk);
      Scope span("engine.session_ingest", Layer::kEngine, k);
      session.ingest(chunk);
      session.clear_pending();
    }
    signal::EegRecord record(k_sample_rate_hz);
    {
      Scope span("signal.history_record", Layer::kSignal);
      record = session.history_record();
    }
    Scope trigger("core.replay_trigger", Layer::kCore);
    features::WindowedFeatures windowed;
    {
      Scope span("features.paper_windowed", Layer::kFeatures);
      windowed = features::extract_windowed_features(record, paper);
    }
    signal::Interval label;
    {
      Scope span("core.algo1", Layer::kCore);
      label = core::APosterioriDetector(config.labeling)
                  .label(windowed, config.average_seizure_duration_s);
    }
    counts.label_error_s.push_back(
        std::abs(label.onset - history->seizures().front().onset));
    ml::Dataset data;
    {
      Scope span("core.dataset", Layer::kCore);
      data = core::build_window_dataset(record, {label}, config.realtime);
    }
    core::RealtimeDetector detector(config.realtime);
    {
      Scope span("ml.fit", Layer::kMl);
      Rng rng(config.training_seed + 1);
      detector.fit(ml::balance_classes(data, rng), config.training_seed);
    }
    std::shared_ptr<const ml::InferenceModel> artifact;
    {
      Scope span("ml.compile", Layer::kMl);
      artifact = detector.compile();
    }
    Scope span("engine.swap", Layer::kEngine);
    engine.swap_model(ids.front(), artifact);
  }

  // Wire encoding of the workload's chunks, and bytes per window.
  std::vector<std::byte> encoded;
  std::size_t chunk_bytes = 0;
  std::size_t chunks = 0;
  for (std::size_t s = 0; s < in.streams.size(); ++s) {
    for (std::size_t k = 0; k < in.chunks_per_stream; ++k) {
      in.streams[s].chunk(k, chunk);
      encoded.clear();
      {
        Scope span("net.encode_chunk", Layer::kNet, s);
        net::encode_chunk(encoded, s, k, chunk);
      }
      chunk_bytes += encoded.size();
      ++chunks;
    }
  }
  const double chunk_frame = static_cast<double>(chunk_bytes) /
                             static_cast<double>(chunks);
  const auto chunk_samples =
      static_cast<double>(in.streams.front().chunk_samples);
  if (in.churn_shape) {
    // One window per session: its open, chunk, flush and close frames.
    encoded.clear();
    net::encode_open_session(encoded, 1, 1, net::OpenSessionPayload{});
    net::encode_flush(encoded, 2);
    net::encode_close_session(encoded, 1, 3);
    counts.bytes_per_window = static_cast<double>(encoded.size()) +
                              chunk_frame * k_window_samples / chunk_samples;
  } else {
    counts.bytes_per_window = chunk_frame * k_hop_samples / chunk_samples;
  }

  if (probe_net) {
    net_probe(in);
  }
  return counts;
}

double sum_us(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

}  // namespace

void report_layers(const ReplayInputs& replay, const Live& live,
                   Result& result) {
  trace::Recorder& recorder = trace::Recorder::instance();
  std::filesystem::create_directories(".bench_build");
  const bool probe_net = recorder.durations_us("net.open").empty();

  recorder.set_enabled(false);
  Clock::time_point start = Clock::now();
  replay_layers(replay, live.rows_per_batch, probe_net);
  const double untraced_first = seconds_between(start, Clock::now());

  recorder.set_enabled(true);
  Counts counts;
  double traced = 0.0;
  {
    trace::LaneScope lane("replay");
    start = Clock::now();
    counts = replay_layers(replay, live.rows_per_batch, probe_net);
    traced = seconds_between(start, Clock::now());
  }

  recorder.set_enabled(false);
  start = Clock::now();
  replay_layers(replay, live.rows_per_batch, probe_net);
  const double untraced =
      0.5 * (untraced_first + seconds_between(start, Clock::now()));

  const auto p50 = [&](const char* name) {
    return median(recorder.durations_us(name));
  };
  const auto total = [&](const char* name) {
    return sum_us(recorder.durations_us(name));
  };
  const double engine_windows = static_cast<double>(counts.engine_windows);
  result.add("features.eglass_window_us", p50("features.eglass"), "us");
  result.add("features.stream_push_us_per_window",
             total("features.stream_push") /
                 static_cast<double>(counts.stream_windows),
             "us");
  result.add("features.paper_window_us", p50("features.paper"), "us");
  result.add("dsp.periodogram_us", p50("dsp.periodogram"), "us");
  result.add("dsp.wavedec_us", p50("dsp.wavedec"), "us");
  result.add("core.dataset_ms", p50("core.dataset") / 1e3, "ms");
  result.add("core.algo1_ms", p50("core.algo1") / 1e3, "ms");
  result.add("core.triggers", static_cast<double>(live.triggers), "count");
  result.add("core.label_error_s",
             median(live.label_error_s.empty() ? counts.label_error_s
                                               : live.label_error_s),
             "s");
  result.add("ml.fit_ms", p50("ml.fit") / 1e3, "ms");
  result.add("ml.compile_ms", p50("ml.compile") / 1e3, "ms");
  result.add("ml.predict_us_per_row",
             total("ml.predict") / static_cast<double>(counts.predicted_rows),
             "us");
  result.add("signal.history_record_ms", p50("signal.history_record") / 1e3,
             "ms");
  result.add("engine.swap_us", p50("engine.swap"), "us");
  result.add("engine.ingest_us_per_window",
             total("engine.replay_ingest") / engine_windows, "us");
  result.add("engine.poll_us_per_window",
             total("engine.replay_poll") / engine_windows, "us");
  result.add("engine.rows_per_batch", live.rows_per_batch, "count");
  result.add("engine.ingest_blocked_share", live.ingest_blocked_share,
             "share");
  result.add("engine.flush_us_p50", p50("engine.flush"), "us");
  result.add("net.open_us_p50", p50("net.open"), "us");
  result.add("net.close_us_p50", p50("net.close"), "us");
  result.add("net.flush_us_p50", p50("net.flush"), "us");
  result.add("net.ingest_call_us_p50", p50("net.ingest"), "us");
  result.add("net.encode_chunk_us", p50("net.encode_chunk"), "us");
  result.add("net.bytes_per_window", counts.bytes_per_window, "B");
  result.add("gen.lag_p99_ms", quantile(live.lag_ms, 0.99), "ms");
  result.add("gen.lag_max_ms", max_of(live.lag_ms), "ms");
  result.add("tail.latency_p99_ms", quantile(live.latency_ms, 0.99), "ms");
  result.add("tail.latency_max_ms", max_of(live.latency_ms), "ms");
  result.add("tail.stall_p99_ms",
             quantile(live.stall_ms.empty() ? live.latency_ms : live.stall_ms,
                      0.99),
             "ms");
  result.add("proc.cpu_us_per_window", live.cpu_us_per_window, "us");

  const trace::Report report = recorder.report();
  result.add("trace.overhead_share", traced / untraced - 1.0, "share");
  result.add("trace.unattributed_share", report.unattributed_share(), "share");
  for (std::size_t l = 0; l < trace::k_layers; ++l) {
    const auto layer = static_cast<trace::Layer>(l);
    result.add(std::string("self.") + trace::layer_name(layer) + "_share",
               report.self_share(layer), "share");
  }
}

}  // namespace pb
