#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace pb::trace {

namespace {
thread_local Lane* t_lane = nullptr;
}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* k_names[k_layers] = {
      "signal", "dsp", "features", "ml", "core", "engine", "net", "bench"};
  return k_names[static_cast<std::size_t>(layer)];
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Report self_time(const std::vector<const Lane*>& lanes) {
  Report report;
  for (const Lane* lane : lanes) {
    report.wall_ns += static_cast<double>(lane->end_ns - lane->begin_ns);
    std::vector<std::int64_t> child_ns(lane->spans.size(), 0);
    for (const Span& span : lane->spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < lane->spans.size(); ++i) {
      const Span& span = lane->spans[i];
      const std::int64_t duration = span.end_ns - span.start_ns;
      if (span.parent < 0) {
        report.attributed_ns += static_cast<double>(duration);
      }
      report.self_ns[static_cast<std::size_t>(span.layer)] +=
          static_cast<double>(duration - child_ns[i]);
    }
  }
  return report;
}

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

Lane* Recorder::open_lane(const char* name) {
  if (!enabled_) {
    return nullptr;
  }
  auto lane = std::make_unique<Lane>();
  lane->name = name;
  lane->spans.reserve(1 << 12);
  lane->begin_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::move(lane));
  return lanes_.back().get();
}

void Recorder::close_lane(Lane* lane) {
  if (lane != nullptr) {
    lane->end_ns = now_ns();
  }
}

Report Recorder::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Lane*> lanes;
  for (const auto& lane : lanes_) {
    lanes.push_back(lane.get());
  }
  return self_time(lanes);
}

std::vector<double> Recorder::durations_us(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    for (const Span& span : lane->spans) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

bool Recorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = *lanes_[l];
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"%s\", \"spans\": %zu}}",
                 first ? "" : ",\n", l, lane.name.c_str(), lane.spans.size());
    first = false;
    const std::size_t written =
        std::min(lane.spans.size(), k_max_written_spans);
    for (std::size_t i = 0; i < written; ++i) {
      const Span& s = lane.spans[i];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"request\": %llu}}",
                   s.name, layer_name(s.layer), l,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.request));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

LaneScope::LaneScope(const char* name)
    : lane_(Recorder::instance().open_lane(name)), previous_(t_lane) {
  if (lane_ != nullptr) {
    t_lane = lane_;
  }
}

LaneScope::~LaneScope() {
  if (lane_ != nullptr) {
    Recorder::instance().close_lane(lane_);
    t_lane = previous_;
  }
}

Scope::Scope(const char* name, Layer layer, std::uint64_t request)
    : lane_(t_lane) {
  if (lane_ == nullptr) {
    return;
  }
  index_ = static_cast<std::int32_t>(lane_->spans.size());
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = lane_->open.empty() ? -1 : lane_->open.back();
  span.request = request;
  lane_->open.push_back(index_);
  lane_->spans.push_back(span);
  lane_->spans.back().start_ns = now_ns();
}

Scope::~Scope() {
  if (lane_ == nullptr) {
    return;
  }
  lane_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  lane_->open.pop_back();
}

void add_span(Lane& lane, const char* name, Layer layer, std::int64_t start_ns,
              std::int64_t end_ns, std::int32_t parent) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  lane.spans.push_back(span);
}

}  // namespace pb::trace
