// In-memory span recorder for the traced benchmark run.
//
// A span is one call the benchmark makes into a layer of the library:
// name, layer, start, end, parent span and request id (session/window).
// Spans are recorded per lane; a lane is one benchmark thread over one
// stretch of work (a timed phase, the control loop, the layer replay), and
// its wall time is the interval the lane was open. Calls into a lane nest
// on that thread, so a span's self time is its duration minus the time its
// child spans cover, and
//
//     sum over layers of self time + unattributed time = sum of lane walls
//
// holds exactly, where unattributed time is lane time outside every
// top-level span. Nothing is recorded while the recorder is disabled, and
// the library itself is never instrumented: what happens on shard worker
// threads is attributed to the call that waited for it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pb::trace {

/// The library's modules a span can be charged to, plus `bench`: the
/// benchmark's own waiting (sleeping to an arrival schedule, idling for
/// control work).
enum class Layer : std::uint8_t {
  kSignal,
  kDsp,
  kFeatures,
  kMl,
  kCore,
  kEngine,
  kNet,
  kBench,
  kCount
};
inline constexpr std::size_t k_layers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the lane's spans, -1 = top level
  std::uint64_t request = 0;
};

struct Lane {
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of open span indices
};

/// Self time per layer over a set of closed lanes.
struct Report {
  double wall_ns = 0.0;
  double attributed_ns = 0.0;  // covered by top-level spans
  std::array<double, k_layers> self_ns{};

  double unattributed_share() const {
    return wall_ns > 0.0 ? (wall_ns - attributed_ns) / wall_ns : 0.0;
  }
  double self_share(Layer layer) const {
    return wall_ns > 0.0 ? self_ns[static_cast<std::size_t>(layer)] / wall_ns
                         : 0.0;
  }
};

Report self_time(const std::vector<const Lane*>& lanes);

std::int64_t now_ns();

inline constexpr std::size_t k_max_written_spans = 50000;

class Recorder {
 public:
  static Recorder& instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Starts a lane on the calling thread (no-op while disabled).
  Lane* open_lane(const char* name);
  void close_lane(Lane* lane);

  Report report() const;
  /// Durations (µs) of every span called `name`, in recording order.
  std::vector<double> durations_us(std::string_view name) const;
  /// Writes the spans as Chrome trace-event JSON, at most
  /// k_max_written_spans per lane (the report uses all of them); false on
  /// I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII lane for the calling thread.
class LaneScope {
 public:
  explicit LaneScope(const char* name);
  ~LaneScope();
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  Lane* lane_ = nullptr;
  Lane* previous_ = nullptr;
};

/// RAII span on the calling thread's lane (no-op without one).
class Scope {
 public:
  Scope(const char* name, Layer layer, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Lane* lane_ = nullptr;
  std::int32_t index_ = -1;
};

/// Appends a closed span with explicit times to `lane` (self-tests).
void add_span(Lane& lane, const char* name, Layer layer, std::int64_t start_ns,
              std::int64_t end_ns, std::int32_t parent);

}  // namespace pb::trace
