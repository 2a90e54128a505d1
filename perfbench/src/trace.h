// Span recorder for the benchmark's traced runs.
//
// Spans are recorded around each call the benchmark makes into a layer
// (Simulation::Create, RunRound, EvaluateEr, EvaluateHr,
// GenerateSynthetic), kept in memory, and written out once the run
// ends. A span's self time is its duration minus the time its child
// spans cover; the driver runs everything on one thread of control, so
// children never overlap.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    /// Named sub-durations the layer reports itself (RunRound's stage
    /// times); they are not spans because the program exposes only
    /// their lengths, not their start times.
    std::vector<std::pair<std::string, double>> attrs;
  };

  /// Closes its span when it goes out of scope. A disabled tracer hands
  /// out inert scopes, so untraced runs pay one branch per call.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Attaches a named value to the span (no-op when disabled).
    void Attr(const std::string& key, double value) {
      if (tracer_ != nullptr) {
        tracer_->spans_[static_cast<size_t>(index_)].attrs.emplace_back(
            key, value);
      }
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  Scope Open(const std::string& name) {
    if (!enabled_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return Scope(this, index);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in seconds summed per span name, in first-seen order.
  std::vector<std::pair<std::string, double>> SelfSeconds() const;

  /// Writes every span as JSON; false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
