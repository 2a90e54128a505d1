#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

std::vector<std::pair<std::string, double>> Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = slot.emplace(s.name, out.size());
    if (fresh) out.emplace_back(s.name, 0.0);
    out[it->second].second +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld",
                 i, s.name.c_str(), s.parent,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
    for (const auto& [key, value] : s.attrs) {
      std::fprintf(f, ", \"%s\": %.6f", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
