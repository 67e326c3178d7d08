// In-memory span recorder for the benchmark's traced runs.
//
// Every timed region of the benchmark is a Span: it always measures its own
// duration (the untraced run's numbers come from the same clock reads), and
// it is recorded only while the tracer is enabled. Recorded spans keep their
// name, start, end, parent and a shared id (the compile instance, app or
// swap they belong to); at exit they are written as Chrome trace-event JSON
// and folded into a per-layer self-time table, where a span's layer is its
// name up to the first '.'.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
    std::string name;
    std::string id;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into Tracer::spans(), -1 for a root span
};

class Tracer {
public:
    Tracer() : origin_(Clock::now()) {}

    bool enabled = false;

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }

    int open(std::string name, std::string id, std::int64_t start_ns) {
        spans_.push_back({std::move(name), std::move(id), start_ns, start_ns, open_});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void close(int index, std::int64_t end_ns) {
        spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
        open_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

    /// Self time (span minus its recorded children) summed per layer, in ms.
    [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
        std::vector<std::int64_t> child_ns(spans_.size(), 0);
        for (const SpanRecord& s : spans_) {
            if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            const std::string layer = s.name.substr(0, s.name.find('.'));
            out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
        }
        return out;
    }

    /// Writes every recorded span as a Chrome trace-event "X" (complete)
    /// event; returns false when the file cannot be written.
    bool write_chrome_trace(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        std::fputs("{\"traceEvents\":[", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            const std::string layer = s.name.substr(0, s.name.find('.'));
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%s\",\"span\":%zu,"
                         "\"parent\":%d}}",
                         i == 0 ? "" : ",", s.name.c_str(), layer.c_str(),
                         static_cast<double>(s.start_ns) / 1e3,
                         static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id.c_str(), i,
                         s.parent);
        }
        std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
        return std::fclose(f) == 0;
    }

private:
    Clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    int open_ = -1;
};

/// Scoped timed region. Names and ids must be JSON-safe (no quotes or
/// backslashes); the benchmark only uses layer.function names and app or
/// instance names.
class Span {
public:
    Span(Tracer& tracer, const char* name, const std::string& id)
        : tracer_(tracer), start_ns_(tracer.now_ns()) {
        if (tracer_.enabled) index_ = tracer_.open(name, id, start_ns_);
    }
    ~Span() { stop(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double stop() {
        if (end_ns_ < 0) {
            end_ns_ = tracer_.now_ns();
            if (index_ >= 0) tracer_.close(index_, end_ns_);
        }
        return seconds();
    }

    [[nodiscard]] double seconds() const {
        const std::int64_t end = end_ns_ >= 0 ? end_ns_ : tracer_.now_ns();
        return static_cast<double>(end - start_ns_) / 1e9;
    }

private:
    Tracer& tracer_;
    std::int64_t start_ns_;
    std::int64_t end_ns_ = -1;
    int index_ = -1;
};

}  // namespace perfbench
