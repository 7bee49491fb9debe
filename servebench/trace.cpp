#include "trace.h"

#include <cstdio>

namespace servebench {

size_t
Tracer::spanCount() const
{
    size_t n = 0;
    for (const Thread &t : threads_)
        n += t.spans.size();
    return n;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Thread &t : threads_) {
        for (const Span &s : t.spans) {
            if (!s.async && name == s.name)
                out.push_back((s.end_us - s.start_us) / 1000.0);
        }
    }
    return out;
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::map<std::string, double> out;
    for (const Thread &t : threads_) {
        std::vector<double> child_us(t.spans.size(), 0.0);
        for (const Span &s : t.spans) {
            if (!s.async && s.parent >= 0)
                child_us[static_cast<size_t>(s.parent)] +=
                    s.end_us - s.start_us;
        }
        for (size_t i = 0; i < t.spans.size(); ++i) {
            const Span &s = t.spans[i];
            if (!s.async)
                out[s.name] += (s.end_us - s.start_us - child_us[i]) / 1000.0;
        }
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto sep = [&] {
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
    };
    for (const Thread &t : threads_) {
        sep();
        std::fprintf(f,
                     "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                     t.tid, t.name.c_str());
        for (size_t i = 0; i < t.spans.size(); ++i) {
            const Span &s = t.spans[i];
            if (s.async) {
                // Async begin/end pair keyed by request id.
                sep();
                std::fprintf(f,
                             "{\"ph\":\"b\",\"cat\":\"request\",\"name\":"
                             "\"%s\",\"id\":%lld,\"pid\":1,\"tid\":%u,"
                             "\"ts\":%.3f}",
                             s.name, static_cast<long long>(s.request),
                             t.tid, s.start_us);
                sep();
                std::fprintf(f,
                             "{\"ph\":\"e\",\"cat\":\"request\",\"name\":"
                             "\"%s\",\"id\":%lld,\"pid\":1,\"tid\":%u,"
                             "\"ts\":%.3f}",
                             s.name, static_cast<long long>(s.request),
                             t.tid, s.end_us);
                continue;
            }
            sep();
            std::fprintf(f,
                         "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"span\":%zu,\"parent\":%d,\"request\":%lld}}",
                         s.name, t.tid, s.start_us, s.end_us - s.start_us,
                         i, s.parent, static_cast<long long>(s.request));
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace servebench
