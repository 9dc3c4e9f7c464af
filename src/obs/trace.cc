#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>

namespace mpc::obs
{

bool
Tracer::dumpChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;

    // Gather the kept spans, then the retained events oldest-first,
    // then order by timestamp: spans enter the ring at completion time
    // with ts = start, so ring order alone is not chronological.
    const std::size_t n = retained();
    const std::uint64_t first = count_ - n;
    std::vector<TraceEvent> events = kept_;
    events.reserve(kept_.size() + n);
    for (std::size_t i = 0; i < n; ++i)
        events.push_back(ring_[(first + i) % ring_.size()]);
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });

    std::fputs("{\"traceEvents\":[\n", f);
    bool sep = false;
    for (const auto &[tid, name] : trackNames_) {
        std::fprintf(f,
                     "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                     "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                     sep ? ",\n" : "", tid, name.c_str());
        sep = true;
    }
    for (const TraceEvent &e : events) {
        const char *name = e.name != nullptr ? e.name : "?";
        switch (e.phase) {
          case Instant:
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                "\"tid\":%d,\"ts\":%llu,"
                "\"args\":{\"a0\":%llu,\"a1\":%llu}}",
                sep ? ",\n" : "", name, e.tid,
                static_cast<unsigned long long>(e.ts),
                static_cast<unsigned long long>(e.a0),
                static_cast<unsigned long long>(e.a1));
            break;
          case Span:
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                "\"ts\":%llu,\"dur\":%llu,"
                "\"args\":{\"a0\":%llu,\"a1\":%llu}}",
                sep ? ",\n" : "", name, e.tid,
                static_cast<unsigned long long>(e.ts),
                static_cast<unsigned long long>(e.dur),
                static_cast<unsigned long long>(e.a0),
                static_cast<unsigned long long>(e.a1));
            break;
          case Counter:
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,\"tid\":%d,"
                "\"ts\":%llu,\"args\":{\"value\":%llu}}",
                sep ? ",\n" : "", name, e.tid,
                static_cast<unsigned long long>(e.ts),
                static_cast<unsigned long long>(e.a0));
            break;
          default:
            continue;
        }
        sep = true;
    }
    // Footer: how many events the ring overwrote before this dump. A
    // non-zero count means the timeline has a hole at its old end —
    // say so on stderr too, since nothing in the JSON is eye-catching.
    const std::uint64_t lost = dropped();
    std::fprintf(f, "\n],\n\"dropped_events\":%llu}\n",
                 static_cast<unsigned long long>(lost));
    if (lost > 0)
        std::fprintf(stderr,
                     "obs: trace ring overflowed: %llu event(s) dropped "
                     "(capacity %zu); oldest events are missing from %s\n",
                     static_cast<unsigned long long>(lost),
                     ring_.size(), path.c_str());
    return std::fclose(f) == 0;
}

} // namespace mpc::obs
