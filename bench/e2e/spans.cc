#include "spans.hh"

#include <algorithm>
#include <cstdio>

#include "harness/export.hh"
#include "util/timing.hh"

namespace avfbench
{

int
SpanLog::openSpan(std::string name, int parent)
{
    if (!on)
        return -1;
    const std::uint64_t now = avf::timing::steadyNowNs();
    int id = recordSpan(std::move(name), now, now, parent, 0);
    openStack.push_back(id);
    return id;
}

void
SpanLog::closeSpan(int id)
{
    if (!on || id < 0)
        return;
    spans[static_cast<std::size_t>(id)].endNs =
        avf::timing::steadyNowNs();
    auto it = std::find(openStack.begin(), openStack.end(), id);
    if (it != openStack.end())
        openStack.erase(it);
}

int
SpanLog::recordSpan(std::string name, std::uint64_t startNs,
                    std::uint64_t endNs, int parent, int lane)
{
    if (!on)
        return -1;
    Span span;
    span.name = std::move(name);
    span.startNs = startNs;
    span.endNs = std::max(startNs, endNs);
    span.parent = parent;
    span.lane = lane;
    spans.push_back(std::move(span));
    return static_cast<int>(spans.size() - 1);
}

int
SpanLog::current() const
{
    return openStack.empty() ? -1 : openStack.back();
}

bool
SpanLog::writeJson(const std::string &path, int rep) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::string text = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"", i ? "," : "");
        text += buf;
        text += avf::harness::jsonEscape(s.name);
        // trace_event timestamps are microseconds; keep ns precision.
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%zu,"
                      "\"parent\":%d,\"rep\":%d}}",
                      static_cast<double>(s.startNs) * 1e-3,
                      static_cast<double>(s.endNs - s.startNs) * 1e-3,
                      rep, s.lane, i, s.parent, rep);
        text += buf;
    }
    text += "\n]\n";
    bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
              text.size();
    return std::fclose(out) == 0 && ok;
}

} // namespace avfbench
