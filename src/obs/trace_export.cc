#include "obs/trace_export.hh"

#include <algorithm>


namespace avf::obs
{

void
TraceWriter::setProcessName(std::string name)
{
    processName = std::move(name);
}

void
TraceWriter::setThreadName(std::uint32_t tid, std::string name)
{
    for (auto &[id, label] : threadNames) {
        if (id == tid) {
            label = std::move(name);
            return;
        }
    }
    threadNames.emplace_back(tid, std::move(name));
}

void
TraceWriter::addSpan(TraceSpan span)
{
    // Spans are recorded at phase granularity during report
    // assembly, never per cycle. avflint: allow(hot-path-alloc)
    spans.push_back(std::move(span));
}

void
TraceWriter::addOtherData(std::string key,
                          std::function<void(json::Writer &)> value)
{
    otherData.emplace_back(std::move(key), std::move(value));
}

void
TraceWriter::writeJson(json::Writer &out) const
{
    // Rebase so the earliest span lands at ts=0: steady-clock ticks
    // are huge raw numbers Perfetto would render as absolute time.
    std::uint64_t base = 0;
    if (!spans.empty()) {
        base = spans.front().beginNs;
        for (const auto &span : spans)
            base = std::min(base, span.beginNs);
    }
    // trace_event wants microseconds; keep sub-µs precision.
    auto usec = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1000.0;
    };

    using Layout = json::Writer::Layout;
    out.startObject(Layout::Lines)
        .member("traceEvents").startArray(Layout::Lines);
    auto metadata = [&out](std::string_view kind, std::uint32_t tid,
                           const std::string &name) {
        out.startObject()
            .member("name").text(kind)
            .member("ph").text("M")
            .member("pid").uint(1)
            .member("tid").uint(tid)
            .member("args").startObject().member("name").text(name)
            .endObject()
            .endObject();
    };
    metadata("process_name", 0, processName);
    for (const auto &[tid, label] : threadNames)
        metadata("thread_name", tid, label);
    for (const auto &span : spans) {
        out.startObject()
            .member("name").text(span.name)
            .member("cat").text(span.category.empty() ? "avf"
                                                      : span.category)
            .member("ph").text("X")
            .member("ts").fixed(usec(span.beginNs - base), 3)
            .member("dur").fixed(usec(span.durNs), 3)
            .member("pid").uint(1)
            .member("tid").uint(span.tid);
        if (!span.args.empty()) {
            out.member("args").startObject();
            for (const auto &[name, value] : span.args)
                out.member(name).fixed(value, 3);
            out.endObject();
        }
        out.endObject();
    }
    out.endArray();
    if (!otherData.empty()) {
        out.member("otherData").startObject();
        for (const auto &[key, value] : otherData)
            value(out.member(key));
        out.endObject();
    }
    out.member("displayTimeUnit").text("ms").endObject();
}

} // namespace avf::obs
