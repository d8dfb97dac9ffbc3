#include "avflint/report.hh"

#include "util/json.hh"

namespace avf::lint
{

std::size_t
Report::freshCount() const
{
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < findings.size(); ++i)
        if (i >= baselined.size() || !baselined[i])
            ++fresh;
    return fresh;
}

bool
Report::ok() const
{
    return freshCount() == 0 && staleBaseline.empty();
}

std::string
formatJsonReport(const Report &report)
{
    using Layout = json::Writer::Layout;
    std::string text;
    json::Writer out(text, json::Writer::Style::Spaced);
    out.startObject(Layout::Lines)
        .member("schema").text("avflint-v1")
        .member("root").text(report.root)
        .member("filesScanned").uint(report.filesScanned)
        .member("lexParseMicros").sint(report.lexParseMicros);

    // Per-check rollup, in registry order (stable for diffing).
    std::map<std::string, std::size_t> counts;
    for (const Finding &f : report.findings)
        ++counts[f.id];
    out.member("checks").startArray(Layout::Lines);
    for (const CheckInfo &check : checkRegistry()) {
        const std::string id(check.id);
        auto micros = report.checkMicros.find(id);
        out.startObject()
            .member("id").text(check.id)
            .member("severity").text(severityName(check.severity))
            .member("description").text(check.description)
            .member("findings").uint(counts[id])
            .member("micros")
            .sint(micros == report.checkMicros.end() ? 0
                                                     : micros->second)
            .endObject();
    }
    out.endArray().member("findings").startArray(Layout::Lines);
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        const bool base = i < report.baselined.size() &&
                          report.baselined[i];
        out.startObject()
            .member("file").text(f.file)
            .member("line").sint(f.line)
            .member("check").text(f.id)
            .member("severity").text(severityName(f.severity))
            .member("baselined").boolean(base)
            .member("message").text(f.message)
            .endObject();
    }
    out.endArray()
        .member("fresh").uint(report.freshCount())
        .member("baselined")
        .uint(report.findings.size() - report.freshCount())
        .member("staleBaseline").startArray(Layout::Lines);
    for (const std::string &key : report.staleBaseline)
        out.text(key);
    out.endArray().member("ok").boolean(report.ok()).endObject();
    out.newline();
    return text;
}

} // namespace avf::lint
