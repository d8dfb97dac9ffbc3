#include "avflint/report.hh"

#include "util/json.hh"

namespace avf::lint
{

std::string
formatJsonReport(const Report &report)
{
    using Layout = json::Writer::Layout;
    std::string text;
    json::Writer out(text, json::Writer::Style::Spaced);
    out.startObject(Layout::Lines)
        .member("schema").text("avflint-v2")
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
    for (const Finding &f : report.findings) {
        out.startObject()
            .member("file").text(f.file)
            .member("line").sint(f.line)
            .member("check").text(f.id)
            .member("severity").text(severityName(f.severity))
            .member("message").text(f.message)
            .endObject();
    }
    out.endArray().member("ok").boolean(report.ok()).endObject();
    out.newline();
    return text;
}

} // namespace avf::lint
