#include "serve_report.hh"

#include <array>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <vector>

#include "core/structures.hh"
#include "harness/task_codec.hh"
#include "serve/campaign.hh"
#include "serve/checkpoint.hh"
#include "serve/protocol.hh"
#include "util/json.hh"

namespace avf::report
{

namespace
{

/** Follow-mode poll period: fast enough to feel live on a terminal,
 *  slow enough to cost nothing. */
constexpr long pollMillis = 200;

/** One formatted double cell. */
std::string
cell(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%8.4f", value);
    return buffer;
}

/** The "iq reg fxu fpu freg" column header. */
std::string
structureColumns()
{
    std::string out;
    for (int s = 0; s < core::numStructures; ++s) {
        char buffer[16];
        std::snprintf(buffer, sizeof(buffer), "%8s",
                      std::string(core::structureName(
                                      static_cast<core::Structure>(s)))
                          .c_str());
        out += buffer;
    }
    return out;
}

/**
 * Render one feed row; sets @p done when it was the summary row.
 * @return false with @p error on a malformed row.
 */
bool
printFeedRow(std::ostream &out, const std::string &line,
             bool &sawHeader, bool &done, std::string &error)
{
    json::Value row;
    if (!json::parse(line, row, error))
        return false;
    if (row.kind != json::Value::Kind::Object) {
        error = "feed row is not an object";
        return false;
    }

    if (const json::Value *version = row.find("v")) {
        if (version->kind != json::Value::Kind::String ||
            version->text != serve::feedSchemaVersion) {
            error = "feed header has unsupported version";
            return false;
        }
        json::Reader in(error, "feed header: ");
        const json::Value *campaign =
            row.find("campaign", json::Value::Kind::String);
        const json::Value *benchmark =
            row.find("benchmark", json::Value::Kind::String);
        int intervals = 0;
        if (!campaign || !benchmark)
            return in.fail("missing campaign or benchmark");
        if (!in.member(row, "intervals", intervals))
            return false;
        out << "campaign " << campaign->text << " (" << benchmark->text
            << ", " << intervals << " intervals)\n";
        out << "intvl slice" << structureColumns() << "   occup\n";
        sawHeader = true;
        return true;
    }

    if (row.find("attribution")) {
        // Root-cause rollup row (serve::feedAttributionLine): a
        // compact attribution table. The tail renders a one-line
        // digest; `avf-report root-cause` on the ROOTCAUSE.json
        // export is the full view.
        json::Reader in(error, "feed attribution row: ");
        const json::Value *table = row.find("table");
        obs::AttributionSnapshot attr;
        if (!table)
            return in.fail("missing table");
        if (!harness::codec::readAttributionSnapshot(*table, attr, in))
            return false;
        std::uint64_t windows = 0;
        std::uint64_t failures = 0;
        std::size_t blamed = 0;
        for (const obs::AttributionRow &entry : attr.rows) {
            windows += entry.windows;
            failures += entry.failures;
            if (entry.pc != 0)
                ++blamed;
        }
        out << "root-cause: " << attr.rows.size()
            << " blame sites (" << blamed
            << " instruction-attributed), " << failures << "/"
            << windows << " failures/windows\n";
        return true;
    }

    std::array<double, core::numStructures> online{};
    if (row.find("summary")) {
        json::Reader in(error, "feed summary row: ");
        std::uint64_t intervals = 0, injections = 0, failures = 0;
        if (!in.member(row, "online_mean", online) ||
            !in.member(row, "intervals", intervals) ||
            !in.member(row, "injections", injections) ||
            !in.member(row, "failures", failures))
            return false;
        out << "summary over " << intervals << " intervals: online mean";
        for (double value : online)
            out << cell(value);
        out << "  (" << failures << "/" << injections
            << " failures/injections)\n";
        done = true;
        return true;
    }

    json::Reader in(error, "feed interval row: ");
    std::uint64_t interval = 0, slice = 0;
    double occupancy = 0.0;
    if (!in.member(row, "interval", interval) ||
        !in.member(row, "slice", slice) || !in.member(row, "online", online) ||
        !in.member(row, "occupancy", occupancy))
        return false;
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "%5llu %5llu",
                  static_cast<unsigned long long>(interval),
                  static_cast<unsigned long long>(slice));
    out << prefix;
    for (double value : online)
        out << cell(value);
    out << cell(occupancy) << "\n";
    return true;
}

} // namespace

bool
printFeedTail(std::ostream &out, const std::string &path, bool follow,
              int maxEmptyPolls, std::string &error)
{
    std::FILE *feed = std::fopen(path.c_str(), "rb");
    if (!feed) {
        error = "cannot open " + path;
        return false;
    }

    bool sawHeader = false;
    bool done = false;
    bool ok = true;
    int emptyPolls = 0;
    std::string line;
    long lineStart = 0;

    while (ok && !done) {
        // Read complete lines only; a torn trailing line (mid-append
        // crash window) rewinds and waits for its '\n'.
        bool progressed = false;
        for (;;) {
            lineStart = std::ftell(feed);
            line.clear();
            int c = 0;
            bool complete = false;
            while ((c = std::fgetc(feed)) != EOF) {
                if (c == '\n') {
                    complete = true;
                    break;
                }
                line += static_cast<char>(c);
            }
            if (!complete) {
                if (std::fseek(feed, lineStart, SEEK_SET) != 0) {
                    error = "seek failed on " + path;
                    ok = false;
                }
                break;
            }
            progressed = true;
            if (!printFeedRow(out, line, sawHeader, done, error)) {
                ok = false;
                break;
            }
            if (done)
                break;
        }
        if (!ok || done)
            break;
        if (!follow)
            break;
        if (progressed) {
            emptyPolls = 0;
            continue;
        }
        if (++emptyPolls > maxEmptyPolls) {
            error = "gave up following " + path + " after " +
                    std::to_string(maxEmptyPolls) +
                    " empty polls (no summary row)";
            ok = false;
            break;
        }
        std::clearerr(feed);
        timespec pause{0, pollMillis * 1000000L};
        (void)::nanosleep(&pause, nullptr);
    }

    (void)std::fclose(feed);
    if (ok && !sawHeader) {
        error = path + " has no feed header row";
        return false;
    }
    return ok;
}

bool
printServeStatus(std::ostream &out, const std::string &stateDir,
                 std::string &error)
{
    std::vector<std::string> names;
    if (!serve::listCampaigns(stateDir, names, error))
        return false;

    out << "campaign             slices complete feed_bytes"
           " benchmark\n";
    for (const std::string &name : names) {
        serve::StatePaths paths(stateDir);
        serve::Checkpoint checkpoint;
        std::string loadError;
        if (!serve::loadCheckpoint(paths.checkpointPath(name),
                                   checkpoint, loadError)) {
            out << name << "  <unreadable: " << loadError << ">\n";
            continue;
        }
        char buffer[128];
        std::snprintf(
            buffer, sizeof(buffer), "%-20s %3llu/%-3llu %8s %10llu %s\n",
            checkpoint.campaign.name.c_str(),
            static_cast<unsigned long long>(checkpoint.slicesDone),
            static_cast<unsigned long long>(
                checkpoint.campaign.numSlices()),
            checkpoint.complete ? "yes" : "no",
            static_cast<unsigned long long>(checkpoint.feedBytes),
            checkpoint.campaign.benchmark.c_str());
        out << buffer;
    }
    return true;
}

} // namespace avf::report
