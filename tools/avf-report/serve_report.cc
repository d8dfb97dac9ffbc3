#include "serve_report.hh"

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <vector>

#include "core/structures.hh"
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

/** Array of doubles → vector; false on shape mismatch. */
bool
doubleArray(const json::Value *value, std::size_t count,
            std::vector<double> &out)
{
    if (!value || value->kind != json::Value::Kind::Array ||
        value->items.size() != count)
        return false;
    out.clear();
    for (const auto &item : value->items) {
        if (item.kind != json::Value::Kind::Double &&
            item.kind != json::Value::Kind::Uint)
            return false;
        out.push_back(item.asDouble());
    }
    return true;
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
        const json::Value *campaign = row.find("campaign");
        const json::Value *benchmark = row.find("benchmark");
        const json::Value *intervals = row.find("intervals");
        if (!campaign || campaign->kind != json::Value::Kind::String ||
            !benchmark || benchmark->kind != json::Value::Kind::String ||
            !intervals || intervals->kind != json::Value::Kind::Uint) {
            error = "feed header is missing campaign fields";
            return false;
        }
        out << "campaign " << campaign->text << " (" << benchmark->text
            << ", " << intervals->asUint() << " intervals)\n";
        out << "intvl slice" << structureColumns() << "   occup\n";
        sawHeader = true;
        return true;
    }

    if (row.find("attribution")) {
        // Root-cause rollup row (serve::feedAttributionLine): a
        // compact attribution table. The tail renders a one-line
        // digest; `avf-report root-cause` on the ROOTCAUSE.json
        // export is the full view.
        const json::Value *table =
            row.find("table", json::Value::Kind::Object);
        const json::Value *tableRows =
            table ? table->find("rows", json::Value::Kind::Array)
                  : nullptr;
        if (!tableRows) {
            error = "feed attribution row is malformed";
            return false;
        }
        std::uint64_t windows = 0;
        std::uint64_t failures = 0;
        std::size_t blamed = 0;
        for (const json::Value &entry : tableRows->items) {
            if (!entry.isArray() || entry.items.size() != 7) {
                error = "feed attribution row is malformed";
                return false;
            }
            windows += entry.items[4].asUint();
            failures += entry.items[6].asUint();
            if (entry.items[2].asUint() != 0)
                ++blamed;
        }
        out << "root-cause: " << tableRows->items.size()
            << " blame sites (" << blamed
            << " instruction-attributed), " << failures << "/"
            << windows << " failures/windows\n";
        return true;
    }

    if (row.find("summary")) {
        std::vector<double> online;
        const json::Value *intervals = row.find("intervals");
        const json::Value *injections = row.find("injections");
        const json::Value *failures = row.find("failures");
        if (!doubleArray(row.find("online_mean"),
                         static_cast<std::size_t>(
                             core::numStructures), online) ||
            !intervals || intervals->kind != json::Value::Kind::Uint ||
            !injections || injections->kind != json::Value::Kind::Uint ||
            !failures || failures->kind != json::Value::Kind::Uint) {
            error = "feed summary row is malformed";
            return false;
        }
        out << "summary over " << intervals->asUint()
            << " intervals: online mean";
        for (double value : online)
            out << cell(value);
        out << "  (" << failures->asUint() << "/"
            << injections->asUint() << " failures/injections)\n";
        done = true;
        return true;
    }

    const json::Value *interval = row.find("interval");
    const json::Value *slice = row.find("slice");
    const json::Value *occupancy = row.find("occupancy");
    std::vector<double> online;
    if (!interval || interval->kind != json::Value::Kind::Uint || !slice ||
        slice->kind != json::Value::Kind::Uint || !occupancy ||
        !doubleArray(row.find("online"),
                     static_cast<std::size_t>(core::numStructures),
                     online)) {
        error = "feed interval row is malformed";
        return false;
    }
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "%5llu %5llu",
                  static_cast<unsigned long long>(interval->asUint()),
                  static_cast<unsigned long long>(slice->asUint()));
    out << prefix;
    for (double value : online)
        out << cell(value);
    out << cell(occupancy->asDouble()) << "\n";
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
