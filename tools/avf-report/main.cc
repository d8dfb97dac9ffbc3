/**
 * @file
 * avf-report: render the observability exports back into terminal
 * reports. Reads `avf-metrics-v1` METRICS.json snapshots, trace_event
 * TRACE.json files, and injection-lifecycle JSONL streams.
 *
 * Commands:
 *   summary METRICS.json           per-(task, series) convergence
 *   convergence METRICS.json [--task NAME] [--series NAME]
 *                                  full per-interval table with the
 *                                  0.5/sqrt(N) bound flags
 *   phases TRACE.json [--top N]    top-N phase costs
 *   diff OLD.json NEW.json         campaign counter diff
 *   budget METRICS.json [--task NAME]
 *                                  control-loop decision trail (FIT,
 *                                  projected MTTF, arbitration
 *                                  target, throttle state, coverage)
 *   lifecycle FILE.jsonl           lifecycle outcome summary
 *   root-cause ROOTCAUSE.json [--by instruction|structure|opcode|phase]
 *              [--top N] [--json]  failure-accountability ranking
 *                                  from a root-cause attribution
 *                                  export (default: top failing
 *                                  instructions); --json emits the
 *                                  ranking as one JSON object
 *   lint LINT.json [--github]      avflint --format=json report;
 *                                  --github adds ::error/::warning
 *                                  workflow-command annotations
 *   tail FEED.jsonl [--follow] [--max-polls N]
 *                                  render an avf-serve campaign feed;
 *                                  --follow keeps polling a feed that
 *                                  is still being written until the
 *                                  summary row lands (or N empty
 *                                  200 ms polls pass)
 *   serve-status DIR               per-campaign checkpoint progress
 *                                  of a serve state directory
 *
 * Exit status: 0 = report printed, 1 = usage error, 2 = unreadable
 * or malformed input. `lint` additionally exits 3 when the report
 * itself is not ok (any finding), so CI
 * can distinguish "lint failed" from "report unreadable".
 */

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "report.hh"
#include "serve_report.hh"

namespace
{

using namespace avf;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: avf-report <command> [args]\n"
        "  summary METRICS.json\n"
        "  convergence METRICS.json [--task NAME] [--series NAME]\n"
        "  phases TRACE.json [--top N]\n"
        "  diff OLD_METRICS.json NEW_METRICS.json\n"
        "  budget METRICS.json [--task NAME]\n"
        "  lifecycle FILE.jsonl\n"
        "  root-cause ROOTCAUSE.json [--by instruction|structure|"
        "opcode|phase] [--top N] [--json]\n"
        "  lint LINT.json [--github]\n"
        "  tail FEED.jsonl [--follow] [--max-polls N]\n"
        "  serve-status DIR\n");
    return 1;
}

/**
 * Strict numeric flag value: all of @p text is decimal digits and the
 * value lies in [@p lo, @p hi]. A sign, trailing junk or overflow is
 * rejected with a message naming @p flag; the caller then answers
 * with usage().
 */
bool
parseCount(const char *flag, const char *text, std::uint64_t lo,
           std::uint64_t hi, std::uint64_t &out)
{
    const char *end = text + std::strlen(text);
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi) {
        std::fprintf(stderr, "avf-report: %s wants an integer in "
                     "%llu..%llu, got '%s'\n", flag,
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), text);
        return false;
    }
    out = value;
    return true;
}

/** Load + validate one METRICS.json; exits 2 on failure. */
bool
loadOrComplain(const std::string &path, json::Value &doc)
{
    std::string text, error;
    if (!report::readFile(path, text, error)) {
        std::fprintf(stderr, "avf-report: %s\n", error.c_str());
        return false;
    }
    if (!report::loadMetricsDoc(text, doc, error)) {
        std::fprintf(stderr, "avf-report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    if (command == "summary") {
        if (argc != 3)
            return usage();
        json::Value doc;
        if (!loadOrComplain(argv[2], doc))
            return 2;
        report::printSummary(std::cout, doc);
        return 0;
    }

    if (command == "convergence") {
        if (argc < 3)
            return usage();
        std::string task, series = "online_iq_avf";
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--task") == 0 && i + 1 < argc)
                task = argv[++i];
            else if (std::strcmp(argv[i], "--series") == 0 &&
                     i + 1 < argc)
                series = argv[++i];
            else
                return usage();
        }
        json::Value doc;
        if (!loadOrComplain(argv[2], doc))
            return 2;
        return report::printConvergence(std::cout, doc, task, series)
            ? 0 : 2;
    }

    if (command == "phases") {
        if (argc < 3)
            return usage();
        std::uint64_t top = 10;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
                if (!parseCount("--top", argv[++i], 1, SIZE_MAX, top))
                    return usage();
            } else {
                return usage();
            }
        }
        std::string text, error;
        if (!report::readFile(argv[2], text, error)) {
            std::fprintf(stderr, "avf-report: %s\n", error.c_str());
            return 2;
        }
        json::Value doc;
        if (!json::parse(text, doc, error)) {
            std::fprintf(stderr, "avf-report: %s: not valid JSON: "
                         "%s\n", argv[2], error.c_str());
            return 2;
        }
        return report::printPhases(std::cout, doc, top) ? 0 : 2;
    }

    if (command == "diff") {
        if (argc != 4)
            return usage();
        json::Value before, after;
        if (!loadOrComplain(argv[2], before) ||
            !loadOrComplain(argv[3], after))
            return 2;
        report::printDiff(std::cout, before, after);
        return 0;
    }

    if (command == "budget") {
        if (argc < 3)
            return usage();
        std::string task;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--task") == 0 && i + 1 < argc)
                task = argv[++i];
            else
                return usage();
        }
        json::Value doc;
        if (!loadOrComplain(argv[2], doc))
            return 2;
        return report::printBudget(std::cout, doc, task) ? 0 : 2;
    }

    if (command == "lint") {
        if (argc < 3)
            return usage();
        bool github = false;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--github") == 0)
                github = true;
            else
                return usage();
        }
        std::string text, error;
        if (!report::readFile(argv[2], text, error)) {
            std::fprintf(stderr, "avf-report: %s\n", error.c_str());
            return 2;
        }
        json::Value doc;
        if (!report::loadLintDoc(text, doc, error)) {
            std::fprintf(stderr, "avf-report: %s: %s\n", argv[2],
                         error.c_str());
            return 2;
        }
        return report::printLintReport(std::cout, doc, github)
            ? 0 : 3;
    }

    if (command == "lifecycle") {
        if (argc != 3)
            return usage();
        std::string text, error;
        if (!report::readFile(argv[2], text, error)) {
            std::fprintf(stderr, "avf-report: %s\n", error.c_str());
            return 2;
        }
        if (!report::printLifecycle(std::cout, text, error)) {
            std::fprintf(stderr, "avf-report: %s: %s\n", argv[2],
                         error.c_str());
            return 2;
        }
        return 0;
    }

    if (command == "root-cause") {
        if (argc < 3)
            return usage();
        std::string by = "instruction";
        std::uint64_t top = 10;
        bool jsonOut = false;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--by") == 0 && i + 1 < argc) {
                by = argv[++i];
            } else if (std::strcmp(argv[i], "--top") == 0 &&
                       i + 1 < argc) {
                if (!parseCount("--top", argv[++i], 1, SIZE_MAX, top))
                    return usage();
            } else if (std::strcmp(argv[i], "--json") == 0) {
                jsonOut = true;
            } else {
                return usage();
            }
        }
        if (by != "instruction" && by != "structure" &&
            by != "opcode" && by != "phase")
            return usage();
        std::string text, error;
        if (!report::readFile(argv[2], text, error)) {
            std::fprintf(stderr, "avf-report: %s\n", error.c_str());
            return 2;
        }
        json::Value doc;
        if (!report::loadRootCauseDoc(text, doc, error)) {
            std::fprintf(stderr, "avf-report: %s: %s\n", argv[2],
                         error.c_str());
            return 2;
        }
        return report::printRootCause(std::cout, doc, by, top,
                                      jsonOut)
            ? 0 : 2;
    }

    if (command == "tail") {
        if (argc < 3)
            return usage();
        bool follow = false;
        std::uint64_t maxPolls = 150;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--follow") == 0) {
                follow = true;
            } else if (std::strcmp(argv[i], "--max-polls") == 0 &&
                       i + 1 < argc) {
                if (!parseCount("--max-polls", argv[++i], 1, INT_MAX,
                                maxPolls))
                    return usage();
            } else {
                return usage();
            }
        }
        std::string error;
        if (!report::printFeedTail(std::cout, argv[2], follow,
                                   static_cast<int>(maxPolls), error)) {
            std::fprintf(stderr, "avf-report: %s\n", error.c_str());
            return 2;
        }
        return 0;
    }

    if (command == "serve-status") {
        if (argc != 3)
            return usage();
        std::string error;
        if (!report::printServeStatus(std::cout, argv[2], error)) {
            std::fprintf(stderr, "avf-report: %s\n", error.c_str());
            return 2;
        }
        return 0;
    }

    return usage();
}
