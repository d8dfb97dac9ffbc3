/**
 * @file
 * avflint CLI: lint the repository's sources against the domain
 * checks in checks.cc, using the two-pass engine (pass 1: lex +
 * parse every file and build the cross-file RepoIndex; pass 2: run
 * the registry with that context).
 *
 *   avflint [--root DIR] [--format=text|json] [--list-checks] <path>...
 *
 * Exit status: 0 with no findings, 1 with any finding (an inline
 * allow() comment is the only suppression), 2 on usage errors.
 * `--format=json` emits the machine-readable report (schema
 * "avflint-v2", see report.hh) on stdout for CI. A one-line summary
 * always goes to stderr.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "avflint/checks.hh"
#include "avflint/lexer.hh"
#include "avflint/report.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--format=text|json] [--list-checks]\n"
        "          <path>...\n"
        "Paths are files or directories, relative to --root (default:\n"
        "current directory).\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string format = "text";
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg.compare(0, 9, "--format=") == 0) {
            format = arg.substr(9);
            if (format != "text" && format != "json") {
                std::fprintf(stderr,
                             "%s: unknown format '%s' (text|json)\n",
                             argv[0], format.c_str());
                return 2;
            }
        } else if (arg == "--list-checks") {
            for (const auto &check : avf::lint::checkRegistry())
                std::printf(
                    "%-26s %-5s %s\n",
                    std::string(check.id).c_str(),
                    std::string(
                        avf::lint::severityName(check.severity))
                        .c_str(),
                    std::string(check.description).c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            return usage(argv[0]);
        } else {
            paths.push_back(std::move(arg));
        }
    }
    if (paths.empty())
        return usage(argv[0]);
    for (const std::string &p : paths) {
        std::error_code ec;
        if (!std::filesystem::exists(std::filesystem::path(root) / p,
                                     ec)) {
            std::fprintf(stderr, "%s: no such path under --root: %s\n",
                         argv[0], p.c_str());
            return 2;
        }
    }

    // Pass 1: lex + parse everything. Wall time is recorded only
    // for the report's perf fields, never results.
    avf::lint::Linter linter;
    const auto passStart = std::chrono::steady_clock::now(); // avflint: allow(determinism)
    std::vector<std::string> files =
        avf::lint::collectFiles(root, paths);
    for (const std::string &rel : files) {
        std::ifstream in(std::filesystem::path(root) / rel,
                         std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "avflint: cannot read %s\n",
                         rel.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        linter.addFile(avf::lint::lex(rel, text.str()));
    }
    const auto passEnd = std::chrono::steady_clock::now(); // avflint: allow(determinism)

    // Pass 2: run the registry with cross-file context.
    avf::lint::Report report;
    report.root = root;
    report.filesScanned = files.size();
    report.lexParseMicros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            passEnd - passStart)
            .count();
    report.findings = linter.run();
    report.checkMicros = linter.checkMicros();

    if (format == "json")
        std::fputs(avf::lint::formatJsonReport(report).c_str(),
                   stdout);
    else
        for (const avf::lint::Finding &f : report.findings)
            std::printf("%s\n", f.format().c_str());

    std::fprintf(stderr, "avflint: %zu finding%s (%zu files scanned)\n",
                 report.findings.size(),
                 report.findings.size() == 1 ? "" : "s", files.size());
    return report.ok() ? 0 : 1;
}
