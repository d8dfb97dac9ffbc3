/**
 * @file
 * Machine-readable lint report (`avflint --format=json`), written
 * with json::Writer like every exporter in this repo; the read side
 * (avf-report lint, CI annotation emission) goes through the strict
 * util/json parser — tests round-trip it.
 *
 * Schema "avflint-v2":
 *   schema         "avflint-v2"
 *   root           scan root as given on the command line
 *   filesScanned   number of files lexed and parsed
 *   lexParseMicros wall micros spent in pass 1 (lex + parse + index)
 *   checks[]       per registry entry, in registry order:
 *                    id, severity ("error"/"warn"), description,
 *                    findings (count), micros
 *   findings[]     every unsuppressed finding, sorted (file, line):
 *                    file, line, check, severity, message
 *   ok             findings[] is empty — the gate CI (and
 *                  avf-report lint) keys off
 */

#ifndef AVF_TOOLS_AVFLINT_REPORT_HH
#define AVF_TOOLS_AVFLINT_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "avflint/checks.hh"

namespace avf::lint
{

/** Everything the JSON report serializes, gathered by main(). */
struct Report
{
    std::string root;
    std::size_t filesScanned = 0;
    std::int64_t lexParseMicros = 0;
    /** check id -> accumulated micros (Linter::checkMicros). */
    std::map<std::string, std::int64_t> checkMicros;
    /** All unsuppressed findings, sorted. */
    std::vector<Finding> findings;

    bool ok() const { return findings.empty(); }
};

/** Serialize @p report as strict RFC 8259 JSON, trailing newline. */
std::string formatJsonReport(const Report &report);

} // namespace avf::lint

#endif // AVF_TOOLS_AVFLINT_REPORT_HH
