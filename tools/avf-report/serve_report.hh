/**
 * @file
 * avf-report's view of the serve layer: renders `avf-feed-v1` JSONL
 * campaign feeds (including following one that is still being
 * written) and the per-campaign checkpoint progress of a serve state
 * directory. Library (not main.cc) so tests can drive the feed
 * parser and malformed-row rejection directly.
 *
 * Follow mode reads no clocks: it polls with a fixed 200 ms
 * nanosleep cadence and gives up after a bounded number of empty
 * polls, so the tool stays deterministic-by-construction like the
 * rest of the repo (see the avflint clock-discipline check).
 */

#ifndef AVF_REPORT_SERVE_REPORT_HH
#define AVF_REPORT_SERVE_REPORT_HH

#include <iosfwd>
#include <string>

namespace avf::report
{

/**
 * Print an `avf-feed-v1` campaign feed as a table: the header row's
 * campaign parameters, one line per interval (per-structure online
 * AVF plus occupancy), and the summary row's means and totals.
 *
 * With @p follow true, an EOF before the summary row is not the end:
 * the reader re-polls the file (200 ms nanosleeps between polls)
 * until the summary lands or @p maxEmptyPolls consecutive polls
 * bring no new complete line. Torn trailing lines (no '\n'
 * yet) are left for the next poll — exactly the state a feed is in
 * while avf-serve is mid-append.
 *
 * @return false with @p error set on unreadable input, a malformed
 *         row, or a follow that gave up waiting.
 */
bool printFeedTail(std::ostream &out, const std::string &path,
                   bool follow, int maxEmptyPolls,
                   std::string &error);

/**
 * Print every campaign checkpoint in @p stateDir: slices done /
 * total, completion, durable feed bytes, and the campaign
 * parameters. @return false with @p error when the directory cannot
 * be read (an empty directory is a success with an empty table).
 */
bool printServeStatus(std::ostream &out, const std::string &stateDir,
                      std::string &error);

} // namespace avf::report

#endif // AVF_REPORT_SERVE_REPORT_HH
