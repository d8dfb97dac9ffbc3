/**
 * @file
 * avflint's domain checks and the two-pass analysis driver. Pass 1
 * lexes and parses every input into a FileModel and merges them into
 * a RepoIndex (cross-file symbol table + call graph); pass 2 runs the
 * registry over each file with that context and drops findings
 * covered by `avflint: allow(id)` suppressions. Every finding that
 * no allow() covers fails the run: an inline, justified allow() is
 * the only way to accept one.
 *
 * Severity: every check is `error` (a contract: fix or carry a
 * justified allow) except those marked `warn`, whose analysis is a
 * deliberate over-approximation (e.g. name-based call-graph
 * reachability). Warnings still gate the run; the severity only
 * changes the CI annotation level and how liberally a justified
 * suppression is accepted — see DESIGN.md §8.
 *
 * Checks (ids):
 *   error-bit     direct writes to error-bit state (errorMask,
 *                 regError, `.error` members) outside the sanctioned
 *                 kill/carry/merge helpers (src/cpu/pipeline.cc and
 *                 src/core/).
 *   determinism   rand()/srand()/std::random_device, argless time
 *                 sources (time(NULL), clock(), *_clock::now), and
 *                 range-for iteration over std::unordered_*
 *                 containers (unordered order leaks into exports).
 *   checked-io    fopen/fclose/fread/fwrite/fseek/fflush calls whose
 *                 result is discarded (statement position); a
 *                 `(void)` cast is an accepted explicit discard.
 *   exit-site     exit()/abort() family outside src/util/logging.cc,
 *                 the only sanctioned process-exit site.
 *   json-by-hand  string literals in src/ or tools/ (outside
 *                 src/util/json.cc) that spell an escaped-quote JSON
 *                 key followed by ':'; JSON goes through json::Writer.
 *   include-guard .hh files must open with an #ifndef/#define guard
 *                 or #pragma once.
 *   naked-assert  assert() where avf_assert (on in release builds)
 *                 is required.
 *   injection-port-discipline
 *                 raw injection primitives and ErrorPlane mutators
 *                 called outside the sanctioned implementations;
 *                 campaign code must open tagged lane windows through
 *                 core::InjectionPort (see DESIGN.md).
 *   metric-name-discipline
 *                 literal names passed to the obs/metrics register*
 *                 calls (and to the attribution tracker's
 *                 registerBlameUnit) must be snake_case, registered
 *                 at most once per file, and never from a per-cycle
 *                 hot path.
 *   shared-state-discipline
 *                 non-const static-storage variables written outside
 *                 their initializer must be std::atomic, carry an
 *                 `avflint: guarded_by(m)` annotation naming a mutex
 *                 declared in the same file, or live in a sanctioned
 *                 owner file. A race-detector lite: tsan covers the
 *                 schedules we happen to run, this covers the code.
 *   hot-path-alloc  [warn]
 *                 no new/malloc, no std::string/std::vector
 *                 construction, and no push_back without a reserve on
 *                 the same receiver, inside a per-cycle hot path:
 *                 onCycle/nextWake/onRetire/onErrorHop/step bodies
 *                 (avflint/index.hh hotRoots) and every
 *                 function reachable from them through the intra-repo
 *                 call graph (name-based, hence warn).
 *   env-knob-discipline
 *                 getenv — direct, or through a wrapper function that
 *                 calls it — anywhere but src/harness/config_loader.cc,
 *                 so every knob goes through strict loadRunOptions
 *                 validation.
 *   lock-discipline
 *                 naked .lock()/.unlock()/.try_lock() on a mutex;
 *                 scoped RAII (lock_guard/unique_lock/scoped_lock)
 *                 only. Calls on a declared RAII lock object are the
 *                 sanctioned form (unique_lock relock is fine).
 */

#ifndef AVF_TOOLS_AVFLINT_CHECKS_HH
#define AVF_TOOLS_AVFLINT_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "avflint/index.hh"
#include "avflint/lexer.hh"
#include "avflint/parser.hh"

namespace avf::lint
{

/** Finding weight; both gate the run, CI annotates differently. */
enum class Severity
{
    Error, ///< contract violation: fix it or justify an allow
    Warn   ///< over-approximate analysis: suppressions are expected
};

/** Lower-case name for output ("error" / "warn"). */
std::string_view severityName(Severity s);

/** One diagnostic produced by a check. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string id;       ///< check id, e.g. "determinism"
    std::string message;
    Severity severity = Severity::Error; ///< stamped from registry

    /** Human/CI form: `file:line: [id] message`. */
    std::string format() const;
};

/** Pass-1 context handed to every check alongside the token stream. */
struct CheckContext
{
    const FileModel &model; ///< this file's symbol model
    const RepoIndex &index; ///< whole-run cross-file index
};

/** A registered check. */
struct CheckInfo
{
    std::string_view id;
    std::string_view description;
    Severity severity;
    void (*run)(const SourceFile &src, const CheckContext &ctx,
                std::vector<Finding> &out);
};

/** All checks, in reporting order. */
const std::vector<CheckInfo> &checkRegistry();

/**
 * The two-pass driver. addFile() lexes nothing — feed it lexed
 * SourceFiles — but parses each into a FileModel immediately; run()
 * builds the RepoIndex over everything added, executes the registry
 * per file, filters suppressed findings, stamps severities, and
 * returns all findings sorted by (file, line).
 */
class Linter
{
  public:
    /** Parse and take ownership of one lexed file. */
    void addFile(SourceFile src);

    /** Pass 2: run all checks over all added files. */
    std::vector<Finding> run();

    /** Number of files added. */
    std::size_t fileCount() const { return sources.size(); }

    /** check id -> accumulated wall micros across run() (for the
     *  JSON report; never feeds results). */
    const std::map<std::string, std::int64_t> &checkMicros() const
    {
        return micros;
    }

  private:
    std::vector<SourceFile> sources;
    std::vector<FileModel> models;
    std::map<std::string, std::int64_t> micros;
};

/** Convenience for tests: lex + single-file two-pass lint. */
std::vector<Finding> lintText(const std::string &path,
                              std::string_view text);

/**
 * Recursively collect lintable sources (.cc/.hh/.cpp/.hpp) under each
 * of @p paths (files or directories, relative to @p root), skipping
 * build trees and VCS metadata. The result is sorted — avflint obeys
 * its own determinism rule.
 */
std::vector<std::string> collectFiles(
    const std::string &root, const std::vector<std::string> &paths);

} // namespace avf::lint

#endif // AVF_TOOLS_AVFLINT_CHECKS_HH
