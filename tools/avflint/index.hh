/**
 * @file
 * Repo-wide cross-file index: the other half of pass 1. After every
 * file has been lexed and parsed into a FileModel, RepoIndex::build()
 * merges them into the global views the cross-file checks consume:
 * where each function name is defined, the caller → callee edge set,
 * which functions wrap `getenv` directly, and — by breadth-first
 * search over those edges — the set of functions reachable from the
 * per-cycle hot-path roots (hotRoots below).
 *
 * Resolution is by bare name, deliberately: avflint has no overload
 * or namespace resolution, so a name is "repo-defined" if any file
 * defines it. That over-approximates reachability (two unrelated
 * `step` methods merge), which is the right failure direction for a
 * warn-severity check — see DESIGN.md §8.
 */

#ifndef AVF_TOOLS_AVFLINT_INDEX_HH
#define AVF_TOOLS_AVFLINT_INDEX_HH

#include <array>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "avflint/parser.hh"

namespace avf::lint
{

/**
 * The per-cycle hot-path roots: Pipeline::step and the observer hooks
 * it calls — onCycle and nextWake on every wake, onRetire and
 * onErrorHop per event. The one list both hot-path-alloc and
 * metric-name-discipline key on.
 */
inline constexpr std::array<std::string_view, 5> hotRoots = {
    "onCycle", "nextWake", "onRetire", "onErrorHop", "step"};

/** Cross-file symbol index built from all FileModels in a run. */
struct RepoIndex
{
    /** Function name -> files that define a body for it. */
    std::map<std::string, std::set<std::string>> definitionFiles;
    /** Function name -> bare names it calls (merged over all defs). */
    std::map<std::string, std::set<std::string>> callees;
    /** Functions that call getenv directly -> their defining files. */
    std::map<std::string, std::set<std::string>> envWrappers;
    /** Hot-path roots plus everything reachable from them through
     *  repo-defined callees. */
    std::set<std::string> hotReachable;

    /** Merge @p models into the index and run the hot-path BFS. */
    static RepoIndex build(const std::vector<FileModel> &models);

    /** True when @p fn is a hot-path root. */
    static bool isHotRoot(const std::string &fn);

    /**
     * Human-readable reachability chain ending at @p fn, e.g.
     * "step -> drainQueue -> refill". Empty if @p fn is not hot.
     */
    std::string hotChain(const std::string &fn) const;

  private:
    /** child -> parent edge chosen by the BFS, for hotChain(). */
    std::map<std::string, std::string> hotParent;
};

} // namespace avf::lint

#endif // AVF_TOOLS_AVFLINT_INDEX_HH
