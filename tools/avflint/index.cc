#include "avflint/index.hh"

#include <deque>

namespace avf::lint
{

bool
RepoIndex::isHotRoot(const std::string &fn)
{
    for (std::string_view r : hotRoots)
        if (fn == r)
            return true;
    return false;
}

RepoIndex
RepoIndex::build(const std::vector<FileModel> &models)
{
    RepoIndex idx;

    for (const FileModel &m : models) {
        for (const FunctionDef &fn : m.functions) {
            idx.definitionFiles[fn.name].insert(m.path);
            auto &edges = idx.callees[fn.name];
            for (const CallSite &c : fn.calls) {
                edges.insert(c.name);
                if (c.name == "getenv")
                    idx.envWrappers[fn.name].insert(m.path);
            }
        }
    }

    // Hot-path reachability: BFS from the per-cycle roots, following
    // call edges but only into names the repo itself defines — calls
    // into the standard library terminate the walk.
    std::deque<std::string> queue;
    for (std::string_view r : hotRoots) {
        std::string root(r);
        if (idx.definitionFiles.count(root) == 0)
            continue;
        idx.hotReachable.insert(root);
        queue.push_back(std::move(root));
    }
    while (!queue.empty()) {
        std::string cur = std::move(queue.front());
        queue.pop_front();
        auto it = idx.callees.find(cur);
        if (it == idx.callees.end())
            continue;
        for (const std::string &next : it->second) {
            if (idx.definitionFiles.count(next) == 0)
                continue;
            if (!idx.hotReachable.insert(next).second)
                continue;
            idx.hotParent[next] = cur;
            queue.push_back(next);
        }
    }

    return idx;
}

std::string
RepoIndex::hotChain(const std::string &fn) const
{
    if (hotReachable.count(fn) == 0)
        return {};
    std::string chain = fn;
    std::string cur = fn;
    // The parent map is acyclic by construction (BFS tree), but cap
    // the walk anyway so a future bug cannot spin forever.
    for (int hop = 0; hop < 64; ++hop) {
        auto it = hotParent.find(cur);
        if (it == hotParent.end())
            break;
        cur = it->second;
        chain.insert(0, cur + " -> ");
    }
    return chain;
}

} // namespace avf::lint
