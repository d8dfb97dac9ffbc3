#include "obs/attribution.hh"

#include <ostream>

#include "core/injection_port.hh"
#include "obs/metrics.hh"
#include "trace/instruction.hh"
#include "util/logging.hh"

namespace avf::obs
{

using core::Structure;

namespace
{

/** Blamed-opcode display name; "-" for the no-failure rows. */
std::string_view
blameOpName(int op)
{
    if (op < 0)
        return "-";
    avf_assert(op < static_cast<int>(trace::OpClass::NumOpClasses),
               "blame op %d out of range", op);
    return trace::opClassName(static_cast<trace::OpClass>(op));
}

std::string
pad(int width)
{
    return std::string(static_cast<std::size_t>(width), ' ');
}

} // namespace

void
AttributionSnapshot::mergeFrom(const AttributionSnapshot &other)
{
    if (!other.enabled)
        return;
    enabled = true;

    // Remap the other table's unit ids onto ours; unknown units
    // append in the other's registration order (deterministic under
    // submission-order folding).
    std::vector<std::uint32_t> remap;
    remap.reserve(other.units.size());
    for (const std::string &name : other.units) {
        std::uint32_t id = 0;
        for (; id < units.size(); ++id)
            if (units[id] == name)
                break;
        if (id == units.size())
            units.push_back(name);
        remap.push_back(id);
    }

    // Rebuild in canonical order. Both inputs are already sorted,
    // but the remap can reorder the other's rows, so a keyed fold
    // is the simple correct thing (this runs once per collected
    // task, never per cycle).
    std::map<std::tuple<std::uint32_t, std::uint32_t, Addr, int>,
             AttributionRow>
        merged;
    for (const AttributionRow &row : rows)
        merged.emplace(std::make_tuple(row.unit, row.phase, row.pc,
                                       row.op),
                       row);
    for (const AttributionRow &row : other.rows) {
        AttributionRow mapped = row;
        mapped.unit = remap[row.unit];
        auto key = std::make_tuple(mapped.unit, mapped.phase,
                                   mapped.pc, mapped.op);
        auto [it, inserted] = merged.emplace(key, mapped);
        if (!inserted) {
            it->second.windows += mapped.windows;
            it->second.live += mapped.live;
            it->second.failures += mapped.failures;
        }
    }
    rows.clear();
    rows.reserve(merged.size());
    for (const auto &[key, row] : merged)
        rows.push_back(row);
}

std::uint64_t
AttributionSnapshot::totalWindows() const
{
    std::uint64_t n = 0;
    for (const AttributionRow &row : rows)
        n += row.windows;
    return n;
}

std::uint64_t
AttributionSnapshot::totalFailures() const
{
    std::uint64_t n = 0;
    for (const AttributionRow &row : rows)
        n += row.failures;
    return n;
}

void
AttributionSnapshot::writeJson(std::ostream &out, int indent) const
{
    const std::string p0 = pad(indent);
    const std::string p1 = pad(indent + 2);
    const std::string p2 = pad(indent + 4);

    out << "{\n" << p1 << "\"units\": [";
    for (std::size_t i = 0; i < units.size(); ++i)
        out << (i ? ", " : "") << "\"" << units[i] << "\"";
    out << "],\n" << p1 << "\"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const AttributionRow &row = rows[i];
        out << (i ? ",\n" : "\n") << p2 << "{\"unit\": \""
            << units[row.unit] << "\", \"phase\": " << row.phase
            << ", \"pc\": " << row.pc << ", \"op\": \""
            << blameOpName(row.op) << "\", \"windows\": "
            << row.windows << ", \"live\": " << row.live
            << ", \"failures\": " << row.failures << "}";
    }
    out << (rows.empty() ? "" : "\n" + p1) << "]\n" << p0 << "}";
}

AttributionTracker::AttributionTracker(AttributionConfig config)
    : conf(config)
{
    avf_assert(conf.phaseCycles > 0,
               "attribution phaseCycles must be positive (the "
               "harness fills 0 with the interval length)");
    // The five paper structures are always present so unit ids (and
    // the canonical row order) never depend on which estimator
    // happens to close a window first.
    for (int s = 0; s < core::numStructures; ++s) {
        structureUnit[static_cast<std::size_t>(s)] = registerBlameUnit(
            std::string(structureName(static_cast<Structure>(s))));
    }
}

std::uint32_t
AttributionTracker::registerBlameUnit(std::string name)
{
    avf_assert(validMetricName(name),
               "blame unit '%s' is not snake_case", name.c_str());
    for (const std::string &existing : unitNames)
        avf_assert(existing != name, "blame unit '%s' registered "
                   "twice", name.c_str());
    unitNames.push_back(std::move(name));
    return static_cast<std::uint32_t>(unitNames.size() - 1);
}

std::uint32_t
AttributionTracker::unitOf(Structure s) const
{
    return structureUnit[static_cast<std::size_t>(s)];
}

std::uint32_t
AttributionTracker::phaseOf(Cycle cycle) const
{
    auto bucket =
        static_cast<std::uint32_t>(cycle / conf.phaseCycles);
    if (conf.phaseCount > 0 && bucket >= conf.phaseCount)
        bucket = conf.phaseCount - 1;
    return conf.phaseBase + bucket;
}

void
AttributionTracker::closeRecord(Structure s, LaneId, Cycle,
                                const core::Outcome &outcome)
{
    recordWindow(unitOf(s), outcome.openedAt, outcome.live,
                 outcome.failed, outcome.failPc, outcome.failOp);
}

void
AttributionTracker::recordWindow(std::uint32_t unit, Cycle injectCycle,
                                 bool live, bool failed, Addr pc,
                                 int op)
{
    avf_assert(unit < unitNames.size(),
               "blame unit id %u never registered", unit);
    if (!failed) {
        // The masked mass: charged to (unit, phase) alone.
        pc = 0;
        op = -1;
    }
    Key key{unit, phaseOf(injectCycle), pc, op};
    // The table grows one node per distinct blame site — bounded by
    // the workload's static code footprint, not by cycles.
    // avflint: allow(hot-path-alloc)
    Counts &counts = table[key];
    ++counts.windows;
    if (live)
        ++counts.live;
    if (failed)
        ++counts.failures;
}

AttributionSnapshot
AttributionTracker::snapshot() const
{
    AttributionSnapshot out;
    out.enabled = true;
    out.units = unitNames;
    out.rows.reserve(table.size());
    for (const auto &[key, counts] : table) {
        AttributionRow row;
        row.unit = std::get<0>(key);
        row.phase = std::get<1>(key);
        row.pc = std::get<2>(key);
        row.op = std::get<3>(key);
        row.windows = counts.windows;
        row.live = counts.live;
        row.failures = counts.failures;
        out.rows.push_back(row);
    }
    return out;
}

} // namespace avf::obs
