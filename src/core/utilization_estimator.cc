#include "core/utilization_estimator.hh"

#include <cctype>
#include <string>

namespace avf::core
{

namespace
{

/** "utilization:<lower-case unit class>". */
std::string
utilizationName(cpu::FuClass cls)
{
    std::string name = cpu::fuClassName(cls);
    for (char &c : name)
        c = static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    return "utilization:" + name;
}

} // namespace

UtilizationEstimator::UtilizationEstimator(const cpu::Pipeline &pipe,
                                           cpu::FuClass cls,
                                           Cycle intervalCycles)
    : CounterBaseline(
          pipe.stats().busyUnitCycles[static_cast<int>(cls)],
          pipe.config().unitsIn(cls), intervalCycles,
          utilizationName(cls), "last_busy")
{
}

} // namespace avf::core
