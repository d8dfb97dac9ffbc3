#include "util/timing.hh"

#include <chrono>

namespace avf::timing
{

std::uint64_t
steadyNowNs()
{
    // The perf subsystem's one sanctioned wall-clock read: values
    // derived from it are side-channel metrics only and never reach
    // experiment output.
    auto now =
        std::chrono::steady_clock::now(); // avflint: allow(determinism)
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
}

void
Stopwatch::start()
{
    if (isRunning)
        return;
    startTick = steadyNowNs();
    isRunning = true;
}

double
Stopwatch::stop()
{
    if (!isRunning)
        return 0.0;
    isRunning = false;
    return static_cast<double>(steadyNowNs() - startTick);
}

} // namespace avf::timing
