/**
 * @file
 * The four processor structures whose AVF the paper estimates, and
 * the mapping from structure to error-bit channel.
 */

#ifndef AVF_CORE_STRUCTURES_HH
#define AVF_CORE_STRUCTURES_HH

#include <string_view>

namespace avf::core
{

/**
 * Structures whose AVF can be estimated. The first four are the ones
 * the paper evaluates (Section 4); FREG is this repository's
 * extension of the same machinery to the floating-point register
 * file, which the paper's REG treatment applies to unchanged.
 */
enum class Structure : int
{
    IQ = 0,   ///< instruction (issue) queue entries
    REG = 1,  ///< integer register file
    FXU = 2,  ///< fixed-point (integer) functional units
    FPU = 3,  ///< floating-point functional units
    FREG = 4, ///< floating-point register file (extension)
    NumStructures
};

/** Number of structures evaluated in the paper itself. */
inline constexpr int numPaperStructures = 4;

/** Number of structures supported (paper set + extensions). */
inline constexpr int numStructures =
    static_cast<int>(Structure::NumStructures);

/** Short display name ("iq", "reg", "fxu", "fpu" as in Figure 5). */
std::string_view structureName(Structure s);

/**
 * Per-structure salt of the online estimator's randomized-timing
 * seed. It is also the lane a structure's estimator holds at lanes = 1
 * when the five estimators reserve from one port in structure order,
 * as the harness builds them; the port, not this number, assigns
 * lanes.
 */
constexpr int
channelOf(Structure s)
{
    return static_cast<int>(s);
}

} // namespace avf::core

#endif // AVF_CORE_STRUCTURES_HH
