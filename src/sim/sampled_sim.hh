/**
 * @file
 * Sampled simulation (SimPoint-style systematic sampling): run most of
 * the region on the fast functional executor and only sample windows
 * in detailed timing, stitching the window measurements into a
 * whole-region estimate with an error bar. This is what makes
 * paper-scale regions (tens of millions of instructions) tractable:
 * the functional executor retires instructions orders of magnitude
 * faster than the timing cores.
 *
 * Each period of SamplingParams::sampleEvery committed instructions is
 * split into fast-forward, detailed warmup (full timing over a fresh
 * memory system — warming caches, branch predictors, TLBs, and the
 * SVR predictor SRAMs — excluded from the stats via core/measure.hh),
 * and the measured window. SVR predictor state is carried between
 * windows with SvrEngine::exportState()/importState(), mirroring the
 * warm SRAM a real sampled machine would retain.
 *
 * Degenerate configurations collapse exactly: when sampleEvery and
 * sampleWindow both cover the whole region, the single "sample" is an
 * ordinary full-detail run and every counter matches simulate() with
 * sampling off bit for bit (asserted by tests/test_sampled_sim.cc).
 */

#ifndef SVR_SIM_SAMPLED_SIM_HH
#define SVR_SIM_SAMPLED_SIM_HH

#include <cstdint>
#include <vector>

#include "sim/simulator.hh"

namespace svr
{

/** One measured timing window (diagnostics and tests). */
struct SampleWindow
{
    /** Region offset of the first *measured* instruction. */
    std::uint64_t startInstruction = 0;
    std::uint64_t warmup = 0;   //!< detailed-warmup instructions run
    std::uint64_t measured = 0; //!< instructions measured
    Cycle cycles = 0;           //!< cycles over the measured part
    double cpi = 0.0;
};

/**
 * Run @p config on @p w with sampling (config.sampling must be
 * enabled; simulate() dispatches here automatically). The returned
 * SimResult carries whole-region estimates: instructions is exact,
 * every other counter is stitched from the windows, and
 * sampled/sampleWindows/measuredInstructions/cpiStderr describe the
 * estimate. A commit hook in @p hooks is rejected with
 * SimError(ConfigInvalid): lockstep validation needs every commit,
 * which sampling by construction skips. @p windows_out, when non-null,
 * receives the per-window measurements.
 */
SimResult simulateSampled(const SimConfig &config, const WorkloadInstance &w,
                          const SimHooks &hooks = {},
                          std::vector<SampleWindow> *windows_out = nullptr);

} // namespace svr

#endif // SVR_SIM_SAMPLED_SIM_HH
