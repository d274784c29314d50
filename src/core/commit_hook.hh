/**
 * @file
 * Per-commit observation hook for the timing cores.
 *
 * The hook fires once per committed instruction, in program order,
 * with the commit cycle the timing model assigned. Its one client is
 * the ArchCheck lockstep validator (analysis/archcheck.hh), which is
 * debug tooling: the call sites in the cores are compiled out of
 * Release builds (see SVR_ARCHCHECK in the top-level CMakeLists), and
 * the sim-speed baseline in BENCH_simspeed.json is only measured
 * without them (bench_report refuses a build with the hooks).
 */

#ifndef SVR_CORE_COMMIT_HOOK_HH
#define SVR_CORE_COMMIT_HOOK_HH

#include "common/types.hh"
#include "core/dyn_inst.hh"

namespace svr
{

/** Observer of the committed instruction stream. */
class CommitHook
{
  public:
    virtual ~CommitHook() = default;

    /**
     * Instruction @p dyn committed at @p commit_cycle. Called in
     * program order, after the core's own bookkeeping for the
     * instruction and after any runahead engine saw it.
     */
    virtual void onCommit(const DynInst &dyn, Cycle commit_cycle) = 0;
};

} // namespace svr

#endif // SVR_CORE_COMMIT_HOOK_HH
