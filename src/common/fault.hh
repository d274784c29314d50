/**
 * @file
 * Deterministic fault injection. A FaultPlan — parsed from the
 * SVRSIM_FAULT environment variable or built directly in tests —
 * names simulation cells (or artifact paths) at which the engine must
 * fail, so every error-handling path (structured throws, watchdog
 * trips, IO failures, crash-safe resume) is exercised by real tests
 * rather than in theory.
 *
 * Grammar (rules separated by ';'):
 *
 *   throw@WORKLOAD/CONFIG[:K][:pP]   throw SimError(InternalInvariant)
 *                                    in that cell; ':K' limits the
 *                                    fault to the first K attempts
 *                                    (retry testing); ':pP' applies it
 *                                    with probability P drawn from the
 *                                    cell RNG stream (deterministic
 *                                    per cell for any job count)
 *   hang@WORKLOAD/CONFIG             livelock the cell's core model so
 *                                    the watchdog must trip
 *   kill@WORKLOAD/CONFIG             raise SIGKILL right after the
 *                                    cell's completion record is
 *                                    journaled (crash-safe --resume
 *                                    testing)
 *   io@SUBSTRING                     fail atomic artifact writes whose
 *                                    target path contains SUBSTRING
 *
 * WORKLOAD / CONFIG / SUBSTRING may be '*' (match anything). Example:
 *
 *   SVRSIM_FAULT='throw@BFS_UR/SVR16:2;io@results.json'
 */

#ifndef SVR_COMMON_FAULT_HH
#define SVR_COMMON_FAULT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace svr
{

/** A deterministic fault-injection plan (empty = no faults). */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Parse @p spec; throws SimError(ConfigInvalid) on bad grammar. */
    static FaultPlan parse(std::string_view spec);

    /** Plan from the SVRSIM_FAULT environment variable (empty if unset). */
    static FaultPlan fromEnv();

    bool empty() const { return rules.empty(); }

    /**
     * Should attempt @p attempt (1-based) of this cell throw? @p
     * base_seed feeds the per-cell RNG stream for probabilistic rules.
     */
    bool shouldThrow(std::string_view workload, std::string_view config,
                     unsigned attempt, std::uint64_t base_seed) const;

    /** Should this cell's core model be livelocked? */
    bool shouldHang(std::string_view workload,
                    std::string_view config) const;

    /** Should the process SIGKILL itself after journaling this cell? */
    bool shouldKill(std::string_view workload,
                    std::string_view config) const;

    /** Should an atomic write to @p path fail with IoError? */
    bool shouldFailIo(std::string_view path) const;

  private:
    enum class Kind : std::uint8_t { Throw, Hang, Kill, Io };

    struct Rule
    {
        Kind kind;
        std::string a;          //!< workload pattern / path substring
        std::string b;          //!< config pattern (cell kinds only)
        unsigned attempts = 0;  //!< throw: first K attempts only (0 = all)
        double probability = -1.0; //!< throw/hang: <0 = always
    };

    bool matchCell(const Rule &r, std::string_view workload,
                   std::string_view config, unsigned attempt,
                   std::uint64_t base_seed) const;

    std::vector<Rule> rules;
};

} // namespace svr

#endif // SVR_COMMON_FAULT_HH
