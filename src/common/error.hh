/**
 * @file
 * Structured simulation errors. Every recoverable failure in the
 * engine is a SimError carrying an error-code taxonomy plus the
 * context needed to reproduce it (cell id, cycle, PC, instruction
 * count). The experiment engine captures SimErrors per cell instead of
 * letting one bad cell kill a million-cell sweep; the legacy
 * panic()/fatal() sites route here through ScopedErrorCapture (see
 * common/logging.hh).
 */

#ifndef SVR_COMMON_ERROR_HH
#define SVR_COMMON_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace svr
{

/** Failure taxonomy: what class of thing went wrong. */
enum class ErrCode : std::uint8_t
{
    ConfigInvalid,       //!< rejected user configuration
    WorkloadBuild,       //!< workload factory / program build failed
    CycleBudgetExceeded, //!< watchdog: run passed its cycle budget
    NoForwardProgress,   //!< watchdog: no instruction retired in budget
    IoError,             //!< artifact/journal read or write failed
    InternalInvariant,   //!< simulator bug (legacy panic sites)
};

/** Stable printable name, e.g. "CycleBudgetExceeded". */
const char *errCodeName(ErrCode code);

/** Parse errCodeName() output back; false on unknown name. */
bool errCodeFromName(std::string_view name, ErrCode &out);

/**
 * Where an error happened. All fields optional; unset numeric fields
 * are tri-stated with the has* flags so 0 stays a valid value.
 */
struct ErrContext
{
    std::string workload; //!< cell id, empty = unknown
    std::string config;   //!< cell id, empty = unknown
    std::uint64_t cycle = 0;
    std::uint64_t pc = 0;
    std::uint64_t instructions = 0;
    bool hasCycle = false;
    bool hasPc = false;
    bool hasInstructions = false;
};

/**
 * A structured simulation error. what() is the fully decorated
 * "<Code>: <message> [cell=... cycle=... pc=... instr=...]" string;
 * message() is the raw text. SimErrors are deterministic: messages
 * must never embed host-side data (wall time, pointers, thread ids),
 * because failure records are part of the bit-identical-output
 * contract of runMatrix().
 */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrCode code, std::string message);
    SimError(ErrCode code, std::string message, ErrContext context);

    ErrCode code() const { return errCode; }
    const std::string &message() const { return rawMessage; }
    const ErrContext &context() const { return ctx; }

    /**
     * Copy of @p e with the cell identity filled in (existing cell
     * fields win). Used by catch sites that know which cell was
     * running when a lower layer threw.
     */
    static SimError withCell(const SimError &e, std::string_view workload,
                             std::string_view config);

  private:
    ErrCode errCode;
    std::string rawMessage;
    ErrContext ctx;
};

/** printf-style SimError builder (throw simErrorf(...)). */
SimError simErrorf(ErrCode code, ErrContext context, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace svr

#endif // SVR_COMMON_ERROR_HH
