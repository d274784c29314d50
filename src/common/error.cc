#include "common/error.hh"

#include <cstdarg>
#include <cstdio>

namespace svr
{

namespace
{

const char *const codeNames[] = {
    "ConfigInvalid",       "WorkloadBuild", "CycleBudgetExceeded",
    "NoForwardProgress",   "IoError",       "InternalInvariant",
};
constexpr unsigned numCodes = sizeof(codeNames) / sizeof(codeNames[0]);

/** Build the decorated what() string. */
std::string
describe(ErrCode code, const std::string &message, const ErrContext &ctx)
{
    std::string out = errCodeName(code);
    out += ": ";
    out += message;

    std::string where;
    auto append = [&where](const std::string &piece) {
        if (!where.empty())
            where += ' ';
        where += piece;
    };
    if (!ctx.workload.empty() || !ctx.config.empty())
        append("cell=" + ctx.workload + "/" + ctx.config);
    char buf[64];
    if (ctx.hasCycle) {
        std::snprintf(buf, sizeof(buf), "cycle=%llu",
                      static_cast<unsigned long long>(ctx.cycle));
        append(buf);
    }
    if (ctx.hasPc) {
        std::snprintf(buf, sizeof(buf), "pc=0x%llx",
                      static_cast<unsigned long long>(ctx.pc));
        append(buf);
    }
    if (ctx.hasInstructions) {
        std::snprintf(buf, sizeof(buf), "instr=%llu",
                      static_cast<unsigned long long>(ctx.instructions));
        append(buf);
    }
    if (!where.empty())
        out += " [" + where + "]";
    return out;
}

} // namespace

const char *
errCodeName(ErrCode code)
{
    const auto idx = static_cast<unsigned>(code);
    return idx < numCodes ? codeNames[idx] : "<bad-errcode>";
}

bool
errCodeFromName(std::string_view name, ErrCode &out)
{
    for (unsigned i = 0; i < numCodes; i++) {
        if (name == codeNames[i]) {
            out = static_cast<ErrCode>(i);
            return true;
        }
    }
    return false;
}

SimError::SimError(ErrCode code, std::string message)
    : SimError(code, std::move(message), ErrContext{})
{
}

SimError::SimError(ErrCode code, std::string message, ErrContext context)
    : std::runtime_error(describe(code, message, context)), errCode(code),
      rawMessage(std::move(message)), ctx(std::move(context))
{
}

SimError
SimError::withCell(const SimError &e, std::string_view workload,
                   std::string_view config)
{
    ErrContext ctx = e.context();
    if (ctx.workload.empty())
        ctx.workload = workload;
    if (ctx.config.empty())
        ctx.config = config;
    return SimError(e.code(), e.message(), std::move(ctx));
}

SimError
simErrorf(ErrCode code, ErrContext context, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return SimError(code, buf, std::move(context));
}

} // namespace svr
