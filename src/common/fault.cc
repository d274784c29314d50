#include "common/fault.hh"

#include <cstdlib>

#include "common/error.hh"
#include "common/rng.hh"

namespace svr
{

namespace
{

bool
patternMatches(std::string_view pattern, std::string_view value)
{
    return pattern == "*" || pattern == value;
}

[[noreturn]] void
badSpec(std::string_view spec, const char *why)
{
    throw simErrorf(ErrCode::ConfigInvalid, {},
                    "bad fault rule '%.*s': %s (see common/fault.hh)",
                    static_cast<int>(spec.size()), spec.data(), why);
}

} // namespace

FaultPlan
FaultPlan::parse(std::string_view spec)
{
    FaultPlan plan;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(';', start);
        if (end == std::string_view::npos)
            end = spec.size();
        const std::string_view item = spec.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;

        const std::size_t at = item.find('@');
        if (at == std::string_view::npos)
            badSpec(item, "missing '@'");
        const std::string_view kind = item.substr(0, at);
        std::string_view target = item.substr(at + 1);

        Rule rule;
        if (kind == "throw") {
            rule.kind = Kind::Throw;
        } else if (kind == "hang") {
            rule.kind = Kind::Hang;
        } else if (kind == "kill") {
            rule.kind = Kind::Kill;
        } else if (kind == "io") {
            rule.kind = Kind::Io;
        } else {
            badSpec(item, "unknown kind (want throw, hang, kill, io)");
        }

        if (rule.kind == Kind::Io) {
            // The whole remainder is a path substring ('*' = any).
            if (target.empty())
                badSpec(item, "empty path substring");
            rule.a = std::string(target);
            plan.rules.push_back(std::move(rule));
            continue;
        }

        // Cell rules: WORKLOAD/CONFIG then optional ':' modifiers.
        std::size_t mod = target.find(':');
        std::string_view cell = target.substr(0, mod);
        const std::size_t slash = cell.find('/');
        if (slash == std::string_view::npos)
            badSpec(item, "cell target must be WORKLOAD/CONFIG");
        rule.a = std::string(cell.substr(0, slash));
        rule.b = std::string(cell.substr(slash + 1));
        if (rule.a.empty() || rule.b.empty())
            badSpec(item, "empty workload or config pattern");

        while (mod != std::string_view::npos) {
            target = target.substr(mod + 1);
            mod = target.find(':');
            const std::string_view m = target.substr(0, mod);
            if (m.empty())
                badSpec(item, "empty modifier");
            const std::string mstr(m);
            char *endp = nullptr;
            if (m[0] == 'p') {
                rule.probability = std::strtod(mstr.c_str() + 1, &endp);
                if (*endp != '\0' || rule.probability < 0.0 ||
                    rule.probability > 1.0) {
                    badSpec(item, "probability must be p0..p1");
                }
            } else {
                const unsigned long k =
                    std::strtoul(mstr.c_str(), &endp, 10);
                if (*endp != '\0' || k == 0)
                    badSpec(item, "attempt bound must be a positive "
                                  "integer");
                rule.attempts = static_cast<unsigned>(k);
            }
        }
        if (rule.kind != Kind::Throw && rule.attempts != 0)
            badSpec(item, "attempt bound only applies to throw rules");
        plan.rules.push_back(std::move(rule));
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = std::getenv("SVRSIM_FAULT");
    return env ? parse(env) : FaultPlan();
}

bool
FaultPlan::matchCell(const Rule &r, std::string_view workload,
                     std::string_view config, unsigned attempt,
                     std::uint64_t base_seed) const
{
    if (!patternMatches(r.a, workload) || !patternMatches(r.b, config))
        return false;
    if (r.attempts != 0 && attempt > r.attempts)
        return false;
    if (r.probability >= 0.0) {
        // One deterministic draw per cell from a named substream of
        // the cell's RNG, so the decision is identical for any job
        // count and never perturbs the simulation stream itself.
        Rng rng = Rng::forCell(base_seed, workload, config).split("fault");
        return rng.nextDouble() < r.probability;
    }
    return true;
}

bool
FaultPlan::shouldThrow(std::string_view workload, std::string_view config,
                       unsigned attempt, std::uint64_t base_seed) const
{
    for (const Rule &r : rules) {
        if (r.kind == Kind::Throw &&
            matchCell(r, workload, config, attempt, base_seed)) {
            return true;
        }
    }
    return false;
}

bool
FaultPlan::shouldHang(std::string_view workload,
                      std::string_view config) const
{
    for (const Rule &r : rules) {
        if (r.kind == Kind::Hang && matchCell(r, workload, config, 1, 0))
            return true;
    }
    return false;
}

bool
FaultPlan::shouldKill(std::string_view workload,
                      std::string_view config) const
{
    for (const Rule &r : rules) {
        if (r.kind == Kind::Kill && matchCell(r, workload, config, 1, 0))
            return true;
    }
    return false;
}

bool
FaultPlan::shouldFailIo(std::string_view path) const
{
    for (const Rule &r : rules) {
        if (r.kind == Kind::Io &&
            (r.a == "*" || path.find(r.a) != std::string_view::npos)) {
            return true;
        }
    }
    return false;
}

} // namespace svr
