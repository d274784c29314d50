/**
 * @file
 * svrsim_lint — static IR verifier + chain oracle for workload
 * programs.
 *
 * Builds each requested workload's program (no simulation) and runs
 * the analysis/verifier.hh checks over it: CFG construction, dominator
 * and dataflow passes, and the per-instruction structural checks. With
 * --chains it also runs the static dependence-chain analysis
 * (analysis/chains.hh): loop detection, induction-variable/stride
 * recognition, and per-memory-op chain classification, adding the
 * chain diagnostics (chain-too-deep, irregular-root-in-loop,
 * invariant-address-reload) to the lint stream.
 *
 * Usage:
 *   svrsim_lint --all                    lint every registered workload
 *   svrsim_lint --suite graph            graph|hpcdb|spec|full|quick
 *   svrsim_lint --workload PR_KR [...]   lint specific workloads
 *   svrsim_lint --chains                 run the static chain analysis
 *   svrsim_lint --json                   machine-readable output
 *   svrsim_lint --dump                   also print full disassembly
 *   svrsim_lint --werror                 exit non-zero on warnings too
 *   svrsim_lint --quiet                  only print offending programs
 *   svrsim_lint --list-checks            print the diagnostic codes
 *
 * The --json schema ("svrsim-lint-v1") is stable and byte-
 * deterministic: one object per program, one object per diagnostic,
 * plus a chains section when --chains is on — CI diffs lint results
 * across PRs by byte comparison (tools/lint_golden_test.sh).
 *
 * Exit status: 0 when every linted program is error-free (and, with
 * --werror, warning-free); 1 otherwise.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/chains.hh"
#include "analysis/verifier.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "isa/disassembler.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

void
usage()
{
    std::printf(
        "svrsim_lint — static IR verifier + chain oracle\n\n"
        "  --all              lint every registered workload\n"
        "  --suite NAME       graph|hpcdb|spec|full|quick\n"
        "  --workload NAME    lint one workload (repeatable)\n"
        "  --chains           run the static chain analysis too\n"
        "  --json             machine-readable output (svrsim-lint-v1)\n"
        "  --dump             print each linted program's disassembly\n"
        "  --werror           treat warnings as errors\n"
        "  --quiet            only print programs with diagnostics\n"
        "  --list-checks      print every diagnostic code and exit\n");
}

void
listChecks()
{
    static constexpr LintCode codes[] = {
        LintCode::BadOpcode,      LintCode::BadRegField,
        LintCode::X0Write,        LintCode::BadBranchTarget,
        LintCode::FallOffEnd,     LintCode::UninitRead,
        LintCode::UninitFlags,    LintCode::NoExitLoop,
        LintCode::Unreachable,    LintCode::DeadWrite,
        LintCode::DeadCompare,    LintCode::RedundantBranch,
        LintCode::ChainTooDeep,   LintCode::IrregularRootInLoop,
        LintCode::InvariantAddressReload,
    };
    for (const LintCode c : codes) {
        std::printf("%-8s %s\n", lintCodeIsError(c) ? "error" : "warning",
                    lintCodeName(c));
    }
}

/** JSON string escaping (control chars, quotes, backslash). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
jsonIndexList(std::string &out, const std::vector<std::size_t> &v)
{
    out += "[";
    for (std::size_t i = 0; i < v.size(); i++) {
        if (i)
            out += ", ";
        out += std::to_string(v[i]);
    }
    out += "]";
}

/** One program's results, gathered before rendering. */
struct ProgramResult
{
    std::string name;
    std::size_t instructions = 0;
    LintReport lint;
    bool haveChains = false;
    ChainReport chains;

    std::size_t
    errorCount() const
    {
        return lint.errorCount() + (haveChains ? chains.errorCount() : 0);
    }
    std::size_t
    warningCount() const
    {
        return lint.warningCount() +
               (haveChains ? chains.warningCount() : 0);
    }
};

void
jsonDiag(std::string &out, const std::string &indent, const LintDiag &d)
{
    out += indent + "{\"code\": \"" + lintCodeName(d.code) +
           "\", \"severity\": \"" + d.severity() +
           "\", \"index\": " + std::to_string(d.index) +
           ", \"message\": \"" + jsonEscape(d.message) + "\"}";
}

std::string
renderJson(const std::vector<ProgramResult> &results)
{
    std::string out;
    out += "{\n  \"schema\": \"svrsim-lint-v1\",\n  \"programs\": [\n";
    for (std::size_t pi = 0; pi < results.size(); pi++) {
        const ProgramResult &r = results[pi];
        out += "    {\n";
        out += "      \"name\": \"" + jsonEscape(r.name) + "\",\n";
        out += "      \"instructions\": " +
               std::to_string(r.instructions) + ",\n";
        out += "      \"errors\": " + std::to_string(r.errorCount()) +
               ",\n";
        out += "      \"warnings\": " + std::to_string(r.warningCount()) +
               ",\n";
        out += "      \"diagnostics\": [";
        bool first = true;
        for (const LintDiag &d : r.lint.diags) {
            out += first ? "\n" : ",\n";
            first = false;
            jsonDiag(out, "        ", d);
        }
        if (r.haveChains) {
            for (const LintDiag &d : r.chains.diags) {
                out += first ? "\n" : ",\n";
                first = false;
                jsonDiag(out, "        ", d);
            }
        }
        out += first ? "]" : "\n      ]";
        if (r.haveChains) {
            const ChainReport &c = r.chains;
            out += ",\n      \"chains\": {\n";
            out += "        \"loops\": " + std::to_string(c.loopCount) +
                   ",\n";
            out += "        \"irreducibleEdges\": " +
                   std::to_string(c.irreducibleEdgeCount) + ",\n";
            out += "        \"memOps\": [";
            bool fm = true;
            for (const MemOpInfo &m : c.memOps) {
                out += fm ? "\n" : ",\n";
                fm = false;
                out += "          {\"index\": " + std::to_string(m.index) +
                       ", \"class\": \"" + memOpClassName(m.cls) +
                       "\", \"load\": " + (m.isLoad ? "true" : "false") +
                       ", \"loop\": " + std::to_string(m.loop);
                if (m.cls == MemOpClass::StrideRooted) {
                    out += ", \"strideKnown\": " +
                           std::string(m.strideKnown ? "true" : "false") +
                           ", \"stride\": " + std::to_string(m.stride);
                }
                if (m.cls == MemOpClass::ChainDependent) {
                    out += ", \"depth\": " + std::to_string(m.depth) +
                           ", \"root\": " + std::to_string(m.rootIndex);
                }
                out += ", \"disasm\": \"" + jsonEscape(m.disasm) + "\"}";
            }
            out += fm ? "]" : "\n        ]";
            out += ",\n        \"chainList\": [";
            bool fc = true;
            for (const ChainInfo &ch : c.chains) {
                out += fc ? "\n" : ",\n";
                fc = false;
                out += "          {\"root\": " +
                       std::to_string(ch.rootIndex) +
                       ", \"loop\": " + std::to_string(ch.loop) +
                       ", \"strideKnown\": " +
                       (ch.strideKnown ? "true" : "false") +
                       ", \"stride\": " + std::to_string(ch.stride) +
                       ", \"depth\": " + std::to_string(ch.depth) +
                       ", \"loads\": ";
                jsonIndexList(out, ch.chainLoads);
                out += ", \"slice\": ";
                jsonIndexList(out, ch.slice);
                out += ", \"members\": " +
                       std::to_string(ch.members.size()) +
                       ", \"vectorizable\": " +
                       (ch.vectorizable ? "true" : "false") +
                       ", \"verdict\": \"" + jsonEscape(ch.verdict) +
                       "\"}";
            }
            out += fc ? "]" : "\n        ]";
            out += "\n      }";
        }
        out += "\n    }";
        out += pi + 1 < results.size() ? ",\n" : "\n";
    }
    std::size_t errors = 0;
    std::size_t warnings = 0;
    for (const ProgramResult &r : results) {
        errors += r.errorCount();
        warnings += r.warningCount();
    }
    out += "  ],\n  \"totals\": {\"programs\": " +
           std::to_string(results.size()) +
           ", \"errors\": " + std::to_string(errors) +
           ", \"warnings\": " + std::to_string(warnings) + "}\n}\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
try {
    std::vector<std::string> names;
    std::string suite;
    bool all = false;
    bool dump = false;
    bool werror = false;
    bool quiet = false;
    bool chains = false;
    bool json = false;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--suite") {
            suite = next();
        } else if (arg == "--workload") {
            names.push_back(next());
        } else if (arg == "--chains") {
            chains = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--dump") {
            dump = true;
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list-checks") {
            listChecks();
            return 0;
        } else {
            usage();
            fatal("unknown argument '%s'", arg.c_str());
        }
    }

    setInformEnabled(false);

    std::vector<WorkloadSpec> specs;
    if (all) {
        specs = fullSuite();
        for (const auto &w : specSuite())
            specs.push_back(w);
    } else if (!suite.empty()) {
        specs = suiteByName(suite);
    }
    for (const std::string &n : names)
        specs.push_back(findWorkload(n));
    if (specs.empty()) {
        usage();
        fatal("nothing to lint: pass --all, --suite, or --workload");
    }

    std::vector<ProgramResult> results;
    results.reserve(specs.size());
    for (const WorkloadSpec &spec : specs) {
        const WorkloadInstance w = spec.make();
        ProgramResult r;
        r.name = spec.name;
        r.instructions = w.program->size();
        r.lint = verifyProgram(*w.program);
        if (chains) {
            r.haveChains = true;
            r.chains = analyzeChains(*w.program);
        }
        results.push_back(std::move(r));
        if (dump && !json)
            std::fputs(disassemble(*w.program).c_str(), stdout);
    }

    if (json) {
        std::fputs(renderJson(results).c_str(), stdout);
    } else {
        for (const ProgramResult &r : results) {
            if (!r.lint.diags.empty()) {
                std::fputs(r.lint.format().c_str(), stdout);
            } else if (!quiet) {
                std::printf("%s: clean (%zu instructions)\n",
                            r.name.c_str(), r.instructions);
            }
            if (r.haveChains && (!quiet || !r.chains.diags.empty()))
                std::fputs(r.chains.format().c_str(), stdout);
        }
    }

    std::size_t errors = 0;
    std::size_t warnings = 0;
    for (const ProgramResult &r : results) {
        errors += r.errorCount();
        warnings += r.warningCount();
    }
    if (!json) {
        std::printf(
            "linted %zu program(s): %zu error(s), %zu warning(s)\n",
            specs.size(), errors, warnings);
    }
    return errors > 0 || (werror && warnings > 0) ? 1 : 0;
} catch (const SimError &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
