#include "sim/journal.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "common/error.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/stat_table.hh"

namespace svr
{

namespace
{

/** %-escape so a value is one whitespace-free token ("-" = empty). */
std::string
escapeField(const std::string &s)
{
    if (s.empty())
        return "-";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02X",
                          static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
unescapeField(const std::string &s)
{
    if (s == "-")
        return "";
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); i++) {
        if (s[i] == '%' && i + 2 < s.size()) {
            const char hex[3] = {s[i + 1], s[i + 2], '\0'};
            out += static_cast<char>(std::strtoul(hex, nullptr, 16));
            i += 2;
        } else {
            out += s[i];
        }
    }
    return out;
}

/** Exact double round-trip: %.17g out, correctly-rounded from_chars in. */
void
putDouble(std::ostringstream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << ' ' << buf;
}

/** Token-stream reader that remembers whether anything went wrong. */
struct Reader
{
    std::istringstream is;
    bool ok = true;

    explicit Reader(const std::string &line) : is(line) {}

    std::string
    token()
    {
        std::string tok;
        if (!(is >> tok))
            ok = false;
        return tok;
    }

    std::string str() { return unescapeField(token()); }

    template <typename T>
    void
    num(T &out)
    {
        if (tryParseNumber(token(), out) != std::errc{})
            ok = false;
    }
};

[[noreturn]] void
ioError(const char *op, const std::string &path, int err)
{
    throw simErrorf(ErrCode::IoError, {}, "journal: %s '%s' failed: %s",
                    op, path.c_str(), std::strerror(err));
}

std::string
headerLine(const SweepKey &key)
{
    std::ostringstream os;
    os << "J1 " << escapeField(key.suite) << ' '
       << escapeField(key.configs) << ' ' << key.window << ' '
       << key.seed;
    // Appended only when sampling is on: a full-detail sweep's header
    // stays byte-identical to the original J1 format.
    if (!key.sampling.empty())
        os << ' ' << escapeField(key.sampling);
    return os.str();
}

} // namespace

std::string
journalLine(const SimResult &r)
{
    std::ostringstream os;
    os << (r.sampled ? "R2 " : "R1 ") << escapeField(r.workload) << ' '
       << escapeField(r.config) << ' ' << (r.failed ? 1 : 0) << ' '
       << r.attempts << ' ' << escapeField(r.errCode);
#define SVR_PUT_CORE(field) os << ' ' << r.core.field;
#define SVR_PUT_MEM(field, source) os << ' ' << r.field;
#define SVR_PUT_REAL(field) putDouble(os, r.field);
    SVR_CORE_COUNTERS(SVR_PUT_CORE)
    SVR_MEM_COUNTERS(SVR_PUT_MEM)
    SVR_RESULT_REALS(SVR_PUT_REAL)
#undef SVR_PUT_CORE
#undef SVR_PUT_MEM
#undef SVR_PUT_REAL
    if (r.sampled) {
        os << ' ' << r.sampleWindows << ' ' << r.measuredInstructions;
        putDouble(os, r.cpiStderr);
    }
    os << ' ' << escapeField(r.errMessage);
    return os.str();
}

bool
parseJournalLine(const std::string &line, SimResult &out)
{
    Reader rd(line);
    const std::string tag = rd.token();
    if (tag != "R1" && tag != "R2")
        return false;

    SimResult r;
    r.sampled = tag == "R2";
    r.workload = rd.str();
    r.config = rd.str();
    std::uint64_t failed = 0;
    rd.num(failed);
    r.failed = failed != 0;
    rd.num(r.attempts);
    r.errCode = rd.str();
#define SVR_GET_CORE(field) rd.num(r.core.field);
#define SVR_GET(field, ...) rd.num(r.field);
    SVR_CORE_COUNTERS(SVR_GET_CORE)
    SVR_MEM_COUNTERS(SVR_GET)
    SVR_RESULT_REALS(SVR_GET)
#undef SVR_GET_CORE
#undef SVR_GET
    if (r.sampled) {
        rd.num(r.sampleWindows);
        rd.num(r.measuredInstructions);
        rd.num(r.cpiStderr);
    }
    r.errMessage = rd.str();
    std::string extra;
    if (rd.is >> extra || !rd.ok || r.workload.empty() || r.config.empty())
        return false;
    out = std::move(r);
    return true;
}

SweepJournal::SweepJournal(const std::string &path, const SweepKey &key,
                           bool fsync_each)
    : journalPath(path), fsyncEach(fsync_each)
{
    // Append mode keeps existing records when resuming; the header is
    // only written when the file is new or empty.
    file = std::fopen(path.c_str(), "ab");
    if (!file)
        ioError("open", path, errno);
    // Whether 'a' mode positions at 0 or EOF before the first write is
    // implementation-defined; seek explicitly before the empty check.
    std::fseek(file, 0, SEEK_END);
    const long pos = std::ftell(file);
    if (pos == 0) {
        const std::string header = headerLine(key) + "\n";
        if (std::fwrite(header.data(), 1, header.size(), file) !=
                header.size() ||
            std::fflush(file) != 0) {
            const int err = errno;
            std::fclose(file);
            file = nullptr;
            ioError("write header", path, err);
        }
        if (fsyncEach && ::fsync(::fileno(file)) != 0) {
            const int err = errno;
            std::fclose(file);
            file = nullptr;
            ioError("fsync header", path, err);
        }
    }
}

SweepJournal::~SweepJournal()
{
    if (file)
        std::fclose(file);
}

void
SweepJournal::append(const SimResult &r)
{
    const std::string line = journalLine(r) + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fflush(file) != 0) {
        // A short write here is ENOSPC (or a dying disk) surfacing
        // through stdio — either way the record cannot be trusted.
        ioError("append", journalPath, errno);
    }
    if (fsyncEach && ::fsync(::fileno(file)) != 0)
        ioError("fsync", journalPath, errno);
}

JournalCells
loadJournal(const std::string &path, const SweepKey &expect)
{
    const std::string content = readFile(path);

    // A record line is only trusted when newline-terminated: a crash
    // mid-append leaves a torn final line, which we drop.
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (true) {
        const std::size_t end = content.find('\n', start);
        if (end == std::string::npos)
            break;
        lines.push_back(content.substr(start, end - start));
        start = end + 1;
    }
    if (start < content.size())
        warn("journal '%s': dropping torn final line", path.c_str());

    if (lines.empty() || lines[0] != headerLine(expect)) {
        throw simErrorf(
            ErrCode::ConfigInvalid, {},
            "journal '%s' belongs to a different sweep (its header "
            "does not match suite/configs/window/seed); delete it or "
            "rerun with the original arguments",
            path.c_str());
    }

    JournalCells cells;
    for (std::size_t i = 1; i < lines.size(); i++) {
        if (lines[i].empty())
            continue;
        SimResult r;
        if (!parseJournalLine(lines[i], r)) {
            warn("journal '%s': skipping corrupt record line %zu",
                 path.c_str(), i + 1);
            continue;
        }
        cells[{r.workload, r.config}] = std::move(r);
    }
    return cells;
}

JournalCells
loadJournalShards(const std::vector<std::string> &paths,
                  const SweepKey &expect, std::size_t *duplicates)
{
    JournalCells merged;
    std::size_t dups = 0;
    for (const std::string &path : paths) {
        JournalCells shard = loadJournal(path, expect);
        for (auto &kv : shard) {
            // Identical cells are interchangeable (deterministic per-
            // cell streams), so only count the collision.
            if (!merged.emplace(kv.first, std::move(kv.second)).second)
                dups++;
        }
    }
    if (duplicates)
        *duplicates = dups;
    return merged;
}

} // namespace svr
