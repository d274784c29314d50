/**
 * @file
 * Crash-safe sweep journal. A sweep appends one record per completed
 * cell to "<out>.journal" (flushed immediately), so a killed run can
 * be resumed with --resume: already-journaled cells are restored
 * instead of re-simulated, and the final artifact is byte-identical
 * to an uninterrupted run because every SimResult field that reaches
 * the reports round-trips exactly (integers verbatim, doubles as
 * %.17g).
 *
 * Format (plain text, one record per line):
 *   line 1:  "J1 <suite> <configs> <window> <seed>[ <sampling>]" —
 *            sweep identity; --resume refuses a journal whose identity
 *            differs. The sampling token (every/window/warmup) only
 *            appears for sampled sweeps, so non-sampled journals stay
 *            byte-identical to the original format.
 *   others:  "R1 <labels> <stat-table rows> <errMessage>" — one
 *            completed cell; rows in sim/stat_table.hh order, strings
 *            %-escaped into single tokens. Sampled cells are "R2"
 *            records: the same fields plus sample_windows/
 *            measured_instructions/cpi_stderr before errMessage.
 * A torn final line (crash mid-append) is ignored on load.
 */

#ifndef SVR_SIM_JOURNAL_HH
#define SVR_SIM_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace svr
{

/** Identity of one sweep, for journal/resume compatibility checks. */
struct SweepKey
{
    std::string suite;   //!< workload suite name
    std::string configs; //!< comma-joined config list as given
    std::uint64_t window = 0;
    std::uint64_t seed = 0;
    /**
     * Sampling identity, "every/window/warmup" (e.g. "1000000/40000/
     * 20000"); empty for full-detail sweeps. Part of the resume
     * compatibility check: a journal written with different sampling
     * parameters holds incomparable numbers and is rejected.
     */
    std::string sampling;

    bool
    operator==(const SweepKey &o) const
    {
        return suite == o.suite && configs == o.configs &&
               window == o.window && seed == o.seed &&
               sampling == o.sampling;
    }
};

/** Completed cells keyed by (workload, config). */
using JournalCells =
    std::map<std::pair<std::string, std::string>, SimResult>;

/** Serialize one cell as an "R1 ..." line (no trailing newline). */
std::string journalLine(const SimResult &r);

/**
 * Parse one "R1 ..." line. Returns false on a torn/corrupt line — a
 * missing, malformed or extra token (callers skip it); never throws.
 */
bool parseJournalLine(const std::string &line, SimResult &out);

/**
 * Append-only journal writer: opens @p path (creating it with a "J1"
 * header when new or empty), then append() writes one record and
 * flushes so a SIGKILL loses at most the in-flight line. With
 * @p fsync_each the record is also fsync()ed to the device before
 * append() returns, extending the guarantee from "survives process
 * death" to "survives power loss" at a per-record latency cost
 * (--journal-fsync in the sweep tool). All IO failures — short
 * writes, ENOSPC, a failed fsync — throw SimError(IoError).
 */
class SweepJournal
{
  public:
    SweepJournal(const std::string &path, const SweepKey &key,
                 bool fsync_each = false);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    void append(const SimResult &r);

    const std::string &path() const { return journalPath; }

  private:
    std::string journalPath;
    std::FILE *file = nullptr;
    bool fsyncEach = false;
};

/**
 * Load the completed cells of an existing journal at @p path. Throws
 * SimError(IoError) when the file cannot be read and
 * SimError(ConfigInvalid) when its header does not match @p expect
 * (resuming a different sweep would silently mix results). Torn or
 * corrupt record lines are skipped with a warn().
 */
JournalCells loadJournal(const std::string &path, const SweepKey &expect);

/**
 * Merge several journal shards (e.g. the journals of svrsim_sweep
 * --shard runs on other hosts) into one completed-cell map.
 * Every shard must carry the same sweep identity @p expect; cells
 * appearing in more than one shard are identical by the determinism
 * contract (same cell => same seeded stream => same record), so the
 * first occurrence wins and duplicates are counted, not compared.
 * Returns the union; @p duplicates (optional) receives the number of
 * duplicate records dropped.
 */
JournalCells loadJournalShards(const std::vector<std::string> &paths,
                               const SweepKey &expect,
                               std::size_t *duplicates = nullptr);

} // namespace svr

#endif // SVR_SIM_JOURNAL_HH
