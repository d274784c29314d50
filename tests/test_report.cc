/**
 * @file
 * Tests for the machine-readable reporting (JSON/CSV serialization).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/journal.hh"
#include "sim/report.hh"
#include "test_helpers.hh"

namespace svr
{
namespace
{

SimResult
sampleResult()
{
    SimConfig c = presets::svrCore(16);
    c.maxInstructions = 20000;
    return simulate(c, test::strideIndirect(1 << 13, 1 << 17));
}

TEST(Report, JsonContainsKeyFields)
{
    const SimResult r = sampleResult();
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"workload\": \"stride-indirect\""),
              std::string::npos);
    EXPECT_NE(json.find("\"config\": \"SVR16\""), std::string::npos);
    EXPECT_NE(json.find("\"instructions\": 20000"), std::string::npos);
    EXPECT_NE(json.find("\"cpi_stack\""), std::string::npos);
    EXPECT_NE(json.find("\"dram_traffic\""), std::string::npos);
    EXPECT_NE(json.find("\"energy\""), std::string::npos);
    EXPECT_NE(json.find("\"llc_accuracy\""), std::string::npos);
}

TEST(Report, JsonBalancedBraces)
{
    const std::string json = toJson(sampleResult());
    int depth = 0;
    for (char ch : json) {
        if (ch == '{')
            depth++;
        if (ch == '}')
            depth--;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Report, JsonArrayOfResults)
{
    std::vector<SimResult> results = {sampleResult(), sampleResult()};
    const std::string json = toJson(results);
    EXPECT_EQ(json.front(), '[');
    // Two objects, comma-separated.
    std::size_t count = 0;
    for (std::size_t pos = json.find("\"workload\"");
         pos != std::string::npos;
         pos = json.find("\"workload\"", pos + 1)) {
        count++;
    }
    EXPECT_EQ(count, 2u);
}

TEST(Report, JsonEscaping)
{
    SimResult r = sampleResult();
    r.workload = "we\"ird\\name";
    const std::string json = toJson(r);
    EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(Report, CsvColumnsMatchHeader)
{
    const std::string header = csvHeader();
    const std::string row = csvRow(sampleResult());
    const auto count_commas = [](const std::string &s) {
        std::size_t n = 0;
        for (char ch : s) {
            if (ch == ',')
                n++;
        }
        return n;
    };
    EXPECT_EQ(count_commas(header), count_commas(row));
}

/**
 * Golden-output regression: a handcrafted result must serialize to
 * these exact bytes. Guards the contract that adding sampled
 * simulation did not perturb the non-sampled JSON/CSV formats — any
 * byte-level drift (reordered keys, changed precision, stray sampling
 * fields) fails here, not in a downstream artifact diff.
 */
SimResult
goldenResult()
{
    SimResult r;
    r.workload = "golden";
    r.config = "cfg";
    r.core.instructions = 1000;
    r.core.cycles = 2500;
    r.core.stackL2 = 500;
    r.core.stackDram = 800;
    r.core.stackBranch = 100;
    r.core.stackSvu = 50;
    r.core.stackOther = 50;
    r.core.loads = 300;
    r.core.stores = 100;
    r.core.branches = 200;
    r.core.branchMispredicts = 10;
    r.core.svrRounds = 8;
    r.core.transientScalars = 64;
    r.core.svrPrefetches = 48;
    r.l1dHits = 250;
    r.l1dMisses = 50;
    r.l2Hits = 30;
    r.l2Misses = 20;
    r.dramTransfers = 20;
    r.traffic.demandData = 20;
    r.traffic.demandIfetch = 2;
    r.traffic.prefStride = 5;
    r.traffic.prefSvr = 7;
    r.traffic.prefImp = 3;
    r.traffic.writebacks = 4;
    r.tlbWalks = 6;
    r.svrAccuracyLlc = 0.75;
    r.impAccuracyLlc = 0.5;
    r.energy.coreStatic = 1.5;
    r.energy.coreDynamic = 2.5;
    r.energy.svrDynamic = 0.5;
    r.energy.cacheDynamic = 1.0;
    r.energy.dramStatic = 0.75;
    r.energy.dramDynamic = 3.0;
    return r;
}

TEST(Report, GoldenJsonBytesUnchanged)
{
    const char *expected = R"({
  "workload": "golden",
  "config": "cfg",
  "status": "ok",
  "attempts": 1,
  "instructions": 1000,
  "cycles": 2500,
  "ipc": 0.4,
  "cpi": 2.5,
  "cpi_stack": {
    "base": 1000,
    "l2": 500,
    "dram": 800,
    "branch": 100,
    "svu": 50,
    "other": 50
  },
  "loads": 300,
  "stores": 100,
  "branches": 200,
  "branch_mispredicts": 10,
  "l1d_hits": 250,
  "l1d_misses": 50,
  "l2_hits": 30,
  "l2_misses": 20,
  "dram_transfers": 20,
  "dram_traffic": {
    "demand_data": 20,
    "demand_ifetch": 2,
    "pref_stride": 5,
    "pref_svr": 7,
    "pref_imp": 3,
    "writebacks": 4
  },
  "tlb_walks": 6,
  "svr": {
    "rounds": 8,
    "transient_scalars": 64,
    "prefetches": 48,
    "llc_accuracy": 0.75
  },
  "imp_llc_accuracy": 0.5,
  "energy": {
    "total_nj": 9.25,
    "per_instr_nj": 0.00925,
    "core_static_nj": 1.5,
    "core_dynamic_nj": 2.5,
    "svr_dynamic_nj": 0.5,
    "cache_dynamic_nj": 1,
    "dram_static_nj": 0.75,
    "dram_dynamic_nj": 3
  }
}
)";
    EXPECT_EQ(toJson(goldenResult()), expected);
}

TEST(Report, GoldenCsvBytesUnchanged)
{
    EXPECT_EQ(csvHeader(),
              "workload,config,instructions,cycles,ipc,cpi,"
              "stack_base,stack_l2,stack_dram,stack_branch,stack_svu,"
              "stack_other,loads,stores,branches,branch_mispredicts,"
              "l1d_hits,l1d_misses,l2_hits,l2_misses,dram_transfers,"
              "tlb_walks,svr_rounds,svr_scalars,svr_prefetches,"
              "svr_llc_accuracy,energy_per_instr_nj,status,attempts,"
              "error_code");
    EXPECT_EQ(csvRow(goldenResult()),
              "golden,cfg,1000,2500,0.4,2.5,1000,500,800,100,50,50,"
              "300,100,200,10,250,50,30,20,20,6,8,64,48,0.75,0.00925,"
              "ok,1,");
}

/**
 * The journal record carries every SimResult stat, including the ones
 * JSON/CSV never print (per-origin prefetch counts, the stride
 * accuracy, SVR static energy, attempts, the error code and message),
 * so its bytes are pinned here on top of the report goldens.
 */
TEST(Report, GoldenJournalBytesUnchanged)
{
    SimResult r = goldenResult();
    r.prefIssued[0] = 11;
    r.prefIssued[1] = 12;
    r.prefIssued[2] = 13;
    r.prefIssued[3] = 14;
    r.strideAccuracyLlc = 0.625;
    r.energy.svrStatic = 0.25;
    r.attempts = 3;
    r.errCode = "IoError";
    r.errMessage = "disk 100% full";
    EXPECT_EQ(journalLine(r),
              "R1 golden cfg 0 3 IoError 1000 2500 300 100 200 10 64 48 "
              "8 500 800 100 50 50 250 50 30 20 20 20 2 5 7 3 4 6 11 12 "
              "13 14 0.75 0.5 0.625 1.5 2.5 0.5 0.25 1 0.75 3 "
              "disk%20100%25%20full");
    SimResult back;
    ASSERT_TRUE(parseJournalLine(journalLine(r), back));
    EXPECT_EQ(journalLine(back), journalLine(r));

    r.sampled = true;
    r.sampleWindows = 10;
    r.measuredInstructions = 200;
    r.cpiStderr = 0.1;
    EXPECT_EQ(journalLine(r),
              "R2 golden cfg 0 3 IoError 1000 2500 300 100 200 10 64 48 "
              "8 500 800 100 50 50 250 50 30 20 20 20 2 5 7 3 4 6 11 12 "
              "13 14 0.75 0.5 0.625 1.5 2.5 0.5 0.25 1 0.75 3 10 200 "
              "0.10000000000000001 disk%20100%25%20full");
    ASSERT_TRUE(parseJournalLine(journalLine(r), back));
    EXPECT_EQ(journalLine(back), journalLine(r));
}

/** Sampled results gain exactly the gated extras, nothing else. */
TEST(Report, GoldenSampledOutputsGated)
{
    SimResult r = goldenResult();
    const std::string plain_json = toJson(r);
    const std::string plain_row = csvRow(r);
    EXPECT_EQ(plain_json.find("sampled"), std::string::npos);
    EXPECT_EQ(plain_json.find("cpi_stderr"), std::string::npos);

    r.sampled = true;
    r.sampleWindows = 10;
    r.measuredInstructions = 200;
    r.cpiStderr = 0.125;
    const char *block = R"(  "sampled": {
    "windows": 10,
    "measured_instructions": 200,
    "cpi_stderr": 0.125,
    "cpi_ci95": 0.245
  },
)";
    EXPECT_NE(toJson(r).find(block), std::string::npos);
    // Everything outside the gated block is untouched.
    std::string sampled_json = toJson(r);
    const std::size_t at = sampled_json.find(block);
    ASSERT_NE(at, std::string::npos);
    sampled_json.erase(at, std::string(block).size());
    EXPECT_EQ(sampled_json, plain_json);

    // Non-sampled CSV emission of a sampled result is also unchanged;
    // the three extra columns only appear on request.
    EXPECT_EQ(csvRow(r), plain_row);
    EXPECT_EQ(csvRow(r, true), plain_row + ",10,200,0.125");
}

TEST(Report, CsvRowRoundTripsNumbers)
{
    const SimResult r = sampleResult();
    const std::string row = csvRow(r);
    std::istringstream is(row);
    std::string field;
    std::getline(is, field, ','); // workload
    EXPECT_EQ(field, r.workload);
    std::getline(is, field, ','); // config
    EXPECT_EQ(field, r.config);
    std::getline(is, field, ','); // instructions
    EXPECT_EQ(std::stoull(field), r.core.instructions);
    std::getline(is, field, ','); // cycles
    EXPECT_EQ(std::stoull(field), r.core.cycles);
}

} // namespace
} // namespace svr
