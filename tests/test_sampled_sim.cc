/**
 * @file
 * Differential tests for the sampled-simulation engine
 * (sim/sampled_sim.hh): degenerate configurations must collapse to an
 * exact full-detail run, realistic configurations must land within the
 * stated error bound of the full run with an honest confidence
 * interval, incompatible configurations are rejected up front, and
 * sampled results round-trip through the sweep journal as "R2"
 * records without disturbing the non-sampled format.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hh"
#include "core/commit_hook.hh"
#include "isa/program.hh"
#include "mem/functional_memory.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/sampled_sim.hh"
#include "sim/simulator.hh"
#include "test_helpers.hh"
#include "workloads/hpcdb_kernels.hh"

namespace svr
{
namespace
{

/**
 * DRAM-bound non-halting workload. The gather table (32 MiB) dwarfs
 * the simulated caches, so the region's CPI is stationary — the
 * property systematic sampling relies on. A cache-resident footprint
 * would make every fresh-memory sample window look cold relative to
 * the warmed-up full run and bias the estimate (see the bench's
 * paper-scale workload choice in tools/bench_report.cpp).
 */
WorkloadInstance
samplingWorkload()
{
    return test::strideIndirect(1 << 13, 1 << 22, /*seed=*/11);
}

class DegenerateCores : public ::testing::TestWithParam<CoreType>
{
};

/**
 * Window >= region: a single sample window covers every instruction,
 * so the "estimate" must equal the full-detail run bit for bit, on
 * every core model.
 */
TEST_P(DegenerateCores, WindowCoveringRegionIsExact)
{
    constexpr std::uint64_t region = 60000;
    SimConfig config;
    switch (GetParam()) {
      case CoreType::InOrder:
        config = presets::inorder();
        break;
      case CoreType::InOrderImp:
        config = presets::impCore();
        break;
      case CoreType::OutOfOrder:
        config = presets::outOfOrder();
        break;
      case CoreType::Svr:
        config = presets::svrCore(16);
        break;
    }
    config.maxInstructions = region;

    const SimResult full = simulate(config, samplingWorkload());

    config.sampling.sampleEvery = region;
    config.sampling.sampleWindow = region;
    config.sampling.warmup = 0;
    const SimResult sampled = simulate(config, samplingWorkload());

    EXPECT_TRUE(sampled.sampled);
    EXPECT_FALSE(full.sampled);
    EXPECT_EQ(sampled.sampleWindows, 1u);
    EXPECT_EQ(sampled.measuredInstructions, region);
    EXPECT_DOUBLE_EQ(sampled.cpiStderr, 0.0);
    test::expectStatsEqual(sampled, full, test::RealsCompare::DoubleEq,
                           coreTypeName(GetParam()));
}

/** Period larger than the whole region degenerates the same way. */
TEST_P(DegenerateCores, OversizedPeriodIsExact)
{
    constexpr std::uint64_t region = 50000;
    SimConfig config;
    switch (GetParam()) {
      case CoreType::InOrder:
        config = presets::inorder();
        break;
      case CoreType::InOrderImp:
        config = presets::impCore();
        break;
      case CoreType::OutOfOrder:
        config = presets::outOfOrder();
        break;
      case CoreType::Svr:
        config = presets::svrCore(16);
        break;
    }
    config.maxInstructions = region;

    const SimResult full = simulate(config, samplingWorkload());

    config.sampling.sampleEvery = 1 << 20;
    config.sampling.sampleWindow = 1 << 20;
    config.sampling.warmup = 0;
    const SimResult sampled = simulate(config, samplingWorkload());

    EXPECT_EQ(sampled.sampleWindows, 1u);
    EXPECT_EQ(sampled.measuredInstructions, region);
    test::expectStatsEqual(sampled, full, test::RealsCompare::DoubleEq,
                           coreTypeName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllCores, DegenerateCores,
                         ::testing::Values(CoreType::InOrder,
                                           CoreType::InOrderImp,
                                           CoreType::OutOfOrder,
                                           CoreType::Svr),
                         [](const auto &info) {
                             switch (info.param) {
                               case CoreType::InOrder: return "InOrder";
                               case CoreType::InOrderImp: return "Imp";
                               case CoreType::OutOfOrder: return "OoO";
                               default: return "Svr";
                             }
                         });

/**
 * Realistic sampling: 10 periods, 20% of each simulated in detail.
 * The stitched CPI must land within the engine's stated +/-5% bound
 * of the full-detail run, and the quoted confidence interval must be
 * honest (full value inside sampled +/- 3 x stderr + bias allowance).
 * Everything here is deterministic — this is a regression bound, not
 * a statistical coin flip.
 */
TEST(SampledSim, CpiWithinStatedBoundOfFullRun)
{
    // Paper-scale camel (36 MiB footprint) with the bench's window
    // parameters: per-window cold-start bias is a property of
    // (workload, warmup, window) — these values empirically deliver
    // ~1% CPI error on every core (see BENCH_sampling.json).
    const WorkloadInstance camel = makeCamel();
    for (const SimConfig &base :
         {presets::inorder(), presets::svrCore(16)}) {
        SimConfig config = base;
        config.maxInstructions = 4000000;
        const SimResult full = simulate(config, camel);

        config.sampling.sampleEvery = 400000;
        config.sampling.sampleWindow = 20000;
        config.sampling.warmup = 10000;
        std::vector<SampleWindow> windows;
        const SimResult sampled =
            simulateSampled(config, camel, {}, &windows);

        EXPECT_TRUE(sampled.sampled) << config.label;
        EXPECT_EQ(sampled.core.instructions, full.core.instructions)
            << config.label; // region length stays exact
        EXPECT_EQ(sampled.sampleWindows, 10u) << config.label;
        EXPECT_EQ(sampled.measuredInstructions, 200000u) << config.label;
        EXPECT_GT(sampled.cpiStderr, 0.0) << config.label;

        const double err = std::abs(sampled.cpi() - full.cpi());
        EXPECT_LE(err, 0.05 * full.cpi())
            << config.label << ": sampled " << sampled.cpi()
            << " vs full " << full.cpi();
        EXPECT_LE(err, 3.0 * sampled.cpiStderr + 0.05 * full.cpi())
            << config.label << ": CI does not cover the full-run CPI";

        ASSERT_EQ(windows.size(), 10u) << config.label;
        std::uint64_t prev_start = 0;
        for (std::size_t i = 0; i < windows.size(); i++) {
            EXPECT_EQ(windows[i].measured, 20000u);
            EXPECT_EQ(windows[i].warmup, 10000u);
            if (i > 0) {
                EXPECT_GT(windows[i].startInstruction, prev_start);
            }
            prev_start = windows[i].startInstruction;
            EXPECT_NEAR(windows[i].cpi,
                        static_cast<double>(windows[i].cycles) / 20000.0,
                        1e-12);
        }
    }
}

/** A workload that halts mid-region: the tail is handled gracefully. */
TEST(SampledSim, HaltingWorkloadEndsCleanly)
{
    // Bounded loop: ~6 instructions per iteration, then Halt.
    auto mem = std::make_shared<FunctionalMemory>();
    const Addr data = mem->alloc(1 << 12, 64);
    ProgramBuilder b("halting");
    b.li(1, data);
    b.li(2, 5000); // iterations
    b.li(3, 0);
    b.label("loop");
    b.ld(4, 1, 0);
    b.add(5, 5, 4);
    b.addi(3, 3, 1);
    b.cmp(3, 2);
    b.blt("loop");
    b.halt();
    WorkloadInstance w;
    w.name = "halting";
    w.mem = mem;
    w.program = std::make_shared<Program>(b.build());

    SimConfig config = presets::inorder();
    config.maxInstructions = 1 << 20; // far beyond the program's length
    config.sampling.sampleEvery = 10000;
    config.sampling.sampleWindow = 1000;
    config.sampling.warmup = 500;
    const SimResult r = simulate(config, w);

    EXPECT_TRUE(r.sampled);
    EXPECT_LT(r.core.instructions, std::uint64_t{1} << 20);
    EXPECT_GT(r.core.instructions, 25000u);
    EXPECT_GT(r.core.cycles, 0u);
    EXPECT_GE(r.sampleWindows, 1u);
}

TEST(SampledSim, InvalidParamsRejected)
{
    SimConfig config = presets::inorder();
    config.maxInstructions = 100000;

    config.sampling.sampleEvery = 10000;
    config.sampling.sampleWindow = 0; // enabled but no window
    try {
        simulate(config, samplingWorkload());
        FAIL() << "zero sample window accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
    }

    config.sampling.sampleWindow = 8000;
    config.sampling.warmup = 3000; // window + warmup > every
    try {
        simulate(config, samplingWorkload());
        FAIL() << "overcommitted period accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
    }
}

TEST(SampledSim, CommitHookIncompatible)
{
    struct NullHook : CommitHook
    {
        void onCommit(const DynInst &, Cycle) override {}
    } hook;

    SimConfig config = presets::inorder();
    config.maxInstructions = 100000;
    config.sampling.sampleEvery = 10000;
    config.sampling.sampleWindow = 1000;

    SimHooks hooks;
    hooks.commit = &hook;
    try {
        simulate(config, samplingWorkload(), hooks);
        FAIL() << "sampling accepted a per-commit hook";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
    }
}

// ---- Journal integration -----------------------------------------------

/** A sampled result small enough to compute quickly. */
SimResult
sampledResult()
{
    SimConfig config = presets::inorder();
    config.maxInstructions = 50000;
    config.sampling.sampleEvery = 10000;
    config.sampling.sampleWindow = 2000;
    config.sampling.warmup = 1000;
    return simulate(config, samplingWorkload());
}

TEST(SampledJournal, R2RecordRoundTrips)
{
    const SimResult r = sampledResult();
    const std::string line = journalLine(r);
    EXPECT_EQ(line.rfind("R2 ", 0), 0u) << line;

    SimResult back;
    ASSERT_TRUE(parseJournalLine(line, back));
    EXPECT_TRUE(back.sampled);
    EXPECT_EQ(back.sampleWindows, r.sampleWindows);
    EXPECT_EQ(back.measuredInstructions, r.measuredInstructions);
    EXPECT_EQ(back.cpiStderr, r.cpiStderr); // %.17g exact round-trip
    EXPECT_EQ(back.core.instructions, r.core.instructions);
    EXPECT_EQ(back.core.cycles, r.core.cycles);
    // The re-serialized line is byte-identical (resume contract).
    EXPECT_EQ(journalLine(back), line);
}

TEST(SampledJournal, NonSampledRecordsKeepR1Format)
{
    SimConfig config = presets::inorder();
    config.maxInstructions = 20000;
    const SimResult r = simulate(config, samplingWorkload());
    const std::string line = journalLine(r);
    EXPECT_EQ(line.rfind("R1 ", 0), 0u) << line;
    EXPECT_EQ(line.find("R2"), std::string::npos);

    SimResult back;
    ASSERT_TRUE(parseJournalLine(line, back));
    EXPECT_FALSE(back.sampled);
    EXPECT_EQ(journalLine(back), line);
}

TEST(SampledJournal, ResumeRejectsMismatchedSampling)
{
    const std::string path =
        ::testing::TempDir() + "/svrsim_sampled_journal.journal";
    std::remove(path.c_str());

    SweepKey sampled_key{"quick", "ino", 50000, 12345,
                         "10000/2000/1000"};
    {
        SweepJournal journal(path, sampled_key);
        journal.append(sampledResult());
    }

    // Same key resumes fine.
    EXPECT_EQ(loadJournal(path, sampled_key).size(), 1u);

    // Different sampling parameters: incomparable numbers, rejected.
    SweepKey other = sampled_key;
    other.sampling = "20000/2000/1000";
    try {
        loadJournal(path, other);
        FAIL() << "journal with different sampling accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
    }

    // A full-detail sweep (no sampling token) is also rejected.
    SweepKey full = sampled_key;
    full.sampling.clear();
    try {
        loadJournal(path, full);
        FAIL() << "sampled journal accepted by a full-detail sweep";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
    }
    std::remove(path.c_str());
}

TEST(SampledReport, CsvColumnsAppendOnlyWhenSampled)
{
    const std::string base_header = csvHeader();
    const std::string sampled_header = csvHeader(true);
    EXPECT_EQ(sampled_header.rfind(base_header, 0), 0u);
    EXPECT_NE(sampled_header.find(
                  ",sample_windows,measured_instructions,cpi_stderr"),
              std::string::npos);

    const SimResult r = sampledResult();
    const std::string row = csvRow(r, true);
    const std::string plain = csvRow(r);
    EXPECT_EQ(row.rfind(plain, 0), 0u);

    const auto commas = [](const std::string &s) {
        std::size_t n = 0;
        for (char ch : s) {
            if (ch == ',')
                n++;
        }
        return n;
    };
    EXPECT_EQ(commas(sampled_header), commas(row));
    EXPECT_EQ(commas(base_header) + 3, commas(sampled_header));
}

TEST(SampledReport, JsonGainsSampledObjectOnlyWhenSampled)
{
    const SimResult r = sampledResult();
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"sampled\""), std::string::npos);
    EXPECT_NE(json.find("\"cpi_stderr\""), std::string::npos);
    EXPECT_NE(json.find("\"cpi_ci95\""), std::string::npos);

    SimConfig config = presets::inorder();
    config.maxInstructions = 20000;
    const SimResult full = simulate(config, samplingWorkload());
    const std::string full_json = toJson(full);
    EXPECT_EQ(full_json.find("\"sampled\""), std::string::npos);
    EXPECT_EQ(full_json.find("cpi_stderr"), std::string::npos);
}

} // namespace
} // namespace svr
