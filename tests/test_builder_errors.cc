/**
 * @file
 * Death tests for user-error paths: the assembler-style builder and
 * configuration validation call fatal() (exit 1) on misuse, per the
 * gem5 fatal/panic discipline.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/error.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/config.hh"
#include "svr/srf.hh"
#include "workloads/suites.hh"

namespace svr
{
namespace
{

TEST(BuilderErrorsDeathTest, WriteToX0)
{
    ProgramBuilder b("t");
    EXPECT_EXIT(b.addi(0, 1, 1), ::testing::ExitedWithCode(1),
                "read-only");
}

TEST(BuilderErrorsDeathTest, BadRegister)
{
    ProgramBuilder b("t");
    EXPECT_EXIT(b.add(40, 1, 2), ::testing::ExitedWithCode(1),
                "bad register");
}

TEST(BuilderErrorsDeathTest, DuplicateLabel)
{
    ProgramBuilder b("t");
    b.label("x");
    b.nop();
    EXPECT_EXIT(b.label("x"), ::testing::ExitedWithCode(1), "duplicate");
}

TEST(BuilderErrorsDeathTest, UndefinedLabel)
{
    ProgramBuilder b("t");
    b.beq("nowhere");
    b.halt();
    EXPECT_EXIT(b.build(), ::testing::ExitedWithCode(1), "undefined");
}

TEST(BuilderErrorsDeathTest, DoubleBuild)
{
    ProgramBuilder b("t");
    b.halt();
    b.build();
    EXPECT_EXIT(b.build(), ::testing::ExitedWithCode(1), "twice");
}

TEST(BuilderErrorsDeathTest, EmptyProgram)
{
    ProgramBuilder b("t");
    EXPECT_EXIT(b.build(), ::testing::ExitedWithCode(1),
                "no instructions");
}

TEST(ConfigErrorsDeathTest, CacheGeometry)
{
    // 3-way with a size that doesn't divide into power-of-two sets.
    CacheParams p{"bad", 1000, 3, 2, 4};
    EXPECT_EXIT(Cache c(p), ::testing::ExitedWithCode(1), "");
}

TEST(ConfigErrorsDeathTest, DramParams)
{
    DramParams p;
    p.bandwidthGiBps = -1.0;
    EXPECT_EXIT(Dram d(p), ::testing::ExitedWithCode(1), "positive");
}

TEST(ConfigErrorsDeathTest, SrfZeroRegs)
{
    EXPECT_EXIT(Srf srf(0, 16), ::testing::ExitedWithCode(1), "nonzero");
}

TEST(ConfigErrorsDeathTest, UnknownWorkload)
{
    EXPECT_EXIT(findWorkload("no-such-workload"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(ConfigErrorsDeathTest, ConfigNameUnknown)
{
    EXPECT_EXIT(presets::byName("bogus"), ::testing::ExitedWithCode(1),
                "unknown config");
}

// Historically the sweep tool fed these to std::stoul and died on an
// uncaught std::invalid_argument; they must be fatal() user errors.
TEST(ConfigErrorsDeathTest, ConfigNameSvrNonNumericWidth)
{
    EXPECT_EXIT(presets::byName("svrx"), ::testing::ExitedWithCode(1),
                "numeric vector length");
}

TEST(ConfigErrorsDeathTest, ConfigNameSvrMissingWidth)
{
    EXPECT_EXIT(presets::byName("svr"), ::testing::ExitedWithCode(1),
                "numeric vector length");
}

TEST(ConfigErrorsDeathTest, ConfigNameSvrTrailingGarbage)
{
    EXPECT_EXIT(presets::byName("svr16x"), ::testing::ExitedWithCode(1),
                "numeric vector length");
}

TEST(ConfigErrorsDeathTest, ConfigNameSvrZeroWidth)
{
    EXPECT_EXIT(presets::byName("svr0"), ::testing::ExitedWithCode(1),
                "vector length must be");
}

// validateConfig() throws structured SimErrors (not exit/abort), so a
// degenerate config is rejected before any run starts and a sweep can
// record it as a failed cell instead of dying.
void
expectConfigInvalid(const SimConfig &config, const char *substr)
{
    try {
        validateConfig(config);
        FAIL() << "expected SimError(ConfigInvalid) mentioning '"
               << substr << "'";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
        EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
            << "what() = " << e.what();
    }
}

TEST(ConfigValidation, AcceptsEveryPreset)
{
    EXPECT_NO_THROW(validateConfig(presets::inorder()));
    EXPECT_NO_THROW(validateConfig(presets::impCore()));
    EXPECT_NO_THROW(validateConfig(presets::outOfOrder()));
    EXPECT_NO_THROW(validateConfig(presets::svrCore(16)));
}

TEST(Presets, SimWindowParsesEnvStrictly)
{
    EXPECT_EQ(presets::parseSimWindow("20000"), 20000u);
    // Suffixes, signs and zero are rejected rather than silently
    // becoming some other window; simWindow() then warns once and
    // keeps the default (the tool_cli_window_warns_once ctest).
    for (const char *bad : {"20k", "-5", "0", "", " 20000"})
        EXPECT_FALSE(presets::parseSimWindow(bad).has_value()) << bad;
}

TEST(ConfigValidation, RejectsZeroWindow)
{
    SimConfig c = presets::inorder();
    c.maxInstructions = 0;
    expectConfigInvalid(c, "maxInstructions");
}

TEST(ConfigValidation, RejectsZeroCacheGeometry)
{
    SimConfig c = presets::inorder();
    c.mem.l1d.assoc = 0;
    expectConfigInvalid(c, "l1d");
    c = presets::inorder();
    c.mem.l2.sizeBytes = 0;
    expectConfigInvalid(c, "l2");
    c = presets::inorder();
    c.mem.l1i.numMshrs = 0;
    expectConfigInvalid(c, "l1i");
}

TEST(ConfigValidation, RejectsZeroOooWindow)
{
    SimConfig c = presets::outOfOrder();
    c.ooo.robSize = 0;
    expectConfigInvalid(c, "ROB");
}

TEST(ConfigValidation, RejectsBadDram)
{
    SimConfig c = presets::inorder();
    c.mem.dram.bandwidthGiBps = 0.0;
    expectConfigInvalid(c, "DRAM");
}

TEST(ConfigValidation, RejectsZeroWalkers)
{
    SimConfig c = presets::inorder();
    c.mem.translation.numWalkers = 0;
    expectConfigInvalid(c, "walkers");
}

TEST(ConfigValidation, RejectsDegenerateSvr)
{
    SimConfig c = presets::svrCore(16);
    c.svr.prmTimeout = 0;
    expectConfigInvalid(c, "PRM");
    c = presets::svrCore(16);
    c.svr.numSrfRegs = 0;
    expectConfigInvalid(c, "SRF");
    c = presets::svrCore(16);
    c.svr.svuWidth = 0;
    expectConfigInvalid(c, "SVU");
}

TEST(ConfigValidation, SvrFieldsIgnoredOnNonSvrCores)
{
    // A zeroed SVR block must not reject an in-order run that never
    // constructs the engine.
    SimConfig c = presets::inorder();
    c.svr.prmTimeout = 0;
    EXPECT_NO_THROW(validateConfig(c));
}

TEST(ConfigErrors, ByNameParsesValidNames)
{
    EXPECT_EQ(presets::byName("ino").label, "InO");
    EXPECT_EQ(presets::byName("imp").label, "IMP");
    EXPECT_EQ(presets::byName("ooo").label, "OoO");
    const SimConfig c = presets::byName("svr32");
    EXPECT_EQ(c.label, "SVR32");
    EXPECT_EQ(c.svr.vectorLength, 32u);
}

} // namespace
} // namespace svr
