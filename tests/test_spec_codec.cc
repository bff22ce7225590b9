/**
 * @file
 * Spec codec tests: the parseSpec(serializeSpec(s)) == s round-trip
 * invariant across representative specs, encoding stability, golden
 * specKey values (so an accidental encoding change fails CI instead
 * of silently orphaning every existing cache directory), and strict
 * rejection of malformed documents.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/governors.hh"
#include "exp/spec_codec.hh"
#include "soc/op_point.hh"
#include "workloads/battery.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

/** A cell exercising every serialized field group. */
exp::ExperimentSpec
richSpec()
{
    exp::ExperimentSpec spec;
    spec.id = "rich/\"cell\" with\nnewline";
    spec.soc = soc::skylakeDdr4Config(7.5);
    spec.workload = workloads::videoPlayback();
    spec.governor = "ondemand";
    spec.governorParams = {{"up", "0.70"}, {"stall-gate", "1.5e6"}};
    spec.seed = 42;
    spec.warmup = 12 * kTicksPerMs;
    spec.window = 345 * kTicksPerMs;
    spec.hdPanel = false;
    spec.camera = true;
    spec.pinnedCoreFreq = 1.3 * kGHz;
    const soc::OpPointTable table(spec.soc);
    spec.pinnedOpPoint = table.low();
    spec.pinnedUnoptimizedMrc = true;
    spec.scenario = workloads::scenarioByName("videoconf");
    spec.labels = {{"workload", "video-playback"},
                   {"note", "tab\there"}};
    return spec;
}

std::vector<exp::ExperimentSpec>
roundTripCorpus()
{
    std::vector<exp::ExperimentSpec> corpus;

    exp::ExperimentSpec plain;
    plain.id = "plain";
    plain.workload = workloads::streamMicro();
    corpus.push_back(plain);

    corpus.push_back(richSpec());

    exp::ExperimentSpec broadwell;
    broadwell.id = "broadwell";
    broadwell.soc = soc::broadwellConfig();
    broadwell.workload = workloads::specBenchmark("470.lbm");
    broadwell.governor = "collect";
    broadwell.pinnedCoreFreq = 1.2 * kGHz;
    corpus.push_back(broadwell);

    // Default-constructed spec: empty workload, no labels.
    corpus.push_back(exp::ExperimentSpec{});

    // Every registered scenario, over an ordinary base workload.
    for (const std::string &name : workloads::scenarioNames()) {
        exp::ExperimentSpec cell;
        cell.id = "scenario/" + name;
        cell.workload = workloads::streamMicro();
        cell.scenario = workloads::scenarioByName(name);
        corpus.push_back(std::move(cell));
    }

    // Parameterized governors: values may carry '=' -free keys with
    // '@' payloads (the userspace schedule syntax) and must survive
    // the round trip in declaration order.
    exp::ExperimentSpec params;
    params.id = "params/userspace";
    params.workload = workloads::streamMicro();
    params.governor = "userspace";
    params.governorParams = {{"at", "0@0"},
                             {"at", "40@1"},
                             {"point", "1"}};
    corpus.push_back(std::move(params));

    // A scenario-only cell: no base workload, layers carry the work.
    exp::ExperimentSpec layered;
    layered.id = "layers-only";
    layered.scenario.layers.push_back(workloads::ScenarioLayer{
        workloads::videoPlayback(), 5 * kTicksPerMs,
        900 * kTicksPerMs});
    corpus.push_back(std::move(layered));
    return corpus;
}

} // anonymous namespace

TEST(Fnv1a64, KnownVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(exp::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(exp::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(exp::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(SpecCodec, RoundTripIsExact)
{
    for (const exp::ExperimentSpec &spec : roundTripCorpus()) {
        const std::string text = exp::serializeSpec(spec);
        const exp::ExperimentSpec back = exp::parseSpec(text);
        EXPECT_TRUE(back == spec) << spec.id;
        // And the reserialization is byte-identical.
        EXPECT_EQ(exp::serializeSpec(back), text) << spec.id;
    }
}

TEST(SpecCodec, EncodingIsStable)
{
    const exp::ExperimentSpec spec = richSpec();
    EXPECT_EQ(exp::serializeSpec(spec), exp::serializeSpec(spec));
    EXPECT_EQ(exp::specKey(spec), exp::specKey(spec));
}

TEST(SpecCodec, HeaderCarriesFormatVersion)
{
    const std::string text =
        exp::serializeSpec(exp::ExperimentSpec{});
    EXPECT_EQ(text.rfind("sysscale-spec v6\n", 0), 0u)
        << "bump this test AND the golden keys together with "
           "kSpecFormatVersion";
}

/**
 * Documents from every previous format version must be rejected
 * loudly — never parsed into a current spec. Through the cache this
 * means every stale entry degrades to a miss (and is re-simulated),
 * never a wrong hit.
 */
TEST(SpecCodec, RejectsStaleVersionDocuments)
{
    const std::string text =
        exp::serializeSpec(exp::ExperimentSpec{});
    const std::string header =
        "sysscale-spec v" + std::to_string(exp::kSpecFormatVersion) +
        "\n";
    ASSERT_EQ(text.rfind(header, 0), 0u);
    for (int v = 1; v < exp::kSpecFormatVersion; ++v) {
        std::string stale = text;
        stale.replace(0, header.size(),
                      "sysscale-spec v" + std::to_string(v) + "\n");
        EXPECT_THROW((void)exp::parseSpec(stale),
                     std::invalid_argument)
            << "v" << v;
    }
}

TEST(SpecCodec, KeyIgnoresPinnedOpPointName)
{
    exp::ExperimentSpec a = richSpec();
    exp::ExperimentSpec b = a;
    b.pinnedOpPoint->name = "renamed-point";
    // OperatingPoint::operator== ignores the name, so equal specs
    // must share a cache key — and the full encoding still
    // round-trips the name for auditability.
    EXPECT_TRUE(a == b);
    EXPECT_EQ(exp::specKey(a), exp::specKey(b));
    EXPECT_EQ(exp::parseSpec(exp::serializeSpec(b))
                  .pinnedOpPoint->name,
              "renamed-point");
}

TEST(SpecCodec, KeyIgnoresIdAndLabels)
{
    exp::ExperimentSpec a;
    a.id = "cell-a";
    a.workload = workloads::streamMicro();
    a.labels = {{"k", "v"}};
    exp::ExperimentSpec b = a;
    b.id = "renamed";
    b.labels = {{"other", "labels"}};
    EXPECT_EQ(exp::specKey(a), exp::specKey(b));
    EXPECT_NE(exp::serializeSpec(a), exp::serializeSpec(b));
    EXPECT_EQ(exp::canonicalSpec(a), exp::canonicalSpec(b));
}

TEST(SpecCodec, KeySeparatesSimulationInputs)
{
    exp::ExperimentSpec base;
    base.workload = workloads::streamMicro();
    const std::string key = exp::specKey(base);

    exp::ExperimentSpec seed = base;
    seed.seed = 2;
    EXPECT_NE(exp::specKey(seed), key);

    exp::ExperimentSpec tdp = base;
    tdp.soc.tdp = 7.0;
    EXPECT_NE(exp::specKey(tdp), key);

    exp::ExperimentSpec gov = base;
    gov.governor = "sysscale";
    EXPECT_NE(exp::specKey(gov), key);

    exp::ExperimentSpec window = base;
    window.window = base.window + 1;
    EXPECT_NE(exp::specKey(window), key);

    exp::ExperimentSpec wl = base;
    wl.workload = workloads::spinMicro();
    EXPECT_NE(exp::specKey(wl), key);

    // The scenario is a simulation input: layers and actions (and
    // their timing) must all separate keys.
    exp::ExperimentSpec scen = base;
    scen.scenario = workloads::scenarioByName("thermal-step");
    EXPECT_NE(exp::specKey(scen), key);

    exp::ExperimentSpec shifted = scen;
    shifted.scenario.actions[0].at += 1;
    EXPECT_NE(exp::specKey(shifted), exp::specKey(scen));

    exp::ExperimentSpec layered = base;
    layered.scenario.layers.push_back(workloads::ScenarioLayer{
        workloads::videoPlayback(), 0, 0});
    EXPECT_NE(exp::specKey(layered), key);
}

/**
 * Golden keys: these change exactly when the canonical encoding (or
 * anything it encodes) changes. That must be a deliberate act — bump
 * kSpecFormatVersion, re-bake these constants, and expect existing
 * cache directories to go stale (docs/EXPERIMENTS.md).
 */
TEST(SpecCodec, GoldenKeys)
{
    exp::ExperimentSpec stream;
    stream.id = "golden-a";
    stream.workload = workloads::streamMicro();
    EXPECT_EQ(exp::specKey(stream), "3b459bfd9e183161");

    exp::ExperimentSpec rich = richSpec();
    EXPECT_EQ(exp::specKey(rich), "77d39e8b1856434e");
}

TEST(SpecCodec, SerializableOnlyWithoutRuntimeHooks)
{
    exp::ExperimentSpec spec;
    spec.workload = workloads::streamMicro();
    EXPECT_TRUE(exp::isSerializableSpec(spec));

    exp::ExperimentSpec factory = spec;
    factory.governorFactory = [] {
        return std::unique_ptr<core::Governor>(
            std::make_unique<core::FixedGovernor>());
    };
    EXPECT_FALSE(exp::isSerializableSpec(factory));

    // A factory that builds no governor (collect) is still a hook.
    exp::ExperimentSpec collect = spec;
    collect.governorFactory = [] {
        return std::unique_ptr<core::Governor>();
    };
    EXPECT_FALSE(exp::isSerializableSpec(collect));
}

TEST(SpecCodec, RejectsMalformedDocuments)
{
    const std::string good =
        exp::serializeSpec(exp::ExperimentSpec{});

    EXPECT_THROW((void)exp::parseSpec(""), std::invalid_argument);
    EXPECT_THROW((void)exp::parseSpec("sysscale-spec v999\n"),
                 std::invalid_argument);
    EXPECT_THROW((void)exp::parseSpec(good + "mystery = 1\n"),
                 std::invalid_argument);
    EXPECT_THROW((void)exp::parseSpec(good + "seed = 1\n"),
                 std::invalid_argument); // duplicate key
    EXPECT_THROW((void)exp::parseSpec(good + "no separator\n"),
                 std::invalid_argument);

    // Corrupt one numeric value in place.
    std::string bad_number = good;
    const std::string needle = "seed = ";
    const std::size_t at = bad_number.find(needle);
    ASSERT_NE(at, std::string::npos);
    bad_number.replace(at + needle.size(), 1, "x");
    EXPECT_THROW((void)exp::parseSpec(bad_number),
                 std::invalid_argument);
}

namespace {

/** Replace the value of @p key in a serialized spec document. */
std::string
rewriteField(std::string text, const std::string &key,
             const std::string &value)
{
    const std::string needle = key + " = ";
    const std::size_t at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t eol = text.find('\n', at);
    text.replace(at, eol - at, needle + value);
    return text;
}

} // anonymous namespace

/**
 * Field values the model's own constructors treat as fatal (process
 * exit) must come back as throws from parseSpec, or a corrupt cache
 * entry could take a whole sweep down instead of missing.
 */
TEST(SpecCodec, RejectsFatalFieldValuesWithThrows)
{
    exp::ExperimentSpec spec;
    spec.workload = workloads::streamMicro();
    const std::string text = exp::serializeSpec(spec);

    // Residencies that do not sum to 1.
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "phase.0.residency",
                     "0.5 0.1 0.1 0.1 0.1")),
                 std::invalid_argument);
    // Negative residency fraction (sums to 1).
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "phase.0.residency",
                     "-0.5 1.5 0 0 0")),
                 std::invalid_argument);
    // Zero-length phase.
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "phase.0.duration", "0")),
                 std::invalid_argument);
    // Perf scalability outside [0, 1] — including NaN, which fails
    // every ordinary comparison.
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "workload.perf_scalability", "1.5")),
                 std::invalid_argument);
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "workload.perf_scalability", "nan")),
                 std::invalid_argument);
    // NaN residencies sail through sign and sum checks unless the
    // comparisons are written NaN-safe.
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "phase.0.residency",
                     "nan nan nan nan nan")),
                 std::invalid_argument);
    // Negative integers must not wrap through strtoull.
    EXPECT_THROW((void)exp::parseSpec(
                     rewriteField(text, "seed", "-1")),
                 std::invalid_argument);
    EXPECT_THROW((void)exp::parseSpec(
                     rewriteField(text, "soc.cores", "-2")),
                 std::invalid_argument);
}

TEST(SpecCodec, RejectsMalformedScenarios)
{
    exp::ExperimentSpec spec;
    spec.workload = workloads::streamMicro();
    spec.scenario = workloads::scenarioByName("thermal-step");
    const std::string text = exp::serializeSpec(spec);

    // Unknown action kind, garbled fields, wrong arity.
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "scenario.action.0", "0 melt_chip 1")),
                 std::invalid_argument);
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "scenario.action.0", "x set_tdp 3.5")),
                 std::invalid_argument);
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "scenario.action.0", "0 set_tdp 3.5 junk")),
                 std::invalid_argument);
    // Runtime-fatal values: non-positive TDP steps, unsorted times
    // (action 0 moved after action 1).
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     text, "scenario.action.0", "0 set_tdp 0")),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)exp::parseSpec(rewriteField(
            text, "scenario.action.0", "99999999999999 set_tdp 3.5")),
        std::invalid_argument);

    // A scenario layer may never be phase-less.
    exp::ExperimentSpec layered;
    layered.workload = workloads::streamMicro();
    layered.scenario.layers.push_back(workloads::ScenarioLayer{
        workloads::videoPlayback(), 0, 0});
    const std::string ltext = exp::serializeSpec(layered);
    EXPECT_THROW((void)exp::parseSpec(rewriteField(
                     ltext, "scenario.layer.0.phases", "0")),
                 std::invalid_argument);
}
