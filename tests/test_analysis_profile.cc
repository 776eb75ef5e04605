/**
 * @file
 * The split offline analysis: shakeTrace() (target-independent, one
 * interval at a time, sharded over a pool) followed by cluster() per
 * dilation target must reproduce the serial build -> shake -> cluster
 * pipeline exactly, for any pool size; the shaker's radix order must
 * be the std::stable_sort permutation; and an analysis error in the
 * matrix must fail the schedule-replay legs and nothing else.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "fault/fault_plan.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

/** The full-detail profiling trace of one benchmark, once per test. */
const std::vector<InstTrace> &
profilingTrace(const std::string &bench)
{
    static std::map<std::string, std::vector<InstTrace>> traces;
    auto it = traces.find(bench);
    if (it == traces.end()) {
        SimConfig cfg;
        cfg.collectTrace = true;
        McdProcessor proc(cfg, workloads::build(bench, 1));
        proc.run();
        it = traces.emplace(bench, proc.takeTrace()).first;
    }
    return it->second;
}

/** The pre-split analysis up to the histograms: every DAG built up
 *  front, then shaken in one serial sweep. */
struct SerialShake
{
    std::vector<IntervalHistos> histos;
    std::size_t eventsTotal = 0;
    double slackConsumed = 0.0;
};

SerialShake
serialShake(const std::vector<InstTrace> &trace, const AnalyzerConfig &ac)
{
    SerialShake out;
    std::vector<IntervalGraph> graphs =
        buildIntervalGraphs(trace, ac.graph);
    for (IntervalGraph &g : graphs) {
        out.eventsTotal += g.size();
        ShakeResult sr = shake(g, ac.shaker, ac.clustering.fmax,
                               ac.clustering.fmin);
        out.slackConsumed += sr.slackConsumed;
        out.histos.push_back(
            {g.intervalStart, g.intervalEnd, sr.histogram});
    }
    return out;
}

/** ...and clustered for one target. */
AnalysisResult
serialCluster(const SerialShake &shaken, const ClusteringConfig &cfg)
{
    AnalysisResult out;
    ClusterResult cr = ClusterPhase(cfg).run(shaken.histos);
    out.schedule = std::move(cr.schedule);
    out.plans = std::move(cr.plans);
    out.intervals = shaken.histos.size();
    out.eventsTotal = shaken.eventsTotal;
    out.slackConsumed = shaken.slackConsumed;
    return out;
}

void
expectSameAnalysis(const AnalysisResult &a, const AnalysisResult &b)
{
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(a.eventsTotal, b.eventsTotal);
    EXPECT_EQ(a.slackConsumed, b.slackConsumed);
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t i = 0; i < a.schedule.size(); ++i) {
        const ReconfigEntry &x = a.schedule.all()[i];
        const ReconfigEntry &y = b.schedule.all()[i];
        EXPECT_EQ(x.when, y.when) << "entry " << i;
        EXPECT_EQ(x.domain, y.domain) << "entry " << i;
        EXPECT_EQ(x.frequency, y.frequency) << "entry " << i;
    }
    for (int d = 0; d < numDomains; ++d) {
        ASSERT_EQ(a.plans[d].size(), b.plans[d].size()) << "domain " << d;
        for (std::size_t i = 0; i < a.plans[d].size(); ++i) {
            EXPECT_EQ(a.plans[d][i].start, b.plans[d][i].start);
            EXPECT_EQ(a.plans[d][i].end, b.plans[d][i].end);
            EXPECT_EQ(a.plans[d][i].frequency, b.plans[d][i].frequency);
        }
    }
}

// ------------------------------------------------------- split == serial

TEST(AnalysisProfile, ClusterOfShakenProfileMatchesSerialPipeline)
{
    ThreadPool serial(0);
    for (const char *bench : {"gcc", "mst"}) {
        const std::vector<InstTrace> &trace = profilingTrace(bench);
        const AnalyzerConfig base;
        const SerialShake ref = serialShake(trace, base);
        const ShakenProfile profile =
            shakeTrace(trace, base.graph, base.shaker,
                       base.clustering.fmax, base.clustering.fmin, serial);
        ASSERT_GT(profile.intervals.size(), 1u) << bench;
        for (DvfsKind model : {DvfsKind::XScale, DvfsKind::Transmeta}) {
            for (double d : {0.01, 0.05}) {
                SCOPED_TRACE(std::string(bench) + " " +
                             dvfsKindName(model) + " d=" +
                             std::to_string(d));
                const AnalyzerConfig ac =
                    OfflineAnalyzer::configFor(d, model);
                const AnalysisResult expect =
                    serialCluster(ref, ac.clustering);
                EXPECT_GT(expect.schedule.size(), 0u);
                expectSameAnalysis(cluster(profile, ac.clustering),
                                   expect);
            }
        }
        // The façade is the same two halves.
        const AnalyzerConfig ac =
            OfflineAnalyzer::configFor(0.05, DvfsKind::Transmeta);
        expectSameAnalysis(OfflineAnalyzer(ac).analyze(trace),
                           serialCluster(ref, ac.clustering));
    }
}

TEST(AnalysisProfile, ProfileIsIdenticalForEveryPoolSize)
{
    const std::vector<InstTrace> &trace = profilingTrace("gcc");
    const AnalyzerConfig ac;
    auto profileOn = [&](unsigned workers) {
        ThreadPool pool(workers);
        return shakeTrace(trace, ac.graph, ac.shaker, ac.clustering.fmax,
                          ac.clustering.fmin, pool);
    };
    const ShakenProfile inlined = profileOn(0);
    const ShakenProfile sharded = profileOn(4);
    ASSERT_EQ(inlined.intervals.size(), sharded.intervals.size());
    EXPECT_EQ(std::memcmp(inlined.intervals.data(),
                          sharded.intervals.data(),
                          inlined.intervals.size() *
                              sizeof(IntervalHistos)),
              0);
    EXPECT_EQ(inlined.eventsTotal, sharded.eventsTotal);
    EXPECT_EQ(std::memcmp(&inlined.slackConsumed, &sharded.slackConsumed,
                          sizeof(double)),
              0);
}

TEST(AnalysisProfile, EmptyTraceGivesEmptyProfile)
{
    ThreadPool pool(2);
    const AnalyzerConfig ac;
    const ShakenProfile p =
        shakeTrace({}, ac.graph, ac.shaker, ac.clustering.fmax,
                   ac.clustering.fmin, pool);
    EXPECT_TRUE(p.intervals.empty());
    EXPECT_EQ(p.eventsTotal, 0u);
    EXPECT_EQ(cluster(p, ac.clustering).schedule.size(), 0u);
}

// ------------------------------------------------------------ radix order

/** Random values in [0, range), many of them tied, in a random
 *  starting order of event ids. */
struct RandomInput
{
    std::vector<std::uint64_t> value;
    std::vector<std::int32_t> start;
};

RandomInput
randomInput(Rng &rng, std::size_t n, std::uint64_t range)
{
    RandomInput in;
    for (std::size_t i = 0; i < n; ++i) {
        in.value.push_back(rng.next() % range);
        in.start.push_back(static_cast<std::int32_t>(i));
    }
    for (std::size_t i = n; i > 1; --i)
        std::swap(in.start[i - 1], in.start[rng.next() % i]);
    return in;
}

std::vector<std::int32_t>
radixOrder(const RandomInput &in, bool descending)
{
    std::uint64_t hi = 0;
    for (std::uint64_t v : in.value)
        hi = std::max(hi, v);
    std::vector<OrderSlot> slots;
    for (std::int32_t e : in.start)
        slots.push_back({descending ? hi - in.value[e] : in.value[e], e});
    std::vector<OrderSlot> scratch;
    radixSort(slots, scratch);
    std::vector<std::int32_t> out;
    for (const OrderSlot &s : slots)
        out.push_back(s.event);
    return out;
}

std::vector<std::int32_t>
stableOrder(const RandomInput &in, bool descending)
{
    std::vector<std::int32_t> out = in.start;
    std::stable_sort(out.begin(), out.end(),
                     [&](std::int32_t a, std::int32_t b) {
                         return descending ? in.value[a] > in.value[b]
                                           : in.value[a] < in.value[b];
                     });
    return out;
}

TEST(RadixOrder, MatchesStableSortWithHeavyTies)
{
    Rng rng(0x5eed);
    // Ranges from "almost all tied" to multi-digit keys, including a
    // power of 256 (a digit every key shares) and full 64-bit keys.
    const std::uint64_t ranges[] = {1, 2, 7, 256, 1000, 65536,
                                    std::uint64_t(1) << 40, ~0ull};
    for (std::size_t n : {0, 1, 2, 17, 1000, 20000}) {
        for (std::uint64_t range : ranges) {
            RandomInput in = randomInput(rng, n, range);
            for (bool descending : {false, true}) {
                SCOPED_TRACE("n=" + std::to_string(n) + " range=" +
                             std::to_string(range) +
                             (descending ? " descending" : " ascending"));
                EXPECT_EQ(radixOrder(in, descending),
                          stableOrder(in, descending));
            }
        }
    }
}

TEST(RadixOrder, SharedHighDigitsAreSkippedWithoutReordering)
{
    // Every key carries the same bits above the low digit, so only
    // the low digit moves anything.
    std::vector<OrderSlot> slots;
    for (std::int32_t e = 0; e < 600; ++e)
        slots.push_back({(0xabcdull << 16) | ((e * 37) % 5), e});
    std::vector<OrderSlot> expect = slots;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const OrderSlot &a, const OrderSlot &b) {
                         return a.key < b.key;
                     });
    std::vector<OrderSlot> scratch;
    radixSort(slots, scratch);
    ASSERT_EQ(slots.size(), expect.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        EXPECT_EQ(slots[i].event, expect[i].event);
        EXPECT_EQ(slots[i].key, expect[i].key);
    }
}

// --------------------------------------------------- analysis error in a matrix

TEST(AnalysisProfile, AnalysisErrorFailsOnlyTheReplayLegs)
{
    ExperimentConfig ec;
    // The global search matches the controller leg, so no leg but the
    // two replays depends on the offline analysis.
    ec.legs = {LegSpec::scheduleReplay("dyn1", 0.01),
               LegSpec::scheduleReplay("dyn5", 0.05),
               LegSpec::globalSearch("global", "online"),
               LegSpec::controllerLeg("online", "online-queue")};
    ec.faults = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::parse("leg:adpcm/mcdBaseline/analyze=throw"));

    for (int jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::vector<BenchmarkResults> rows = runMatrix(ec, {"adpcm"}, jobs);
        ASSERT_EQ(rows.size(), 1u);
        const BenchmarkResults &r = rows[0];
        for (const char *leg : {"dyn1", "dyn5"}) {
            const RunResult &run = r.leg(leg);
            ASSERT_TRUE(run.failed()) << leg;
            EXPECT_EQ(run.error->kind, "injected");
            EXPECT_EQ(run.error->site, std::string("adpcm/") + leg);
            EXPECT_NE(run.error->message.find("mcdBaseline/analyze"),
                      std::string::npos);
        }
        EXPECT_EQ(r.failedLegs(), 2u);
        EXPECT_FALSE(r.baseline.failed());
        EXPECT_FALSE(r.mcdBaseline.failed());
        EXPECT_GT(r.leg("online").committed, 0u);
        EXPECT_GT(r.leg("global").committed, 0u);
        EXPECT_EQ(matrixExitCode(rows), exitPartialFailure);
    }
}

TEST(AnalysisProfile, MatrixWithoutReplayLegsKeepsMcdBaseline)
{
    // Without a schedule-replay leg the profiling run collects no
    // trace; it must still simulate exactly the same run.
    ExperimentConfig withReplay;
    withReplay.legs = {LegSpec::scheduleReplay("dyn5", 0.05),
                       LegSpec::controllerLeg("online", "online-queue")};
    ExperimentConfig controllersOnly;
    controllersOnly.legs = {
        LegSpec::controllerLeg("online", "online-queue")};
    const RunResult a = runMatrix(withReplay, {"adpcm"}, 1)[0].mcdBaseline;
    const RunResult b =
        runMatrix(controllersOnly, {"adpcm"}, 1)[0].mcdBaseline;
    ASSERT_FALSE(a.failed());
    ASSERT_FALSE(b.failed());
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.energyDelay, b.energyDelay);
    EXPECT_EQ(a.bpredLookups, b.bpredLookups);
    for (int d = 0; d < numDomains; ++d) {
        EXPECT_EQ(a.domains[d].cycles, b.domains[d].cycles);
        EXPECT_EQ(a.domains[d].energy, b.domains[d].energy);
    }
}

} // namespace
} // namespace mcd
