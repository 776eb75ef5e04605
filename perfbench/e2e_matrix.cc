/**
 * @file
 * End-to-end matrix benchmark program (perfbench/README.md).
 *
 * Three modes, all selected by perfbench/run.py:
 *
 *  - setup:   run runMatrix() with every leg stopped at its start and
 *             print the steady clock at which the first leg opened
 *             (the caller times process start to first leg);
 *  - measure: run runMatrix() untraced, repeatedly, for about the
 *             requested seconds and report the end-to-end metrics;
 *  - trace:   rebuild the matrix from each layer's public calls with
 *             a span around every call, check that the rebuilt results
 *             document is byte-identical to the ones untraced
 *             runMatrix() runs write, and report the per-layer
 *             metrics.
 *
 * The rebuild mirrors ExperimentRunner::runBenchmark() leg by leg; it
 * runs serially so that per-layer self times add up to its wall time.
 * The pool metrics then replay runBenchmark()'s task graph with the
 * traced durations.
 *
 * The last stdout line is one JSON object: {"ok", "attempted",
 * "failed", "metrics": {name: [value, unit]}}; everything else goes
 * to stderr, except "digest" lines.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.hh"
#include "config/registry.hh"
#include "config/runspec.hh"
#include "control/registry.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "isa/executor.hh"
#include "obs/host_prof.hh"
#include "workloads/workloads.hh"

using namespace mcd;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fnv1a(const void *data, std::size_t len,
      std::uint64_t h = 1469598103934665603ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** One benchmark workload: a matrix shape. */
struct Workload
{
    const char *name;
    std::vector<std::string> benches;
    int scale;
    int jobs;               //!< 0 = one worker per hardware thread
    bool controllersOnly;   //!< controller legs instead of the paper's
};

const std::vector<Workload> &
workloadTable()
{
    static const std::vector<Workload> table = {
        {"matrix-throughput", {"adpcm", "mst", "gcc", "swim"}, 1, 1, false},
        {"matrix-latency", {"gcc"}, 4, 0, false},
        {"controllers", {"adpcm", "mst", "gcc", "swim"}, 1, 1, true},
        // Tiny input for run.py --self-test; not a measured workload.
        {"selftest", {"adpcm"}, 1, 1, false},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloadTable()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

int
jobsFor(const Workload &w)
{
    if (w.jobs > 0)
        return w.jobs;
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

/** The matrix configuration: cache off, seed from the command line. */
ExperimentConfig
makeConfig(const Workload &w, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.scale = w.scale;
    cfg.seed = seed;
    cfg.cacheDir.clear();
    if (w.controllersOnly) {
        for (const char *c : {"online-queue", "pid", "governor-ondemand",
                              "governor-conservative", "table"})
            cfg.legs.push_back(LegSpec::controllerLeg(c, c));
    } else {
        cfg.legs = defaultLegs(cfg);
    }
    return cfg;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * Digest of a results document with the effectiveConfig provenance
 * block left out, so runs of one commit compare equal however the
 * configuration was supplied.
 */
std::uint64_t
resultsDigest(const std::string &doc)
{
    std::uint64_t h = fnv1a("", 0);
    std::istringstream is(doc);
    std::string line;
    bool skipping = false;
    while (std::getline(is, line)) {
        if (skipping) {
            skipping = line.find('}') == std::string::npos;
            continue;
        }
        if (line.find("\"provenance\": {") != std::string::npos) {
            skipping = line.find('}') == std::string::npos;
            continue;
        }
        line += '\n';
        h = fnv1a(line.data(), line.size(), h);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Peak resident memory of this process so far, MiB. */
double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Committed instructions over every reported leg (no global probes). */
double
reportedMinst(const std::vector<BenchmarkResults> &rows)
{
    double committed = 0.0;
    for (const BenchmarkResults &r : rows) {
        committed += static_cast<double>(r.baseline.committed +
                                         r.mcdBaseline.committed);
        for (const ControllerLeg &l : r.legs)
            committed += static_cast<double>(l.run.committed);
    }
    return committed / 1e6;
}

/**
 * Simulated-time design results (unvalidated model), as percentages of
 * the singly clocked baseline: energy, execution time and
 * energy-delay product averaged over every dynamic leg and benchmark,
 * and the mcdBaseline slowdown (synchronization cost). Savings,
 * degradation and EDP improvement are 100 minus / minus 100 these.
 */
struct Design
{
    double energyPct = 0.0;
    double timePct = 0.0;
    double edpPct = 0.0;
    double syncOverheadPct = 0.0;

    bool operator==(const Design &) const = default;
};

Design
designOf(const std::vector<BenchmarkResults> &rows)
{
    double savings = 0.0;
    double degradation = 0.0;
    double edpGain = 0.0;
    double sync = 0.0;
    std::size_t legs = 0;
    std::size_t benches = 0;
    for (const BenchmarkResults &r : rows) {
        if (r.baseline.failed())
            continue;
        if (!r.mcdBaseline.failed()) {
            sync += r.perfDegradation(r.mcdBaseline);
            ++benches;
        }
        for (const ControllerLeg &l : r.legs) {
            if (l.run.failed())
                continue;
            savings += r.energySavings(l.run);
            degradation += r.perfDegradation(l.run);
            edpGain += r.edpImprovement(l.run);
            ++legs;
        }
    }
    auto mean = [](double sum, std::size_t n) {
        return n ? sum / static_cast<double>(n) : 0.0;
    };
    Design d;
    d.energyPct = 100.0 * (1.0 - mean(savings, legs));
    d.timePct = 100.0 * (1.0 + mean(degradation, legs));
    d.edpPct = 100.0 * (1.0 - mean(edpGain, legs));
    d.syncOverheadPct = 100.0 * mean(sync, benches);
    return d;
}

/** Operations attempted and failed, for the "failed" counts. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }

    /** One operation per leg, then one for the matrix exit code. */
    void
    matrix(const std::vector<BenchmarkResults> &rows)
    {
        for (const BenchmarkResults &r : rows) {
            attempted += r.totalLegs();
            failed += r.failedLegs();
        }
        check(matrixExitCode(rows) == exitOk, "matrix exit code is 0");
    }
};

/** One metric row of the output object. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(Ops ops, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        ops.check(std::isfinite(m.value), m.name + " is finite");
    std::printf("{\"ok\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ops.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": [%.17g, \"%s\"]", i ? ", " : "",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

/** Untraced runMatrix() writing its results document to @p docPath. */
std::vector<BenchmarkResults>
runMatrixTo(const ExperimentConfig &cfg, const Workload &w, int jobs,
            const std::string &docPath, double &wallMs)
{
    config::setFlagOverride("resultsJson", docPath);
    auto t0 = Clock::now();
    std::vector<BenchmarkResults> rows = runMatrix(cfg, w.benches, jobs);
    wallMs = msSince(t0);
    config::clearFlagOverrides();
    return rows;
}

/**
 * Machine yardstick: the functional executor over g721 at scale 1,
 * code this benchmark never changes. Median of repeated runs, ms.
 */
double
yardstickMs(Ops &ops)
{
    const Program prog = workloads::build("g721", 1);
    std::vector<double> ms;
    std::uint64_t checksum = 0;
    auto t0 = Clock::now();
    while (ms.size() < 7 || (ms.size() < 41 && msSince(t0) < 400.0)) {
        auto t = Clock::now();
        Executor ex(prog);
        while (!ex.halted())
            ex.step();
        ms.push_back(msSince(t));
        if (ms.size() == 1)
            checksum = ex.intReg(checksumReg);
        else if (ex.intReg(checksumReg) != checksum)
            ops.check(false, "yardstick checksum repeats");
    }
    return median(ms);
}

// ------------------------------------------------------------------
// setup and measure modes

/**
 * Steady-clock time, ns, at which runMatrix() opened its first leg.
 * The host profiler records phases relative to an epoch it sets inside
 * runMatrix(); one more phase opened at a known time afterwards places
 * that epoch on the steady clock.
 */
long long
firstLegNs(Ops &ops)
{
    obs::HostProfiler &prof = obs::HostProfiler::instance();
    const auto before = Clock::now();
    { obs::HostProfiler::Scope marker = prof.phase("perfbench.marker"); }
    const auto after = Clock::now();
    std::ostringstream os;
    prof.writeProfile(os);

    // One Chrome-trace event per line: {"name": "<kind>", ..., "ts": <us>
    double firstLegUs = INFINITY;
    double markerUs = NAN;
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
        std::size_t ts = line.find("\"ts\": ");
        if (ts == std::string::npos)
            continue;
        const double us = std::strtod(line.c_str() + ts + 6, nullptr);
        if (line.find("{\"name\": \"simulate\"") != std::string::npos)
            firstLegUs = std::min(firstLegUs, us);
        else if (line.find("{\"name\": \"perfbench.marker\"") !=
                 std::string::npos)
            markerUs = us;
    }
    ops.check(std::isfinite(firstLegUs) && std::isfinite(markerUs),
              "host profile records the first leg");
    const auto markerNs = std::chrono::duration_cast<
        std::chrono::nanoseconds>((before + (after - before) / 2)
                                  .time_since_epoch()).count();
    return markerNs + std::llround((firstLegUs - markerUs) * 1000.0);
}

/**
 * runMatrix() from process start to its first leg, on the workload's
 * real path: config resolution, validation, the runner, the pool and
 * the first workloads::build. Every leg is armed to throw as it
 * starts, so the matrix stops right there; the host profiler, armed
 * through profOut, records when the first leg opened.
 */
int
setupMode(const Workload &w, std::uint64_t seed, const std::string &outDir)
{
    ExperimentConfig cfg = makeConfig(w, seed);
    std::string plan;
    for (const std::string &b : w.benches) {
        plan += "leg:" + b + "/baseline=throw;leg:" + b +
            "/mcdBaseline=throw;";
        for (const LegSpec &l : cfg.legs)
            plan += "leg:" + b + "/" + l.name + "=throw;";
    }
    config::setFlagOverride("faultPlan", plan);
    config::setFlagOverride("profOut", outDir + "/setup-profile.json");
    std::vector<BenchmarkResults> rows =
        runMatrix(cfg, w.benches, jobsFor(w));
    config::clearFlagOverrides();

    Ops ops;
    for (const BenchmarkResults &r : rows) {
        ops.check(r.failedLegs() == r.totalLegs(),
                  r.name + ": every leg stopped at its start");
    }
    const long long ns = firstLegNs(ops);
    if (ops.failed)
        return 1;
    std::printf("first_leg_ns %lld\n", ns);
    return 0;
}

int
measureMode(const Workload &w, std::uint64_t seed, double seconds,
            const std::string &outDir)
{
    Ops ops;
    const ExperimentConfig cfg = makeConfig(w, seed);
    const int jobs = jobsFor(w);
    const std::string docPath = outDir + "/results.json";

    std::vector<double> wallS;
    std::vector<double> minstPerS;
    double rssMiB = 0.0;
    std::uint64_t firstDigest = 0;
    Design design;
    std::size_t iterations = 1;
    for (std::size_t i = 0; i < iterations; ++i) {
        double wallMs = 0.0;
        std::vector<BenchmarkResults> rows =
            runMatrixTo(cfg, w, jobs, docPath, wallMs);
        ops.matrix(rows);
        std::uint64_t digest = resultsDigest(readFile(docPath));
        Design d = designOf(rows);
        if (i == 0) {
            // A fresh process that ran the matrix once: later
            // iterations inherit the allocator's retained heap.
            rssMiB = peakRssMiB();
            firstDigest = digest;
            design = d;
            // As many iterations as fit the requested time.
            iterations = static_cast<std::size_t>(std::max(
                1.0, std::floor(seconds * 1000.0 / wallMs)));
            std::printf("digest %s\n", hex(digest).c_str());
        } else {
            ops.check(digest == firstDigest,
                      "results document repeats within the run");
            ops.check(d == design, "design metrics repeat within the run");
        }
        wallS.push_back(wallMs / 1000.0);
        minstPerS.push_back(reportedMinst(rows) / (wallMs / 1000.0));
    }
    double yard = yardstickMs(ops);
    for (std::size_t i = 0; i < wallS.size(); ++i) {
        std::fprintf(stderr, "perfbench: iteration %zu: wall %.4f s\n", i,
                     wallS[i]);
    }
    std::fprintf(stderr, "perfbench: yardstick.functional_ms %.4f\n", yard);
    std::fprintf(stderr, "perfbench: energy savings %.4f%%, perf "
                 "degradation %.4f%%, EDP improvement %.4f%%\n",
                 100.0 - design.energyPct, design.timePct - 100.0,
                 100.0 - design.edpPct);

    const double success = ops.attempted
        ? 1.0 - static_cast<double>(ops.failed) /
              static_cast<double>(ops.attempted)
        : 0.0;
    printResult(ops, {
        {"wall_s", median(wallS), "s"},
        {"minst_per_host_s", median(minstPerS), "Minst/s"},
        {"peak_rss_mb", rssMiB, "MiB"},
        {"success_ratio", success, "ratio"},
        {"design_energy_vs_baseline_pct", design.energyPct, "%"},
        {"design_time_vs_baseline_pct", design.timePct, "%"},
        {"design_edp_vs_baseline_pct", design.edpPct, "%"},
        {"design_sync_overhead_pct", design.syncOverheadPct, "%"},
    });
    return 0;
}

// ------------------------------------------------------------------
// trace mode

/**
 * Per-layer time and call counts. Spans wrap single calls into a
 * layer and never nest, so a span's time is its layer's self time.
 */
class Tracer
{
  public:
    class Span
    {
      public:
        Span(Tracer &t, std::string layer)
            : tracer(t), name(std::move(layer)), start(Clock::now())
        {}
        ~Span()
        {
            tracer.lastMs = msSince(start);
            tracer.ms[name] += tracer.lastMs;
            ++tracer.count[name];
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer;
        std::string name;
        Clock::time_point start;
    };

    double selfMs(const std::string &layer) const
    {
        auto it = ms.find(layer);
        return it == ms.end() ? 0.0 : it->second;
    }
    std::uint64_t calls(const std::string &layer) const
    {
        auto it = count.find(layer);
        return it == count.end() ? 0 : it->second;
    }
    double totalSelfMs() const
    {
        double t = 0.0;
        for (const auto &[layer, v] : ms)
            t += v;
        return t;
    }
    std::uint64_t totalCalls() const
    {
        std::uint64_t n = 0;
        for (const auto &[layer, c] : count)
            n += c;
        return n;
    }

    /** Duration of the span closed last, ms. */
    double lastMs = 0.0;

  private:
    std::map<std::string, double> ms;
    std::map<std::string, std::uint64_t> count;
};

const char *const legKinds[] = {"baseline", "profile", "replay",
                                "controller", "global"};

/** Counters the rebuild gathers beside the spans. */
struct RebuildStats
{
    std::map<std::string, double> minst;    //!< per leg kind
    std::uint64_t globalSearches = 0;
    std::uint64_t traceRecords = 0;
    double traceBytes = 0.0;
    std::uint64_t dagIntervals = 0;
    std::uint64_t dagEvents = 0;
    std::uint64_t dagEdges = 0;
    std::uint64_t dagRedundant = 0;
    std::uint64_t shakerPasses = 0;
    std::uint64_t shakerRedundant = 0;
    std::vector<double> shakeMs;            //!< one per shake() call
    std::uint64_t scheduleEntries = 0;
    double criticalPathMs = 0.0;            //!< without render
};

/** ExperimentRunner::makeSimConfig, from the public config. */
SimConfig
simConfig(const ExperimentConfig &cfg, ClockingStyle style,
          const std::string &site)
{
    SimConfig sc;
    sc.clocking = style;
    sc.seed = cfg.seed;
    sc.telemetry = cfg.telemetry;
    sc.watchdogNoProgressEdges = cfg.watchdogNoProgressEdges;
    sc.watchdogMaxTicks = cfg.watchdogMaxTicks;
    sc.sampling = cfg.sampling;
    sc.faults = cfg.faults.get();
    sc.faultSite = site;
    return sc;
}

/** One timed kernel call: construct and run a processor. */
RunResult
runKernel(Tracer &tr, RebuildStats &st, const char *kind,
          const SimConfig &sc, const Program &prog,
          std::vector<InstTrace> *traceOut = nullptr)
{
    RunResult r;
    {
        Tracer::Span span(tr, std::string("core.run.") + kind);
        McdProcessor proc(sc, prog);
        r = proc.run();
        if (traceOut)
            *traceOut = proc.takeTrace();
    }
    st.minst[kind] += static_cast<double>(r.committed) / 1e6;
    return r;
}

/**
 * One benchmark's matrix from the layers' public calls, in the order
 * the serial runBenchmark() runs them. Accumulates the task-graph
 * critical path of runBenchmark()'s parallel overload in @p st.
 */
BenchmarkResults
rebuildBenchmark(const std::string &name, const ExperimentConfig &cfg,
                 Tracer &tr, RebuildStats &st)
{
    const Program prog = [&] {
        Tracer::Span span(tr, "workloads.build");
        return workloads::build(name, cfg.scale);
    }();
    const double buildMs = tr.lastMs;

    BenchmarkResults r;
    r.name = name;
    for (const LegSpec &spec : cfg.legs)
        r.legs.push_back({spec, RunResult{}, 0});

    r.baseline = runKernel(
        tr, st, "baseline",
        simConfig(cfg, ClockingStyle::SingleClock, name + "/baseline"),
        prog);
    const double baselineMs = tr.lastMs;

    double ctrlMs = 0.0;
    for (ControllerLeg &leg : r.legs) {
        if (leg.spec.kind != LegSpec::Kind::Controller)
            continue;
        SimConfig sc =
            simConfig(cfg, ClockingStyle::Mcd, name + "/" + leg.spec.name);
        sc.dvfs = cfg.model;
        sc.dvfsTimeScale = cfg.dvfsTimeScale;
        std::unique_ptr<DvfsController> ctrl;
        {
            Tracer::Span span(tr, "control.registry");
            ControllerContext ctx{DvfsTable{}, cfg.seed, cfg.online};
            ctrl = ControllerRegistry::instance().make(
                leg.spec.controller, ctx, leg.spec.params);
        }
        const double factoryMs = tr.lastMs;
        sc.controller = ctrl.get();
        leg.run = runKernel(tr, st, "controller", sc, prog);
        ctrlMs = std::max(ctrlMs, factoryMs + tr.lastMs);
    }

    std::vector<InstTrace> trace;
    {
        SimConfig sc =
            simConfig(cfg, ClockingStyle::Mcd, name + "/mcdBaseline");
        sc.collectTrace = true;
        sc.sampling.reset();
        r.mcdBaseline = runKernel(tr, st, "profile", sc, prog, &trace);
    }
    const double profileMs = tr.lastMs;
    st.traceRecords += trace.size();
    st.traceBytes += static_cast<double>(trace.size() * sizeof(InstTrace));

    std::set<std::string> dagSeen;
    std::set<std::pair<std::size_t, std::uint64_t>> histSeen;
    double replayMs = 0.0;
    for (ControllerLeg &leg : r.legs) {
        if (leg.spec.kind != LegSpec::Kind::ScheduleReplay)
            continue;
        double legMs = 0.0;
        const AnalyzerConfig ac = OfflineAnalyzer::configFor(
            leg.spec.dilation, cfg.model, cfg.dvfsTimeScale);

        std::vector<IntervalGraph> graphs;
        {
            Tracer::Span span(tr, "analysis.dag");
            graphs = buildIntervalGraphs(trace, ac.graph);
        }
        legMs += tr.lastMs;
        std::string dagSig;
        for (const IntervalGraph &g : graphs) {
            std::size_t edges = 0;
            for (const auto &out : g.out)
                edges += out.size();
            st.dagEvents += g.size();
            st.dagEdges += edges;
            dagSig += std::to_string(g.size()) + "/" +
                std::to_string(edges) + ";";
        }
        st.dagIntervals += graphs.size();
        st.dagRedundant += dagSeen.insert(dagSig).second ? 0 : 1;

        std::vector<IntervalHistos> histos;
        for (std::size_t i = 0; i < graphs.size(); ++i) {
            IntervalGraph &g = graphs[i];
            ShakeResult sr;
            {
                Tracer::Span span(tr, "analysis.shaker");
                sr = shake(g, ac.shaker, ac.clustering.fmax,
                           ac.clustering.fmin);
            }
            legMs += tr.lastMs;
            st.shakeMs.push_back(tr.lastMs);
            st.shakerPasses += static_cast<std::uint64_t>(sr.passesRun);
            std::uint64_t h = fnv1a(sr.histogram.data(),
                                    sizeof(sr.histogram));
            st.shakerRedundant += histSeen.insert({i, h}).second ? 0 : 1;
            IntervalHistos ih;
            ih.start = g.intervalStart;
            ih.end = g.intervalEnd;
            ih.hist = sr.histogram;
            histos.push_back(std::move(ih));
        }

        ClusterResult cr;
        {
            Tracer::Span span(tr, "analysis.clustering");
            cr = ClusterPhase(ac.clustering).run(histos);
        }
        legMs += tr.lastMs;
        st.scheduleEntries += cr.schedule.size();

        SimConfig sc =
            simConfig(cfg, ClockingStyle::Mcd, name + "/" + leg.spec.name);
        sc.dvfs = cfg.model;
        sc.dvfsTimeScale = cfg.dvfsTimeScale;
        sc.schedule = &cr.schedule;
        leg.run = runKernel(tr, st, "replay", sc, prog);
        leg.scheduleSize = cr.schedule.size();
        replayMs = std::max(replayMs, legMs + tr.lastMs);
    }

    // ExperimentRunner::globalLeg's binary search over the table.
    double globalMs = 0.0;
    for (ControllerLeg &leg : r.legs) {
        if (leg.spec.kind != LegSpec::Kind::GlobalSearch)
            continue;
        ++st.globalSearches;
        const RunResult &reference = r.leg(leg.spec.reference);
        const double target = r.perfDegradation(reference);
        DvfsTable table;
        int lo = 0;
        int hi = table.numPoints() - 1;
        RunResult best;
        Hertz bestFreq = table.fastest().frequency;
        double bestDist = 1e300;
        while (lo <= hi) {
            int mid = (lo + hi) / 2;
            Hertz f = table.point(mid).frequency;
            SimConfig sc = simConfig(cfg, ClockingStyle::SingleClock,
                                     name + "/" + leg.spec.name);
            sc.domainFrequency = {f, f, f, f};
            sc.mem.dramScalesWithClock = true;
            RunResult res = runKernel(tr, st, "global", sc, prog);
            globalMs += tr.lastMs;
            double deg = r.perfDegradation(res);
            double dist = std::fabs(deg - target);
            if (dist < bestDist) {
                bestDist = dist;
                best = res;
                bestFreq = f;
            }
            if (deg > target)
                lo = mid + 1;
            else
                hi = mid - 1;
        }
        leg.run = best;
        r.globalFrequency = bestFreq;
    }

    // runBenchmark(name, pool): baseline, controllers and profile start
    // together; replays follow the profile; the global searches wait
    // for every replay and the baseline.
    const double globalStart =
        std::max(profileMs + replayMs, baselineMs);
    st.criticalPathMs = std::max(
        st.criticalPathMs,
        buildMs + std::max(ctrlMs, globalStart + globalMs));
    return r;
}

/** Value at the highest percentile leaving >= 10 samples above it. */
struct Tail
{
    double ms = 0.0;
    double pct = 0.0;
};

Tail
tailOf(std::vector<double> v)
{
    if (v.size() <= 10)
        return {};
    std::sort(v.begin(), v.end());
    std::size_t idx = v.size() - 11;
    return {v[idx], 100.0 * static_cast<double>(idx + 1) /
                        static_cast<double>(v.size())};
}

int
traceMode(const Workload &w, std::uint64_t seed, const std::string &outDir)
{
    Ops ops;
    const ExperimentConfig cfg = makeConfig(w, seed);
    const int jobs = jobsFor(w);
    const double yard = yardstickMs(ops);

    // Untraced references, each checked against the rebuilt document:
    // a cold jobs=1 run, a run at the workload's jobs (pool
    // efficiency), and a warm jobs=1 run after the traced rebuild
    // (tracing overhead, warm against warm).
    auto untraced = [&](int j, const char *tag, double &ms) {
        const std::string path = outDir + "/results-" + tag + ".json";
        ops.matrix(runMatrixTo(cfg, w, j, path, ms));
        return readFile(path);
    };
    double coldWallMs = 0.0;
    const std::string serialDoc = untraced(1, "cold", coldWallMs);
    double poolWallMs = 0.0;
    std::string poolDoc = serialDoc;
    if (jobs > 1)
        poolDoc = untraced(jobs, "pool", poolWallMs);

    Tracer tr;
    RebuildStats st;
    std::vector<BenchmarkResults> rows;
    std::string doc;
    double tracedWallMs = 0.0;
    try {
        auto t0 = Clock::now();
        for (const std::string &b : w.benches)
            rows.push_back(rebuildBenchmark(b, cfg, tr, st));
        {
            Tracer::Span span(tr, "core.render");
            std::ostringstream os;
            writeResultsJson(os, cfg, rows);
            doc = os.str();
        }
        tracedWallMs = msSince(t0);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: rebuild failed: %s\n", e.what());
    }
    ops.check(!doc.empty(), "traced rebuild completed");
    ops.matrix(rows);
    double warmWallMs = 0.0;
    const std::string warmDoc = untraced(1, "warm", warmWallMs);
    ops.check(doc == serialDoc,
              "rebuilt results document is byte-identical to "
              "runMatrix's (jobs=1)");
    ops.check(doc == warmDoc,
              "rebuilt results document is byte-identical to "
              "runMatrix's (jobs=1, after the rebuild)");
    ops.check(doc == poolDoc,
              "rebuilt results document is byte-identical to "
              "runMatrix's (jobs=" + std::to_string(jobs) + ")");
    std::printf("digest %s\n", hex(resultsDigest(serialDoc)).c_str());

    // Trace collection cost: the profiling run with and without
    // collectTrace, alternated, medians per benchmark.
    double collectMs = 0.0;
    for (const std::string &b : w.benches) {
        const Program prog = workloads::build(b, cfg.scale);
        std::vector<double> with;
        std::vector<double> without;
        for (int rep = 0; rep < 3; ++rep) {
            for (bool collect : {true, false}) {
                SimConfig sc =
                    simConfig(cfg, ClockingStyle::Mcd, b + "/mcdBaseline");
                sc.sampling.reset();
                sc.collectTrace = collect;
                auto t0 = Clock::now();
                McdProcessor(sc, prog).run();
                (collect ? with : without).push_back(msSince(t0));
            }
        }
        collectMs += median(with) - median(without);
    }

    // The spans' own cost: many empty spans, timed as one.
    Tracer probe;
    const int probeSpans = 100000;
    auto probeStart = Clock::now();
    for (int i = 0; i < probeSpans; ++i)
        Tracer::Span span(probe, "core.run.controller");
    const double spanOverheadMs = static_cast<double>(tr.totalCalls()) *
        msSince(probeStart) / probeSpans;

    const double workMs = tr.totalSelfMs();
    const double criticalMs = st.criticalPathMs + tr.selfMs("core.render");
    const Tail tail = tailOf(st.shakeMs);
    const std::uint64_t dagCalls = tr.calls("analysis.dag");
    const std::uint64_t shakeCalls = tr.calls("analysis.shaker");
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    std::vector<Metric> m;
    m.push_back({"workloads.build_ms", tr.selfMs("workloads.build"), "ms"});
    m.push_back({"workloads.programs",
                 static_cast<double>(tr.calls("workloads.build")),
                 "count"});
    for (const char *k : legKinds) {
        const std::string layer = std::string("core.run.") + k;
        const double ms = tr.selfMs(layer);
        const double minst = st.minst[k];
        m.push_back({layer + ".ms", ms, "ms"});
        m.push_back({layer + ".calls",
                     static_cast<double>(tr.calls(layer)), "count"});
        m.push_back({layer + ".minst", minst, "Minst"});
        m.push_back({layer + ".minst_per_s", ratio(minst, ms / 1000.0),
                     "Minst/s"});
    }
    m.push_back({"core.global.probes",
                 ratio(static_cast<double>(tr.calls("core.run.global")),
                       static_cast<double>(st.globalSearches)),
                 "count"});
    m.push_back({"control.registry.ms", tr.selfMs("control.registry"), "ms"});
    m.push_back({"control.registry.calls",
                 static_cast<double>(tr.calls("control.registry")),
                 "count"});
    m.push_back({"trace.collect_ms", collectMs, "ms"});
    m.push_back({"trace.records", static_cast<double>(st.traceRecords),
                 "count"});
    m.push_back({"trace.mb", st.traceBytes / (1024.0 * 1024.0), "MiB"});
    m.push_back({"analysis.dag.ms", tr.selfMs("analysis.dag"), "ms"});
    m.push_back({"analysis.dag.calls", static_cast<double>(dagCalls),
                 "count"});
    m.push_back({"analysis.dag.intervals",
                 static_cast<double>(st.dagIntervals), "count"});
    m.push_back({"analysis.dag.events", static_cast<double>(st.dagEvents),
                 "count"});
    m.push_back({"analysis.dag.edges", static_cast<double>(st.dagEdges),
                 "count"});
    m.push_back({"analysis.dag.redundant_ratio",
                 ratio(static_cast<double>(st.dagRedundant),
                       static_cast<double>(dagCalls)),
                 "ratio"});
    m.push_back({"analysis.shaker.ms", tr.selfMs("analysis.shaker"), "ms"});
    m.push_back({"analysis.shaker.calls", static_cast<double>(shakeCalls),
                 "count"});
    m.push_back({"analysis.shaker.passes",
                 static_cast<double>(st.shakerPasses), "count"});
    m.push_back({"analysis.shaker.interval_p50_ms", median(st.shakeMs),
                 "ms"});
    m.push_back({"analysis.shaker.interval_tail_ms", tail.ms, "ms"});
    m.push_back({"analysis.shaker.interval_tail_pct", tail.pct, "%"});
    m.push_back({"analysis.shaker.interval_samples",
                 static_cast<double>(st.shakeMs.size()), "count"});
    m.push_back({"analysis.shaker.redundant_ratio",
                 ratio(static_cast<double>(st.shakerRedundant),
                       static_cast<double>(shakeCalls)),
                 "ratio"});
    m.push_back({"analysis.clustering.ms", tr.selfMs("analysis.clustering"),
                 "ms"});
    m.push_back({"analysis.clustering.calls",
                 static_cast<double>(tr.calls("analysis.clustering")),
                 "count"});
    m.push_back({"analysis.clustering.schedule_entries",
                 static_cast<double>(st.scheduleEntries), "count"});
    m.push_back({"core.render.ms", tr.selfMs("core.render"), "ms"});
    m.push_back({"core.render.bytes", static_cast<double>(doc.size()),
                 "bytes"});
    m.push_back({"pool.jobs", static_cast<double>(jobs), "count"});
    m.push_back({"pool.work_ms", workMs, "ms"});
    m.push_back({"pool.critical_path_ms", criticalMs, "ms"});
    // Work from the serial traced rebuild over the wall time of the
    // untraced pool run. At jobs=1 there is no pool, and the ratio of
    // two different serial runs would only read their noise: 0 there.
    m.push_back({"pool.efficiency",
                 jobs > 1 ? ratio(workMs, jobs * poolWallMs) : 0.0,
                 "ratio"});
    m.push_back({"traced.wall_s", tracedWallMs / 1000.0, "s"});
    m.push_back({"traced.unattributed_ms", tracedWallMs - workMs, "ms"});
    m.push_back({"traced.overhead_pct",
                 100.0 * ratio(tracedWallMs - warmWallMs, warmWallMs),
                 "%"});
    m.push_back({"traced.span_overhead_ms", spanOverheadMs, "ms"});
    m.push_back({"yardstick.functional_ms", yard, "ms"});
    m.push_back({"checks.failed_ratio",
                 ratio(static_cast<double>(ops.failed),
                       static_cast<double>(ops.attempted)),
                 "ratio"});
    printResult(ops, m);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_matrix --mode setup|measure|trace "
                 "--workload NAME --seed N [--seconds S] "
                 "[--out-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            return usage();
        args[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0 || !args.count("mode") || !args.count("workload") ||
        !args.count("seed"))
        return usage();
    const Workload *w = findWorkload(args["workload"]);
    if (!w) {
        std::fprintf(stderr, "e2e_matrix: unknown workload '%s'\n",
                     args["workload"].c_str());
        return 2;
    }
    const std::uint64_t seed = std::stoull(args["seed"]);
    const std::string mode = args["mode"];
    const std::string outDir = args.count("out-dir") ? args["out-dir"] : ".";
    try {
        if (mode == "setup")
            return setupMode(*w, seed, outDir);
        if (mode == "measure") {
            double seconds =
                args.count("seconds") ? std::stod(args["seconds"]) : 10.0;
            return measureMode(*w, seed, seconds, outDir);
        }
        if (mode == "trace")
            return traceMode(*w, seed, outDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_matrix: %s\n", e.what());
        return 1;
    }
    return usage();
}
