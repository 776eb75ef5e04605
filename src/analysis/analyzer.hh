/**
 * @file
 * The complete offline reconfiguration tool: trace -> per-interval
 * dependence DAGs -> shaker -> histograms -> clustering -> schedule
 * (paper Section 3.2). The schedule is then fed to a second, dynamic
 * simulation run.
 *
 * Everything up to the histograms is independent of the dilation
 * target, so the tool runs in two halves: shakeTrace() once per
 * profiling trace, then cluster() once per target.
 */

#ifndef MCD_ANALYSIS_ANALYZER_HH
#define MCD_ANALYSIS_ANALYZER_HH

#include <vector>

#include "analysis/clustering.hh"
#include "analysis/dep_graph.hh"
#include "analysis/schedule.hh"
#include "analysis/shaker.hh"
#include "common/thread_pool.hh"
#include "trace/trace.hh"

namespace mcd {

/** Combined configuration for the offline tool. */
struct AnalyzerConfig
{
    DepGraphConfig graph;
    ShakerConfig shaker;
    ClusteringConfig clustering;
};

/**
 * The target-independent half of the analysis: one shaken histogram
 * set per interval, in trace order, plus shaker totals.
 */
struct ShakenProfile
{
    std::vector<IntervalHistos> intervals;
    std::size_t eventsTotal = 0;    //!< DAG events over all intervals
    double slackConsumed = 0.0;     //!< ps, summed in interval order
};

/**
 * Build, shake and free one interval DAG at a time. Intervals run as
 * a parallelFor shard on @p pool (inline, in order, on a zero-worker
 * pool), so at most one graph per executing thread is alive; results
 * merge in interval order, so the profile is identical for every pool
 * size.
 */
ShakenProfile shakeTrace(const std::vector<InstTrace> &trace,
                         const DepGraphConfig &graph,
                         const ShakerConfig &shaker, Hertz fmax,
                         Hertz fmin, ThreadPool &pool);

/** Everything the offline tool produced (schedule + diagnostics). */
struct AnalysisResult
{
    ReconfigSchedule schedule;
    std::array<std::vector<PlanSegment>, numDomains> plans;
    std::size_t intervals = 0;
    std::size_t eventsTotal = 0;
    double slackConsumed = 0.0;
};

/** The per-target half: cluster a shaken profile into a schedule. */
AnalysisResult cluster(const ShakenProfile &profile,
                       const ClusteringConfig &cfg);

/**
 * The offline analyzer façade.
 */
class OfflineAnalyzer
{
  public:
    explicit OfflineAnalyzer(AnalyzerConfig cfg) : config(std::move(cfg))
    {}

    /**
     * Build the default configuration for a dilation target. Only
     * clustering fields depend on the arguments, which is what lets
     * one shakeTrace() profile serve every target.
     */
    static AnalyzerConfig
    configFor(double target_dilation, DvfsKind model,
              double dvfs_time_scale = 1.0);

    /** Run the full analysis over a profiling trace, serially:
     *  cluster(shakeTrace(...)) with this configuration. */
    AnalysisResult analyze(const std::vector<InstTrace> &trace) const;

    const AnalyzerConfig &cfg() const { return config; }

  private:
    AnalyzerConfig config;
};

} // namespace mcd

#endif // MCD_ANALYSIS_ANALYZER_HH
