#include "analyzer.hh"

namespace mcd {

AnalyzerConfig
OfflineAnalyzer::configFor(double target_dilation, DvfsKind model,
                           double dvfs_time_scale)
{
    AnalyzerConfig c;
    c.clustering.targetDilation = target_dilation;
    c.clustering.model = model;
    c.clustering.dvfsTimeScale = dvfs_time_scale;
    return c;
}

ShakenProfile
shakeTrace(const std::vector<InstTrace> &trace, const DepGraphConfig &graph,
           const ShakerConfig &shaker, Hertz fmax, Hertz fmin,
           ThreadPool &pool)
{
    const std::vector<TraceSlice> slices = sliceIntervals(trace, graph);
    ShakenProfile profile;
    profile.intervals.resize(slices.size());
    std::vector<std::size_t> events(slices.size(), 0);
    std::vector<double> slack(slices.size(), 0.0);
    pool.parallelFor(slices.size(), [&](std::size_t i) {
        IntervalGraph g = buildIntervalGraph(trace, slices[i], graph);
        ShakeResult sr = shake(g, shaker, fmax, fmin);
        IntervalHistos &ih = profile.intervals[i];
        ih.start = g.intervalStart;
        ih.end = g.intervalEnd;
        ih.hist = sr.histogram;
        events[i] = g.size();
        slack[i] = sr.slackConsumed;
    });
    for (std::size_t i = 0; i < slices.size(); ++i) {
        profile.eventsTotal += events[i];
        profile.slackConsumed += slack[i];
    }
    return profile;
}

AnalysisResult
cluster(const ShakenProfile &profile, const ClusteringConfig &cfg)
{
    ClusterResult cr = ClusterPhase(cfg).run(profile.intervals);
    AnalysisResult result;
    result.schedule = std::move(cr.schedule);
    result.plans = std::move(cr.plans);
    result.intervals = profile.intervals.size();
    result.eventsTotal = profile.eventsTotal;
    result.slackConsumed = profile.slackConsumed;
    return result;
}

AnalysisResult
OfflineAnalyzer::analyze(const std::vector<InstTrace> &trace) const
{
    ThreadPool serial(0);
    return cluster(shakeTrace(trace, config.graph, config.shaker,
                              config.clustering.fmax,
                              config.clustering.fmin, serial),
                   config.clustering);
}

} // namespace mcd
