/**
 * @file
 * Online control walk-through: run a benchmark with the queue-driven
 * attack/decay controller — no profiling pass, no offline tool — and
 * compare it against the MCD baseline and, for context, an offline
 * dynamic-5% oracle run.
 *
 *   ./online_control [benchmark] [xscale|transmeta] [interval-us]
 *                    [--trace-out <path>] [--stats-out <path>]
 *                    [--invariants <spec>]
 *
 * --trace-out writes a merged Chrome trace (chrome://tracing /
 * Perfetto) of all runs; --stats-out writes their stats registries as
 * JSON; --invariants checks the named invariant rules online
 * ("default" for the built-in set). The MCD_TRACE_OUT /
 * MCD_STATS_OUT / MCD_INVARIANTS environment variables are the
 * fallback when the flags are absent.
 *
 * Exit status: 0 on success, 2 on a usage error, 3 / 4 when some /
 * every leg of the run failed.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/experiment.hh"
#include "example_util.hh"
#include "workloads/workloads.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    exutil::TelemetryArgs telemetry =
        exutil::TelemetryArgs::parse(argc, argv);
    std::string bench = argc > 1 ? argv[1] : "adpcm";
    DvfsKind model = DvfsKind::XScale;
    if (argc > 2) {
        if (auto k = dvfsKindFromName(argv[2])) {
            model = *k;
        } else {
            std::fprintf(stderr, "unknown DVFS model '%s' "
                         "(expected one of: %s)\n",
                         argv[2], dvfsKindNames().c_str());
            return 1;
        }
    }

    return exutil::guardedMain([&] {
    ExperimentConfig ec;
    ec.model = model;
    if (argc > 3)
        ec.online.interval = fromMicroseconds(std::atof(argv[3]));
    if (telemetry.wanted())
        ec.telemetry = obs::TelemetryConfig::full();
    telemetry.apply(ec.telemetry);
    // The oracle bound: what the offline tool achieves with the whole
    // trace in hand and a 5% dilation budget.
    ec.legs = {LegSpec::scheduleReplay("dyn5", ec.dilationHigh),
               LegSpec::controllerLeg("online", "online-queue")};
    ExperimentRunner runner(ec);

    std::printf("Running the MCD baseline, the online attack/decay "
                "controller and the offline dynamic-5%% oracle "
                "(%s model, %.1f us control interval)...\n",
                dvfsKindName(model), ec.online.interval / 1e6);
    const std::vector<BenchmarkResults> rows{runner.runBenchmark(bench)};
    if (int code = matrixExitCode(rows); code != exitOk)
        return code;
    const RunResult &base = rows[0].mcdBaseline;
    const RunResult &online = rows[0].leg("online");
    const RunResult &dyn = rows[0].leg("dyn5");

    double deg = static_cast<double>(online.execTime) /
        static_cast<double>(base.execTime) - 1.0;
    double esave = 1.0 - online.totalEnergy / base.totalEnergy;
    double edp = 1.0 - online.energyDelay / base.energyDelay;
    std::printf("\nOnline attack/decay\n"
                "      vs MCD baseline: %s slower, %s energy saved, "
                "EDP %s\n",
                formatPercent(deg).c_str(), formatPercent(esave).c_str(),
                formatPercent(edp).c_str());
    for (Domain d : scalableDomains) {
        const DomainSummary &s = online.domains[domainIndex(d)];
        std::printf("      %s: avg %s, range [%s, %s], %llu "
                    "reconfigurations\n",
                    domainShortName(d),
                    formatMHz(s.avgFrequency).c_str(),
                    formatMHz(s.minFrequency).c_str(),
                    formatMHz(s.maxFrequency).c_str(),
                    static_cast<unsigned long long>(s.reconfigurations));
    }

    double odeg = static_cast<double>(dyn.execTime) /
        static_cast<double>(base.execTime) - 1.0;
    double osave = 1.0 - dyn.totalEnergy / base.totalEnergy;
    std::printf("\nOffline dynamic-5%% oracle\n"
                "      vs MCD baseline: %s slower, %s energy saved, "
                "EDP %s\n",
                formatPercent(odeg).c_str(), formatPercent(osave).c_str(),
                formatPercent(1.0 - dyn.energyDelay /
                              base.energyDelay).c_str());
    std::printf("\n      online achieved %.0f%% of the oracle's energy "
                "savings with no profiling pass\n\n",
                osave > 0 ? 100.0 * esave / osave : 0.0);

    telemetry.write(namedRuns(rows));
    return exitOk;
    });
}
