/**
 * @file
 * Reproduces paper Figure 9: per-benchmark summary statistics of the
 * intervals chosen by the off-line tool for the dynamic-5%
 * configuration under the Transmeta and XScale models --
 * reconfigurations per million instructions (bars) and the average /
 * min / max frequency per domain ("error bars").
 *
 * Paper shape: average frequencies are similar between models, but
 * the Transmeta model performs far fewer reconfigurations over
 * narrower frequency ranges.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    std::printf("Figure 9: Summary statistics for intervals chosen by "
                "the off-line tool (dynamic-5%%)\n\n");

    // The dyn5 leg of the default matrix: under XScale this is the
    // same matrix (and cache) as Figures 5-7.
    double meanRc[2] = {};
    std::vector<BenchmarkResults> all;
    for (int mi = 0; mi < 2; ++mi) {
        DvfsKind model = mi ? DvfsKind::XScale : DvfsKind::Transmeta;
        std::vector<BenchmarkResults> rows =
            benchutil::runMatrix(benchutil::configFromEnv(model));

        std::printf("%s reconfiguration data\n", dvfsKindName(model));
        TextTable t;
        t.header({"benchmark", "reconf/1M", "INT avg", "INT range",
                  "FP avg", "FP range", "LS avg", "LS range"});
        std::size_t completed = 0;
        for (const BenchmarkResults &b : rows) {
            // A leg filter (controllers option) may have dropped dyn5.
            const RunResult &r = benchutil::orUsageError(
                [&]() -> const RunResult & { return b.leg("dyn5"); });
            if (r.failed()) {
                t.row({b.name, "failed", "", "", "", "", "", ""});
                continue;
            }
            std::uint64_t rc = 0;
            for (int d = 1; d < numDomains; ++d)
                rc += r.domains[d].reconfigurations;
            double rcPerM = 1e6 * static_cast<double>(rc) /
                static_cast<double>(r.committed);
            meanRc[mi] += rcPerM;
            ++completed;
            auto range = [&](int d) {
                char buf[48];
                std::snprintf(buf, sizeof(buf), "[%.0f-%.0f]",
                              r.domains[d].minFrequency / 1e6,
                              r.domains[d].maxFrequency / 1e6);
                return std::string(buf);
            };
            t.row({b.name, formatFixed(rcPerM, 1),
                   formatMHz(r.domains[1].avgFrequency), range(1),
                   formatMHz(r.domains[2].avgFrequency), range(2),
                   formatMHz(r.domains[3].avgFrequency), range(3)});
        }
        if (completed)
            meanRc[mi] /= static_cast<double>(completed);
        std::fputs(t.render().c_str(), stdout);
        std::printf("\n");
        all.insert(all.end(), rows.begin(), rows.end());
    }

    bool shape = meanRc[1] > meanRc[0];
    std::printf("Paper shape -- far fewer reconfigurations under "
                "Transmeta than XScale: %s (%.1f vs %.1f per 1M insts "
                "on average)\n",
                shape ? "REPRODUCED" : "NOT REPRODUCED",
                meanRc[0], meanRc[1]);
    if (int code = benchutil::finish(all); code != exitOk)
        return code;
    return shape ? 0 : 1;
}
