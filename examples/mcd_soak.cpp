/**
 * @file
 * The soak driver binary: run a seeded budget of fuzzed scenario
 * tuples under the default invariant set, classify every outcome,
 * shrink findings, and persist replayable repros.
 *
 *   mcd_soak [--seed N] [--budget N] [--jobs N] [--out DIR]
 *            [--plant <leg>=<action>] [--no-shrink]
 *            [--shrink-runs N] [--quiet] [--config FILE]
 *   mcd_soak --repro FILE
 *
 * The seed/budget/jobs/out/plant knobs resolve through the unified
 * config layer (soakSeed, soakBudget, soakJobs, soakOut, soakPlant;
 * defaults < --config file < MCD_SOAK_* env vars < flags), so CI
 * wrappers that cannot pass flags keep working.
 *
 * Exit codes: 0 = clean soak (or a --repro replay that reproduced its
 * recorded signature); 1 = findings were recorded (or the replay did
 * not match); 2 = usage/configuration error.
 *
 * With --out, DIR/journal.txt records every completed tuple as it
 * finishes — re-running the same seed resumes after an interruption
 * instead of repeating finished tuples — and DIR/corpus/ collects one
 * minimized repro JSON per finding.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "fuzz/scenario.hh"
#include "fuzz/soak.hh"

#include "example_util.hh"

namespace {

std::uint64_t
parseU64Arg(const char *flag, const char *value)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(value, &end, 10);
    if (!end || *end) {
        std::fprintf(stderr, "%s requires an unsigned integer (got "
                     "'%s')\n", flag, value);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    return mcd::exutil::guardedMain([&]() -> int {
        namespace config = mcd::config;
        std::string reproPath;
        bool shrink = true;
        bool progress = true;
        int shrinkRuns = -1;

        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s requires a value\n",
                                 arg.c_str());
                    std::exit(2);
                }
                return argv[++i];
            };
            // The soak knobs feed the unified flag store (highest
            // layer), so MCD_SOAK_* env vars and --config files
            // resolve underneath them.
            if (arg == "--seed") {
                config::setFlagOverride("soakSeed", value());
            } else if (arg == "--budget") {
                config::setFlagOverride("soakBudget", value());
            } else if (arg == "--jobs") {
                config::setFlagOverride("soakJobs", value());
            } else if (arg == "--out") {
                config::setFlagOverride("soakOut", value());
            } else if (arg == "--plant") {
                config::setFlagOverride("soakPlant", value());
            } else if (arg == "--config") {
                config::setFlagOverride("config", value());
            } else if (arg == "--dump-config-schema") {
                config::writeSchemaMarkdown(std::cout);
                return 0;
            } else if (arg == "--no-shrink") {
                shrink = false;
            } else if (arg == "--shrink-runs") {
                shrinkRuns = static_cast<int>(
                    parseU64Arg("--shrink-runs", value()));
            } else if (arg == "--quiet") {
                progress = false;
            } else if (arg == "--repro") {
                reproPath = value();
            } else {
                std::fprintf(stderr, "unknown argument '%s'\n",
                             arg.c_str());
                return 2;
            }
        }

        const config::RunSpec spec = config::RunSpec::resolve();
        mcd::fuzz::SoakOptions opts;
        opts.rootSeed = spec.u64("soakSeed");
        opts.budget = static_cast<int>(spec.integer("soakBudget"));
        opts.jobs = static_cast<int>(spec.integer("soakJobs"));
        opts.outDir = spec.str("soakOut");
        opts.planted = spec.str("soakPlant");
        opts.shrink = shrink;
        opts.progress = progress;
        if (shrinkRuns >= 0)
            opts.shrinkRuns = shrinkRuns;

        if (!reproPath.empty()) {
            mcd::fuzz::ReplayResult r =
                mcd::fuzz::replayRepro(reproPath);
            if (!r.loaded) {
                std::fprintf(stderr,
                             "cannot load repro file %s\n",
                             reproPath.c_str());
                return 2;
            }
            std::printf("repro %s\n  recorded: %s\n  replayed: %s%s%s"
                        "\n  %s\n",
                        reproPath.c_str(), r.recorded.c_str(),
                        mcd::fuzz::outcomeClassName(r.outcome.cls),
                        r.outcome.failed() ? " " : "",
                        r.outcome.signature.c_str(),
                        r.matched ? "MATCH" : "MISMATCH");
            return r.matched ? 0 : 1;
        }

        std::printf("MCD soak: seed %llu, budget %d, jobs %d%s%s\n",
                    static_cast<unsigned long long>(opts.rootSeed),
                    opts.budget, opts.jobs,
                    opts.planted.empty() ? "" : ", planted ",
                    opts.planted.c_str());
        mcd::fuzz::SoakReport report = mcd::fuzz::runSoak(opts);
        std::printf("  ran %llu tuple(s), resumed past %llu, "
                    "%zu new finding(s), %llu prior\n",
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(report.resumed),
                    report.findings.size(),
                    static_cast<unsigned long long>(
                        report.priorFindings));
        for (const mcd::fuzz::SoakFinding &f : report.findings) {
            std::printf("  FINDING tuple %llu: %s %s%s%s\n",
                        static_cast<unsigned long long>(f.index),
                        mcd::fuzz::outcomeClassName(f.outcome.cls),
                        f.outcome.signature.c_str(),
                        f.reproPath.empty() ? "" : " -> ",
                        f.reproPath.c_str());
        }
        if (report.clean())
            std::printf("  clean\n");
        return mcd::fuzz::soakExitCode(report);
    });
}
