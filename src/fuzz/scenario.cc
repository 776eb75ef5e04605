#include "scenario.hh"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "config/jsonlite.hh"
#include "config/runspec.hh"

namespace mcd {
namespace fuzz {

namespace {

/** Replace every "@" in a fault spec with the benchmark name. */
std::string
expandAt(const std::string &spec, const std::string &bench)
{
    std::string out;
    for (char c : spec) {
        if (c == '@')
            out += bench;
        else
            out += c;
    }
    return out;
}

double
parseDouble(const std::string &key, const std::string &v)
{
    try {
        std::size_t used = 0;
        double d = std::stod(v, &used);
        if (used != v.size())
            throw std::invalid_argument(v);
        return d;
    } catch (const std::exception &) {
        fatal("Scenario config: bad value '" + v + "' for " + key);
    }
}

std::uint64_t
parseU64(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
    if (!end || *end || v.empty())
        fatal("Scenario config: bad value '" + v + "' for " + key);
    return n;
}

} // namespace

std::string
Scenario::expandedFaults() const
{
    std::string joined = faultSpec;
    if (!plantedSpec.empty()) {
        if (!joined.empty())
            joined += ";";
        joined += plantedSpec;
    }
    return expandAt(joined, benchName());
}

ExperimentConfig
Scenario::toConfig() const
{
    internWorkload(workload);

    ExperimentConfig cfg;
    cfg.scale = 1;
    cfg.cacheDir.clear();               // soak runs are never cached
    cfg.telemetry.invariants = "default";

    std::string item;
    std::istringstream ss(configSpec);
    while (std::getline(ss, item, ';')) {
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("Scenario config: item '" + item + "' missing '='");
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        if (key == "model") {
            auto kind = dvfsKindFromName(val);
            if (!kind)
                fatal("Scenario config: unknown DVFS model '" + val +
                      "' (choices: " + dvfsKindNames() + ")");
            cfg.model = *kind;
        } else if (key == "timescale") {
            cfg.dvfsTimeScale = parseDouble(key, val);
        } else if (key == "dillo") {
            cfg.dilationLow = parseDouble(key, val);
        } else if (key == "dilhi") {
            cfg.dilationHigh = parseDouble(key, val);
        } else if (key == "seed") {
            cfg.seed = parseU64(key, val);
        } else if (key == "attempts") {
            cfg.legAttempts = static_cast<int>(parseU64(key, val));
        } else if (key == "wdedges") {
            cfg.watchdogNoProgressEdges = parseU64(key, val);
        } else if (key == "wdticks") {
            cfg.watchdogMaxTicks = parseU64(key, val);
        } else if (key == "sampling") {
            cfg.sampling = SamplingParams::fromSpec(val);
        } else {
            fatal("Scenario config: unknown key '" + key + "'");
        }
    }

    cfg.legs = legsFromSpec(legsSpec);

    std::string faults = expandedFaults();
    if (!faults.empty())
        cfg.faults = std::make_shared<const fault::FaultPlan>(
            fault::FaultPlan::parse(faults));
    return cfg;
}

const char *const reproVersion = "mcd-repro-v2";

namespace {

/**
 * The configSpec k=v keys and their RunSpec option names, in the
 * canonical configSpec order (writeRepro sorts by option name
 * itself).
 */
constexpr std::pair<const char *, const char *> configSpecKeys[] = {
    {"model", "model"},           {"timescale", "dvfsTimeScale"},
    {"dillo", "dilationLow"},     {"dilhi", "dilationHigh"},
    {"seed", "seed"},             {"attempts", "legAttempts"},
    {"wdedges", "watchdogEdges"}, {"wdticks", "watchdogTicks"},
    {"sampling", "sampling"},
};

const char *
optionNameForSpecKey(const std::string &key)
{
    for (const auto &[specKey, option] : configSpecKeys) {
        if (key == specKey)
            return option;
    }
    return nullptr;
}

const char *
specKeyForOptionName(const std::string &option)
{
    for (const auto &[specKey, opt] : configSpecKeys) {
        if (option == opt)
            return specKey;
    }
    return nullptr;
}

} // namespace

void
writeRepro(std::ostream &os, const Scenario &s,
           const std::string &signature)
{
    // The scenario's experiment dimensions are serialized as a
    // mcd-runspec-v1 options object (the same surface --config files
    // use), with every value a JSON *string* so the exact spec text —
    // "0.050000" included — round-trips byte-identically. Only the
    // keys present in configSpec appear; absent keys mean the
    // ExperimentConfig defaults, exactly as in the spec grammar.
    std::vector<std::pair<std::string, std::string>> opts;
    std::string item;
    std::istringstream ss(s.configSpec);
    while (std::getline(ss, item, ';')) {
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("Scenario config: item '" + item + "' missing '='");
        const char *name = optionNameForSpecKey(item.substr(0, eq));
        if (!name)
            fatal("Scenario config: unknown key '" +
                  item.substr(0, eq) + "'");
        opts.emplace_back(name, item.substr(eq + 1));
    }
    opts.emplace_back("legs", s.legsSpec);
    opts.emplace_back("faultPlan", s.faultSpec);
    std::sort(opts.begin(), opts.end());

    os << "{\n"
       << "  \"version\": \"" << reproVersion << "\",\n"
       << "  \"signature\": \"" << signature << "\",\n"
       << "  \"workload\": \"" << s.workload.spec() << "\",\n"
       << "  \"planted\": \"" << s.plantedSpec << "\",\n"
       << "  \"jobs\": " << s.jobs << ",\n"
       << "  \"runspec\": {\n"
       << "    \"version\": \"" << config::runSpecVersion << "\",\n"
       << "    \"options\": {\n";
    for (std::size_t i = 0; i < opts.size(); ++i) {
        os << "      \"" << opts[i].first << "\": \""
           << config::jsonlite::escape(opts[i].second) << "\""
           << (i + 1 < opts.size() ? "," : "") << "\n";
    }
    os << "    }\n"
       << "  }\n"
       << "}\n";
}

std::optional<Repro>
readRepro(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();

    config::jsonlite::Value doc;
    std::string err;
    if (!config::jsonlite::parse(buf.str(), doc, err) ||
        doc.kind != config::jsonlite::Value::Kind::Object)
        return std::nullopt;
    auto field = [&](const char *key)
        -> const config::jsonlite::Value * {
        return doc.find(key);
    };
    const auto *version = field("version");
    if (!version || version->text != reproVersion)
        return std::nullopt;
    const auto *signature = field("signature");
    const auto *workload = field("workload");
    const auto *planted = field("planted");
    const auto *jobs = field("jobs");
    const auto *runspec = field("runspec");
    if (!signature || !workload || !planted || !jobs || !runspec ||
        runspec->kind != config::jsonlite::Value::Kind::Object)
        return std::nullopt;
    const auto *rsVersion = runspec->find("version");
    const auto *options = runspec->find("options");
    if (!rsVersion || rsVersion->text != config::runSpecVersion ||
        !options ||
        options->kind != config::jsonlite::Value::Kind::Object)
        return std::nullopt;

    Repro r;
    r.signature = signature->text;
    r.scenario.workload = GenParams::fromSpec(workload->text);
    r.scenario.plantedSpec = planted->text;
    r.scenario.jobs = static_cast<int>(
        std::strtol(jobs->text.c_str(), nullptr, 10));
    if (r.scenario.jobs < 1)
        r.scenario.jobs = 1;

    // Rebuild the spec strings. configSpec keys come back in the
    // canonical key-table order regardless of the file's key order,
    // so a rewritten repro is byte-stable.
    for (const auto &[name, value] : options->members) {
        if (name == "legs" || name == "faultPlan")
            continue;
        if (!specKeyForOptionName(name))
            return std::nullopt;    // not an experiment dimension
    }
    std::string configSpec;
    for (const auto &[specKey, option] : configSpecKeys) {
        if (const auto *v = options->find(option)) {
            if (!configSpec.empty())
                configSpec += ";";
            configSpec += std::string(specKey) + "=" + v->text;
        }
    }
    r.scenario.configSpec = configSpec;
    if (const auto *v = options->find("legs"))
        r.scenario.legsSpec = v->text;
    if (const auto *v = options->find("faultPlan"))
        r.scenario.faultSpec = v->text;
    return r;
}

} // namespace fuzz
} // namespace mcd
