/**
 * @file
 * Regression corpus replay: every repro JSON committed under
 * tests/corpus/ must load, re-run, and reproduce exactly the
 * signature recorded when it was found (or complete clean for
 * "ok"-signature corpus entries). A mismatch means either a
 * simulator behavior change the corpus entry was guarding against,
 * or a broken serialization path — both are release blockers for
 * the soak harness's replay story.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/scenario.hh"
#include "fuzz/soak.hh"

#ifndef MCD_SOURCE_DIR
#error "test_fuzz_corpus requires MCD_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace mcd {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path>
corpusFiles()
{
    fs::path dir = fs::path(MCD_SOURCE_DIR) / "tests" / "corpus";
    std::vector<fs::path> files;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".json")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(FuzzCorpus, CorpusIsNotEmpty)
{
    // An empty corpus would make the replay test below pass
    // vacuously forever.
    EXPECT_GE(corpusFiles().size(), 3u);
}

TEST(FuzzCorpus, EveryCommittedReproReplaysToItsRecordedSignature)
{
    for (const fs::path &file : corpusFiles()) {
        fuzz::ReplayResult r = fuzz::replayRepro(file.string());
        EXPECT_TRUE(r.loaded) << file;
        EXPECT_TRUE(r.matched)
            << file << ": recorded '" << r.recorded
            << "' but replay produced '"
            << fuzz::outcomeClassName(r.outcome.cls)
            << (r.outcome.signature.empty() ? "" : " ")
            << r.outcome.signature << "' (" << r.outcome.detail << ")";
    }
}

TEST(FuzzCorpus, CommittedCorpusUsesTheUnifiedReproSchema)
{
    // The corpus was migrated to mcd-repro-v2 (scenario config as an
    // embedded runspec document); new entries must not regress to the
    // legacy flat schema.
    for (const fs::path &file : corpusFiles()) {
        std::ifstream in(file);
        std::ostringstream ss;
        ss << in.rdbuf();
        EXPECT_NE(ss.str().find(fuzz::reproVersion), std::string::npos)
            << file << " is not a " << fuzz::reproVersion << " repro";
    }
}

} // namespace
} // namespace mcd
