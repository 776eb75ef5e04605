/**
 * @file
 * Host-side run profiler: where does the *host* process spend wall
 * time and memory while driving an experiment matrix?
 *
 * The simulator's own telemetry (obs/telemetry.hh) measures simulated
 * time; nothing so far measured the machine running it beyond one
 * micro_speed number. The HostProfiler records scoped phases
 * (validate, per-leg simulate, cache read/write, analyze once per
 * benchmark around the target-independent shakeTrace, cluster per
 * schedule-replay leg, figure render), per-leg wall time and peak
 * RSS, and ThreadPool utilization, then publishes two views:
 *
 *  - publish(): aggregated, deterministically ordered host.* stats
 *    merged into the matrix stats JSON (keys are stable across job
 *    counts; the measured values naturally are not),
 *  - writeProfile(): a standalone Chrome trace (MCD_PROF_OUT) with
 *    one "host" process, one thread lane per host thread, and a
 *    machine-readable "host" summary object.
 *
 * Unlike the per-run Telemetry, host phases run concurrently on pool
 * threads, so this is the one obs component that locks. It is a
 * process-wide singleton, disabled (and cheap: one relaxed atomic
 * load per scope) unless runMatrix arms it from MCD_PROF_OUT.
 */

#ifndef MCD_OBS_HOST_PROF_HH
#define MCD_OBS_HOST_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats_registry.hh"

namespace mcd {
namespace obs {

class HostProfiler
{
  public:
    /** The process-wide profiler. */
    static HostProfiler &instance();

    /**
     * Drop all recorded data and arm (or disarm) collection. The call
     * also restarts the trace epoch: slice timestamps are relative to
     * the most recent reset.
     */
    void reset(bool enable);

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /**
     * One recorded phase, closed when the Scope dies. Default-built
     * or moved-from Scopes record nothing, as does any Scope taken
     * while the profiler is disabled.
     */
    class Scope
    {
      public:
        Scope() = default;
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope(Scope &&o) noexcept { *this = std::move(o); }
        Scope &
        operator=(Scope &&o) noexcept
        {
            close();
            prof = o.prof;
            o.prof = nullptr;
            kind = std::move(o.kind);
            detail = std::move(o.detail);
            start = o.start;
            return *this;
        }
        ~Scope() { close(); }

      private:
        friend class HostProfiler;
        void close();

        HostProfiler *prof = nullptr;
        std::string kind;
        std::string detail;
        std::chrono::steady_clock::time_point start;
    };

    /**
     * Open a phase of @p kind ("validate", "simulate", "cache.read",
     * "cache.write", "analyze", "cluster", "render") with an optional
     * free-form @p detail (typically the leg site, benchmark name or
     * figure title).
     */
    Scope phase(std::string kind, std::string detail = {});

    /** Record one finished leg's wall time and the RSS after it. */
    void noteLeg(const std::string &site, double wall_ms,
                 std::uint64_t rss_kb);

    /**
     * Record ThreadPool totals for the matrix: @p busy_ns is summed
     * across workers, @p wall_ns is the matrix wall time. Utilization
     * is busy/(wall*workers); the helping main thread also executes
     * tasks, so values slightly above 1.0 are possible and honest.
     */
    void notePool(unsigned workers, std::uint64_t tasks,
                  std::uint64_t busy_ns, std::uint64_t wall_ns);

    /** Process peak RSS in KiB (getrusage), 0 where unsupported. */
    static std::uint64_t peakRssKb();

    /**
     * Merge aggregated host.* stats into @p reg: per-kind phase
     * count/total/max, per-leg wall and RSS, pool utilization, peak
     * RSS. Key set and order depend only on the recorded names.
     */
    void publish(StatsRegistry &reg) const;

    /** Write the standalone Chrome-trace profile (MCD_PROF_OUT). */
    void writeProfile(std::ostream &os) const;

  private:
    HostProfiler() = default;

    struct Slice
    {
        std::string kind;
        std::string detail;
        int lane;
        double startUs;
        double durUs;
    };

    struct LegTime
    {
        std::string site;
        double wallMs;
        std::uint64_t rssKb;
    };

    void record(Slice s);
    int laneOf(std::thread::id id);

    std::atomic<bool> on{false};
    mutable std::mutex mtx;
    std::chrono::steady_clock::time_point epoch;
    std::map<std::thread::id, int> lanes;
    std::vector<Slice> slices;
    std::vector<LegTime> legs;
    unsigned poolWorkers = 0;
    std::uint64_t poolTasks = 0;
    std::uint64_t poolBusyNs = 0;
    std::uint64_t poolWallNs = 0;
};

} // namespace obs
} // namespace mcd

#endif // MCD_OBS_HOST_PROF_HH
