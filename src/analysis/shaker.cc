#include "shaker.hh"

#include <algorithm>
#include <utility>

namespace mcd {

int
histogramBin(Hertz f, Hertz fmin, Hertz fmax)
{
    double t = (f - fmin) / (fmax - fmin);
    int b = static_cast<int>(t * DomainHistogram::bins);
    if (b < 0)
        b = 0;
    if (b >= DomainHistogram::bins)
        b = DomainHistogram::bins - 1;
    return b;
}

Hertz
histogramBinFreq(int bin, Hertz fmin, Hertz fmax)
{
    return fmin + (bin + 0.5) * (fmax - fmin) / DomainHistogram::bins;
}

namespace {

/** Slack between an event's end and its earliest successor start
 *  (bounded by the interval end). */
double
outSlack(const IntervalGraph &g, std::int32_t e)
{
    const DagEvent &ev = g.events[e];
    Tick bound = std::min(g.intervalEnd, ev.endCeiling);
    for (const DagEdge &s : g.out[e]) {
        Tick limit = g.events[s.to].start;
        limit = limit > static_cast<Tick>(s.lag)
            ? limit - static_cast<Tick>(s.lag) : 0;
        bound = std::min(bound, limit);
    }
    if (bound <= ev.end)
        return 0.0;
    return static_cast<double>(bound - ev.end);
}

/** Slack between an event's start and its latest predecessor end
 *  (bounded by the interval start). */
double
inSlack(const IntervalGraph &g, std::int32_t e)
{
    const DagEvent &ev = g.events[e];
    Tick bound = std::max(g.intervalStart, ev.floorStart);
    for (const DagEdge &p : g.in[e])
        bound = std::max(bound,
                         g.events[p.to].end + static_cast<Tick>(p.lag));
    if (bound >= ev.start)
        return 0.0;
    return static_cast<double>(ev.start - bound);
}

} // namespace

void
radixSort(std::vector<OrderSlot> &slots, std::vector<OrderSlot> &scratch)
{
    constexpr int digitBits = 8;
    constexpr std::uint64_t mask = (std::uint64_t(1) << digitBits) - 1;
    std::uint64_t keyBits = 0;
    for (const OrderSlot &s : slots)
        keyBits |= s.key;
    scratch.resize(slots.size());
    for (int shift = 0; shift < 64 && (keyBits >> shift) != 0;
         shift += digitBits) {
        std::array<std::size_t, mask + 1> offset{};
        for (const OrderSlot &s : slots)
            ++offset[(s.key >> shift) & mask];
        // A digit every key shares leaves the order as it is.
        if (offset[(slots.front().key >> shift) & mask] == slots.size())
            continue;
        std::size_t sum = 0;
        for (std::size_t &o : offset)
            sum += std::exchange(o, sum);
        for (const OrderSlot &s : slots)
            scratch[offset[(s.key >> shift) & mask]++] = s;
        slots.swap(scratch);
    }
}

ShakeResult
shake(IntervalGraph &g, const ShakerConfig &cfg, Hertz fmax, Hertz fmin)
{
    ShakeResult result;
    if (g.events.empty())
        return result;

    const double maxStretch = std::min(cfg.maxStretch, fmax / fmin);

    // Base (unstretched) power factors for threshold bookkeeping.
    std::vector<double> basePower(g.size());
    double maxPower = 0.0;
    double minPower = 1e300;
    for (std::size_t i = 0; i < g.size(); ++i) {
        basePower[i] = g.events[i].power;
        maxPower = std::max(maxPower, basePower[i]);
        minPower = std::min(minPower, basePower[i]);
    }
    double threshold = maxPower * cfg.initialThresholdFactor;
    const double thresholdFloor =
        minPower / (maxStretch * maxStretch) * 0.5;

    // The visit order, carried from pass to pass: each re-sort is
    // stable, so ties keep the previous pass's order.
    std::vector<OrderSlot> order(g.size());
    std::vector<OrderSlot> scratch;
    for (std::size_t i = 0; i < g.size(); ++i)
        order[i].event = static_cast<std::int32_t>(i);

    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
        bool scaled = false;

        // Backward pass: latest-ending events first; slack sits on
        // outgoing edges and migrates to incoming ones.
        Tick hi = 0;
        for (const DagEvent &ev : g.events)
            hi = std::max(hi, ev.end);
        for (OrderSlot &s : order)
            s.key = hi - g.events[s.event].end;
        radixSort(order, scratch);
        for (const OrderSlot &slot : order) {
            const std::int32_t e = slot.event;
            DagEvent &ev = g.events[e];
            double slack = outSlack(g, e);
            if (slack <= 0.0)
                continue;
            if (ev.power >= threshold && ev.stretch < maxStretch) {
                double scalable = static_cast<double>(
                    ev.origDuration - ev.fixedPortion);
                double maxAdd = scalable * (maxStretch - ev.stretch);
                double add = std::min(slack, maxAdd);
                ev.end += static_cast<Tick>(add);
                ev.stretch = (static_cast<double>(ev.end - ev.start) -
                              static_cast<double>(ev.fixedPortion)) /
                    scalable;
                ev.power = basePower[e] / (ev.stretch * ev.stretch);
                slack -= add;
                result.slackConsumed += add;
                scaled = true;
            }
            if (slack > 0.0) {
                // Move the event later, handing slack to predecessors
                // (bounded by the issue-queue occupancy ceiling).
                Tick shift = static_cast<Tick>(slack);
                if (ev.startCeiling > ev.start) {
                    shift = std::min(shift, ev.startCeiling - ev.start);
                } else {
                    shift = 0;
                }
                ev.start += shift;
                ev.end += shift;
            }
        }
        threshold *= cfg.thresholdDecay;

        // Forward pass: earliest-starting events first; slack sits on
        // incoming edges and migrates to outgoing ones.
        Tick lo = ~Tick(0);
        for (const DagEvent &ev : g.events)
            lo = std::min(lo, ev.start);
        for (OrderSlot &s : order)
            s.key = g.events[s.event].start - lo;
        radixSort(order, scratch);
        for (const OrderSlot &slot : order) {
            const std::int32_t e = slot.event;
            DagEvent &ev = g.events[e];
            double slack = inSlack(g, e);
            if (slack <= 0.0)
                continue;
            if (ev.power >= threshold && ev.stretch < maxStretch) {
                double scalable = static_cast<double>(
                    ev.origDuration - ev.fixedPortion);
                double maxAdd = scalable * (maxStretch - ev.stretch);
                double add = std::min(slack, maxAdd);
                ev.start -= static_cast<Tick>(add);
                ev.stretch = (static_cast<double>(ev.end - ev.start) -
                              static_cast<double>(ev.fixedPortion)) /
                    scalable;
                ev.power = basePower[e] / (ev.stretch * ev.stretch);
                slack -= add;
                result.slackConsumed += add;
                scaled = true;
            }
            if (slack > 0.0) {
                Tick shift = static_cast<Tick>(slack);
                ev.start -= shift;
                ev.end -= shift;
            }
        }
        threshold *= cfg.thresholdDecay;
        result.passesRun = pass + 1;

        if (!scaled && threshold < thresholdFloor)
            break;
    }

    // Build the per-domain frequency histograms: each event's work
    // (original full-speed duration) lands in the bin of its assigned
    // frequency fmax / stretch.
    for (const DagEvent &ev : g.events) {
        Hertz f = fmax / ev.stretch;
        int b = histogramBin(f, fmin, fmax);
        // Only the on-chip (scalable) portion of the event is work
        // governed by the domain clock.
        result.histogram[domainIndex(ev.domain)].work[b] +=
            static_cast<double>(ev.origDuration - ev.fixedPortion);
    }
    return result;
}

} // namespace mcd
