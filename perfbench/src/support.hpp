/**
 * @file
 * Shared pieces of the repository benchmark binary: options, the
 * benchmark's own PRNG and arrival generator, benchmark-side spans,
 * and the metric record every workload fills in.
 *
 * Inputs are generated here, not by src/appliance/workload.cpp, so a
 * change to the library cannot change what the benchmark sends.
 */
#ifndef PERFBENCH_SUPPORT_HPP
#define PERFBENCH_SUPPORT_HPP

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "appliance/fleet.hpp"
#include "appliance/server.hpp"
#include "model/config.hpp"
#include "perf/trace.hpp"

namespace perfbench {

/** Monotonic host time in seconds. */
double hostNow();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Host seconds of timed work: as measured, and normalized to the
 *  reference host speed (see HostProbe). */
struct HostTime
{
    double seconds = 0.0;
    double normSeconds = 0.0;

    HostTime &
    operator+=(const HostTime &o)
    {
        seconds += o.seconds;
        normSeconds += o.normSeconds;
        return *this;
    }
};

/**
 * Host-speed probe. On a shared host, other tenants' load can slow the
 * simulator by half for tens of seconds at a time. The probe is the
 * benchmark's own code, which no library change can touch: it sums a
 * fixed 32 MiB buffer of 16-bit words (the size of decode-func's
 * weight image), then follows a random cycle through a 4 MiB table,
 * and it slows down with the simulator. Work timed by time() runs
 * between two probes; its normalized seconds are its seconds scaled
 * by kRefSeconds over the mean probe time, the time it would have
 * taken on a host where the probe takes kRefSeconds.
 *
 * A disabled probe (traced runs) times without probing, and its
 * normalized seconds are the measured ones.
 */
class HostProbe
{
  public:
    static constexpr double kRefSeconds = 12e-3;

    explicit HostProbe(bool enabled);

    template <class Work>
    HostTime
    time(Work &&work)
    {
        const double before = enabled_ ? probe() : 0.0;
        const double t0 = hostNow();
        work();
        const double dt = hostNow() - t0;
        if (!enabled_)
            return {dt, dt};
        const double after = probe();
        return {dt, dt * kRefSeconds * 2.0 / (before + after)};
    }

    /** Bytes of the probe's buffers, which peak RSS leaves out. */
    size_t
    residentBytes() const
    {
        return words_.size() * sizeof(uint16_t) +
               cycle_.size() * sizeof(uint32_t);
    }

  private:
    double probe();

    bool enabled_;
    std::vector<uint16_t> words_;
    std::vector<uint32_t> cycle_;  ///< cycle_[i]: next slot after i
};

/** `--key value` command-line options. */
class Options
{
  public:
    Options(int argc, char **argv);

    std::string str(const std::string &key) const;
    double num(const std::string &key) const;
    size_t count(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * SplitMix64: a portable, fully specified 64-bit generator. Streams
 * for different purposes are separated by `stream`, so adding draws
 * to one input never shifts another. Seed and stream are mixed into
 * the start state, so nearby seeds give unrelated sequences.
 */
class Prng
{
  public:
    Prng(uint64_t seed, uint64_t stream);

    uint64_t next();
    /** Uniform in [0, 1) with 53 random bits. */
    double uniform();
    /** Uniform integer in [0, n), n > 0 (rejection, no modulo bias). */
    uint64_t below(uint64_t n);
    /** Unit-rate exponential by inverse CDF: -log(1 - u). */
    double exponential();

  private:
    uint64_t state_;
};

/**
 * Arrival times of a Poisson process of rate `rate` conditioned on
 * exactly `n` arrivals in the horizon [0, n / rate): n + 1 unit
 * exponential gaps normalised by their sum (uniform spacings). The
 * offered rate is then exact in every seed; the burstiness within
 * the horizon is that of a Poisson process.
 */
std::vector<double> poissonArrivals(Prng &rng, size_t n, double rate);

/** `n` token ids uniform in [0, vocab). */
std::vector<int32_t> randomTokens(Prng &rng, size_t n, size_t vocab);

/** In-place Fisher-Yates shuffle driven by `rng`. */
void shuffle(Prng &rng, std::vector<int> &v);

/** Linearly interpolated quantile (numpy "linear"); 0 when empty. */
double quantile(std::vector<double> v, double q);

/**
 * GPT-2-shaped 8-head model for host-speed work: the shape of
 * `gpt2Petite()` in bench/bench_common.hpp, fixed here so the
 * benchmark's inputs do not follow edits to that helper.
 */
dfx::GptConfig petiteModel();

/**
 * Benchmark-side spans around calls into the library's layers. Each
 * span has a name, a layer, start and end, its parent span and the
 * request it belongs to (-1 for none). Spans stay in memory and are
 * written as JSON when the run ends. Recording is off unless enabled,
 * and an off tracer costs one branch per scope.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        const char *layer = "";
        double start = 0.0;
        double end = 0.0;
        int32_t parent = -1;
        int64_t request = -1;
    };

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, const char *layer,
              int64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr;
        int32_t index_ = -1;
    };

    /** Starts recording benchmark spans. With a `library_trace` path
     *  it also switches on the library's own unit scopes
     *  (perf::traceStart), which are written there on stop(). */
    void start(const std::string &library_trace = "");
    /** Stops recording; the library totals are kept. */
    void stop();
    const std::vector<Span> &spans() const { return spans_; }
    /** Library scope seconds by event name (0 when absent). */
    double librarySeconds(const std::string &name) const;
    /** Library scope event count by name. */
    uint64_t libraryCount(const std::string &name) const;

    /** Writes the spans as a JSON array to `path`. */
    void write(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
    std::vector<dfx::perf::TraceTotal> libraryTotals_;
};

/** One reported number. Kind "M" is modeled (simulated DFX time or
 *  counts), "H" is host cost of the simulator. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string kind;
    size_t samples = 0;
};

/** Everything one workload run reports. */
struct Record
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<std::string> violations;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void e2e(const std::string &name, double value, const std::string &unit,
             const std::string &kind, size_t samples);
    void layer(const std::string &name, double value,
               const std::string &unit, const std::string &kind,
               size_t samples);
    /** Records a violation (printf-style) when `ok` is false. */
    bool check(bool ok, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));
};

/** What a workload receives and fills in. */
struct Context
{
    explicit Context(bool traced) : trace(traced), probe(!traced) {}

    uint64_t seed = 0;
    double seconds = 0.0;
    const bool trace;
    std::string outDir;  ///< run artifacts (span and library traces)
    HostProbe probe;
    Tracer tracer;
    Record record;
};

/** Scoped span on the context's tracer. */
#define PERFBENCH_SPAN(ctx, name, layer, request)                       \
    ::perfbench::Tracer::Scope PERFBENCH_CAT(perfbench_span_, __LINE__)( \
        (ctx).tracer, name, layer, request)
#define PERFBENCH_CAT2(a, b) a##b
#define PERFBENCH_CAT(a, b) PERFBENCH_CAT2(a, b)

/**
 * Reports the traced run's reconciliation: self seconds per layer,
 * the residual between their sum and the traced wall time, and the
 * tracing overhead against the untraced pass of the same work.
 *
 * A span's self time is its duration minus its direct children's.
 * `library` holds host seconds measured inside the library, by layer;
 * they are children of the spans of layer `library_parent` and ran on
 * `library_threads` host threads, so their thread seconds are divided
 * by that count before they are taken from the parent.
 */
void reportReconciliation(Context &ctx,
                          const std::map<std::string, double> &library,
                          const std::string &library_parent,
                          double library_threads, double traced_wall,
                          double untraced_wall);

/**
 * Reports the end-to-end metrics every workload prints. Latencies are
 * in seconds, one per completed request; `sim_tokens` were simulated
 * in `host` over `host_samples` timed units; `setups` holds the time
 * of each set-up. Call it before any output check, so peak RSS is
 * that of the workload, not of its checker.
 */
void reportEndToEnd(Context &ctx, const std::vector<double> &ttft,
                    const std::vector<double> &tpot, double throughput,
                    double goodput, double failed_share, uint64_t sim_tokens,
                    const HostTime &host, size_t host_samples,
                    const std::vector<HostTime> &setups);

/** Modeled latencies of one serve (completed requests only). */
struct ServeLatency
{
    std::vector<double> ttft;  ///< arrival to first token, seconds
    std::vector<double> tpot;  ///< (finish - first) / (nOut - 1)
    size_t good = 0;           ///< completed within both SLO limits
};

ServeLatency serveLatency(const std::vector<dfx::ServerRequest> &reqs,
                          const std::vector<dfx::RequestResult> &results,
                          double ttft_limit, double tpot_limit);

/**
 * Checks one serve's invariants against the requests sent: one
 * terminal result per request with its id and arrival, sent =
 * completed + shed + failed (matching the stats' counts), output
 * tokens = sum of nOut over completed requests, and arrival <= admit
 * <= first token <= finish. Returns the number of requests that
 * failed or broke an invariant.
 */
size_t checkServe(Record &rec, size_t rung,
                  const std::vector<dfx::ServerRequest> &reqs,
                  const std::vector<dfx::RequestResult> &results,
                  size_t completed, size_t shed, size_t failed,
                  size_t output_tokens);

/** True when two serves placed and timed every request identically
 *  (fleets: and processed the same number of events). */
bool sameSchedule(const dfx::ServerStats &a, const dfx::ServerStats &b);
bool sameSchedule(const dfx::FleetStats &a, const dfx::FleetStats &b);

/**
 * The passes of a serving workload over its rungs. A `Rung` is one
 * rung's serve: `rate`, `stats` (ServerStats or FleetStats), `host`
 * (the HostTime of its serve()) and `detail()`, the workload's own
 * part of the per-rung report line. The middle rung is nominal. The
 * host rate is taken over the rungs below the top one: the top rung
 * is past capacity, and its host cost depends on how far the seed's
 * arrivals pile up.
 *
 * Every pass is checked as it ends. Pass 0 is kept for the modeled
 * metrics; later passes must reproduce its schedule and are then
 * dropped, so memory does not grow with the number of passes.
 */
template <class Rung>
class ServePasses
{
  public:
    explicit ServePasses(
        const std::vector<std::vector<dfx::ServerRequest>> &requests)
        : requests_(requests), nominal_(requests.size() / 2)
    {}

    /** Checks `pass` against the requests sent and against pass 0,
     *  and adds it to the host tallies. Returns `pass`. */
    std::vector<Rung>
    check(Record &rec, std::vector<Rung> pass)
    {
        const size_t p = passes_++;
        for (size_t r = 0; r < pass.size(); ++r) {
            const auto &st = pass[r].stats;
            const std::vector<dfx::ServerRequest> &reqs = requests_[r];
            rec.attempted += reqs.size();
            rec.failed += checkServe(rec, r, reqs, st.results,
                                     st.completedRequests, st.totalShed,
                                     st.totalFailed, st.totalOutputTokens);
            if (p > 0)
                rec.check(sameSchedule(st, first_[r].stats),
                          "pass %zu rung %zu: modeled schedule differs "
                          "from pass 0",
                          p, r);
            if (r + 1 == pass.size())
                continue;
            host_ += pass[r].host;
            for (const dfx::RequestResult &q : st.results)
                if (q.outcome == dfx::RequestOutcome::Completed)
                    simTokens_ +=
                        reqs.at(q.id).prompt.size() + reqs.at(q.id).nOut;
        }
        if (p == 0)
            first_ = pass;
        return pass;
    }

    size_t nominal() const { return nominal_; }

    /**
     * Prints pass 0 rung by rung. On an untraced run it then reports
     * the end-to-end metrics at the nominal rung; `goodput_rps` is
     * SLO-meeting completions per simulated second at the highest
     * rung where at least 99% of the requests sent meet both limits.
     */
    void
    report(Context &ctx, double ttft_limit, double tpot_limit,
           const std::vector<HostTime> &setups) const
    {
        double goodput = 0.0;
        ServeLatency nominal_latency;
        for (size_t r = 0; r < first_.size(); ++r) {
            const Rung &rung = first_[r];
            const auto &st = rung.stats;
            const size_t sent = requests_[r].size();
            ServeLatency lat =
                serveLatency(requests_[r], st.results, ttft_limit,
                             tpot_limit);
            const double attainment =
                static_cast<double>(lat.good) / static_cast<double>(sent);
            if (attainment >= 0.99)
                goodput = std::max(goodput, static_cast<double>(lat.good) /
                                                st.makespanSeconds);
            std::printf(
                "rung %zu %6.1f rps: sent %zu, completed %zu, shed %zu, "
                "failed %zu, ttft p50/p99 %.3f/%.3f ms, tpot p50/p99 "
                "%.4f/%.4f ms, SLO attainment %.4f, %s, serve %.2fs host\n",
                r, rung.rate, sent, st.completedRequests, st.totalShed,
                st.totalFailed, 1e3 * quantile(lat.ttft, 0.5),
                1e3 * quantile(lat.ttft, 0.99), 1e3 * quantile(lat.tpot, 0.5),
                1e3 * quantile(lat.tpot, 0.99), attainment,
                rung.detail().c_str(), rung.host.seconds);
            if (r == nominal_)
                nominal_latency = std::move(lat);
        }
        if (ctx.trace)
            return;
        const auto &nom = first_[nominal_].stats;
        reportEndToEnd(ctx, nominal_latency.ttft, nominal_latency.tpot,
                       nom.throughputTokensPerSec(), goodput,
                       static_cast<double>(nom.totalShed + nom.totalFailed) /
                           static_cast<double>(requests_[nominal_].size()),
                       simTokens_, host_, passes_, setups);
    }

    /** Reports `<layer>.serve_s.{low,nominal,high}` of a traced pass. */
    static void
    reportServeSeconds(Record &rec, const std::string &layer,
                       const std::vector<Rung> &pass)
    {
        static const char *const kRung[] = {"low", "nominal", "high"};
        for (size_t r = 0; r < pass.size() && r < 3; ++r)
            rec.layer(layer + ".serve_s." + kRung[r],
                      pass[r].host.seconds, "s", "H",
                      pass[r].stats.results.size());
    }

  private:
    const std::vector<std::vector<dfx::ServerRequest>> &requests_;
    const size_t nominal_;
    std::vector<Rung> first_;
    size_t passes_ = 0;
    uint64_t simTokens_ = 0;  ///< rungs below the top, all passes
    HostTime host_;           ///< in their serve()s
};

void runDecodeFunc(Context &ctx);
void runServePrefix(Context &ctx);
void runFleetFailover(Context &ctx);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_HPP
