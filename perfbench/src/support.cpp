/**
 * @file
 * Benchmark support: options, PRNG, arrivals, spans, records.
 */
#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- options -----------------------------------------------------------

Options::Options(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("expected --key value, got '" +
                                        key + "'");
        values_[key.substr(2)] = argv[++i];
    }
}

std::string
Options::str(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        throw std::invalid_argument("missing option --" + key);
    return it->second;
}

double
Options::num(const std::string &key) const
{
    const std::string s = str(key);
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v))
        throw std::invalid_argument("--" + key + ": not a number: " + s);
    return v;
}

size_t
Options::count(const std::string &key) const
{
    const double v = num(key);
    if (v < 0 || v != std::floor(v) || v > 1e12)
        throw std::invalid_argument("--" + key + ": not a count");
    return static_cast<size_t>(v);
}

// --- host-speed probe ------------------------------------------------

HostProbe::HostProbe(bool enabled)
    : enabled_(enabled), words_(enabled ? size_t{16} << 20 : 0),
      cycle_(enabled ? size_t{1} << 20 : 0)
{
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] = static_cast<uint16_t>((i * 2654435761u) >> 16);
    // Every slot in a fixed random order, linked into one cycle.
    std::vector<int> order(cycle_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    Prng rng(0, 9);
    shuffle(rng, order);
    for (size_t i = 0; i < order.size(); ++i)
        cycle_[static_cast<size_t>(order[i])] =
            static_cast<uint32_t>(order[(i + 1) % order.size()]);
}

double
HostProbe::probe()
{
    const double t0 = hostNow();
    uint64_t sum = 0;
    for (uint16_t w : words_)
        sum += w;
    uint32_t slot = 0;
    for (size_t i = 0; i < (size_t{1} << 16); ++i)
        slot = cycle_[slot];
    const double dt = hostNow() - t0;
    volatile uint64_t sink = sum + slot;
    (void)sink;
    return dt;
}

// --- inputs ------------------------------------------------------------

namespace {

/** SplitMix64's output function, a bijective 64-bit mix. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

// The start state is a mix of seed and stream. A linear combination
// would start seed n + 1 one draw into seed n's sequence.
Prng::Prng(uint64_t seed, uint64_t stream)
    : state_(mix64(mix64(seed) + stream * 0x9e3779b97f4a7c15ull))
{}

uint64_t
Prng::next()
{
    return mix64(state_ += 0x9e3779b97f4a7c15ull);
}

double
Prng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Prng::below(uint64_t n)
{
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t x = next();
    while (x >= limit)
        x = next();
    return x % n;
}

double
Prng::exponential()
{
    return -std::log1p(-uniform());
}

std::vector<double>
poissonArrivals(Prng &rng, size_t n, double rate)
{
    std::vector<double> gaps(n + 1);
    double total = 0.0;
    for (double &g : gaps) {
        g = rng.exponential();
        total += g;
    }
    const double horizon = static_cast<double>(n) / rate;
    std::vector<double> arrivals(n);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sum += gaps[i];
        arrivals[i] = horizon * (sum / total);
    }
    return arrivals;
}

std::vector<int32_t>
randomTokens(Prng &rng, size_t n, size_t vocab)
{
    std::vector<int32_t> t(n);
    for (int32_t &x : t)
        x = static_cast<int32_t>(rng.below(vocab));
    return t;
}

void
shuffle(Prng &rng, std::vector<int> &v)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

dfx::GptConfig
petiteModel()
{
    dfx::GptConfig c;
    c.name = "gpt2-petite";
    c.vocabSize = 4096;
    c.embedding = 512;
    c.heads = 8;
    c.headDim = 64;
    c.layers = 4;
    c.maxSeq = 128;
    return c;
}

// --- spans -------------------------------------------------------------

Tracer::Scope::Scope(Tracer &tracer, const char *name, const char *layer,
                     int64_t request)
{
    if (!tracer.enabled_)
        return;
    tracer_ = &tracer;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
    s.request = request;
    index_ = static_cast<int32_t>(tracer.spans_.size());
    tracer.stack_.push_back(index_);
    s.start = hostNow();
    tracer.spans_.push_back(s);
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    tracer_->spans_[static_cast<size_t>(index_)].end = hostNow();
    tracer_->stack_.pop_back();
}

void
Tracer::start(const std::string &library_trace)
{
    spans_.clear();
    stack_.clear();
    libraryTotals_.clear();
    if (!library_trace.empty())
        dfx::perf::traceStart(library_trace);
    enabled_ = true;
}

void
Tracer::stop()
{
    enabled_ = false;
    if (dfx::perf::traceEnabled()) {
        libraryTotals_ = dfx::perf::traceTotals();
        dfx::perf::traceStop();
    }
}

double
Tracer::librarySeconds(const std::string &name) const
{
    double s = 0.0;
    for (const auto &t : libraryTotals_)
        if (t.name == name)
            s += t.seconds;
    return s;
}

uint64_t
Tracer::libraryCount(const std::string &name) const
{
    uint64_t n = 0;
    for (const auto &t : libraryTotals_)
        if (t.name == name)
            n += t.count;
    return n;
}

void
Tracer::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                     "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, "
                     "\"request\": %lld}%s\n",
                     i, s.name, s.layer, s.start, s.end, s.parent,
                     static_cast<long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

// --- record ------------------------------------------------------------

void
Record::e2e(const std::string &name, double value, const std::string &unit,
            const std::string &kind, size_t samples)
{
    endToEnd.push_back({name, value, unit, kind, samples});
}

void
Record::layer(const std::string &name, double value,
              const std::string &unit, const std::string &kind,
              size_t samples)
{
    perLayer.push_back({name, value, unit, kind, samples});
}

bool
Record::check(bool ok, const char *fmt, ...)
{
    if (ok)
        return true;
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    violations.emplace_back(buf);
    return false;
}

void
reportReconciliation(Context &ctx,
                     const std::map<std::string, double> &library,
                     const std::string &library_parent,
                     double library_threads, double traced_wall,
                     double untraced_wall)
{
    static const char *const kLayers[] = {
        "model", "core", "isa", "network", "appliance",
        "appliance.server", "appliance.fleet",
    };
    const std::vector<Tracer::Span> &spans = ctx.tracer.spans();
    std::map<std::string, double> self;
    for (const Tracer::Span &s : spans) {
        self[s.layer] += s.end - s.start;
        if (s.parent >= 0)
            self[spans[static_cast<size_t>(s.parent)].layer] -=
                s.end - s.start;
    }
    for (const auto &[layer, seconds] : library) {
        self[layer] += seconds / library_threads;
        self[library_parent] -= seconds / library_threads;
    }
    double total = 0.0;
    for (const auto &[layer, seconds] : self)
        total += seconds;
    std::printf("traced run: self seconds by layer (sum %.4f of %.4f wall)\n",
                total, traced_wall);
    for (const char *layer : kLayers) {
        auto it = self.find(layer);
        const double v = it == self.end() ? 0.0 : it->second;
        std::printf("  %-18s %10.4f s\n", layer, v);
        ctx.record.layer(std::string("self_s.") + layer, v, "s", "H", 1);
    }
    ctx.record.layer("trace.wall_s", traced_wall, "s", "H", 1);
    ctx.record.layer("trace.residual_s", traced_wall - total, "s", "H", 1);
    ctx.record.layer("trace.overhead_ratio",
                     untraced_wall > 0 ? traced_wall / untraced_wall - 1.0
                                       : 0.0,
                     "ratio", "H", 1);
}

void
reportEndToEnd(Context &ctx, const std::vector<double> &ttft,
               const std::vector<double> &tpot, double throughput,
               double goodput, double failed_share, uint64_t sim_tokens,
               const HostTime &host, size_t host_samples,
               const std::vector<HostTime> &setups)
{
    Record &rec = ctx.record;
    const size_t n = ttft.size();
    std::vector<double> setup, setup_norm;
    for (const HostTime &t : setups) {
        setup.push_back(t.seconds);
        setup_norm.push_back(t.normSeconds);
    }
    const double tokens = static_cast<double>(sim_tokens);
    const double rss_mb =
        peakRssMb() - static_cast<double>(ctx.probe.residentBytes()) /
                          (1 << 20);
    rec.e2e("ttft_p50_ms", 1e3 * quantile(ttft, 0.5), "ms", "M", n);
    rec.e2e("ttft_p99_ms", 1e3 * quantile(ttft, 0.99), "ms", "M", n);
    rec.e2e("tpot_p50_ms", 1e3 * quantile(tpot, 0.5), "ms", "M", n);
    rec.e2e("tpot_p99_ms", 1e3 * quantile(tpot, 0.99), "ms", "M", n);
    rec.e2e("throughput_tok_s", throughput, "tok/s", "M", n);
    rec.e2e("goodput_rps", goodput, "req/s", "M", n);
    rec.e2e("failed_share", failed_share, "ratio", "M", n);
    rec.e2e("sim_tok_per_host_s", tokens / host.seconds, "tok/s", "H",
            host_samples);
    rec.e2e("sim_tok_per_host_s_norm", tokens / host.normSeconds, "tok/s",
            "H", host_samples);
    rec.e2e("setup_raw_s", quantile(setup, 0.5), "s", "H", setups.size());
    rec.e2e("setup_s", quantile(setup_norm, 0.5), "s", "H", setups.size());
    rec.e2e("peak_rss_mb", rss_mb, "MB", "H", 1);
}

ServeLatency
serveLatency(const std::vector<dfx::ServerRequest> &reqs,
             const std::vector<dfx::RequestResult> &results,
             double ttft_limit, double tpot_limit)
{
    ServeLatency out;
    for (const dfx::RequestResult &r : results) {
        if (r.outcome != dfx::RequestOutcome::Completed)
            continue;
        out.ttft.push_back(r.ttftSeconds());
        out.tpot.push_back((r.finishSimSeconds - r.firstTokenSimSeconds) /
                           static_cast<double>(reqs.at(r.id).nOut - 1));
        out.good += out.ttft.back() <= ttft_limit &&
                    out.tpot.back() <= tpot_limit;
    }
    return out;
}

size_t
checkServe(Record &rec, size_t rung,
           const std::vector<dfx::ServerRequest> &reqs,
           const std::vector<dfx::RequestResult> &results, size_t completed,
           size_t shed, size_t failed, size_t output_tokens)
{
    using dfx::RequestOutcome;
    rec.check(results.size() == reqs.size(),
              "rung %zu: %zu results for %zu requests sent", rung,
              results.size(), reqs.size());
    size_t bad = 0, n_completed = 0, n_shed = 0, n_failed = 0, expected = 0;
    for (size_t i = 0; i < results.size() && i < reqs.size(); ++i) {
        const dfx::RequestResult &r = results[i];
        bool ok = r.id == i && r.arrivalSeconds == reqs[i].arrivalSeconds;
        switch (r.outcome) {
          case RequestOutcome::Completed:
            ++n_completed;
            expected += reqs[i].nOut;
            // The calibrated fleet backend returns no token ids.
            ok = ok && (r.tokens.empty() || r.tokens.size() == reqs[i].nOut) &&
                 r.arrivalSeconds <= r.admitSimSeconds &&
                 r.admitSimSeconds <= r.firstTokenSimSeconds &&
                 r.firstTokenSimSeconds <= r.finishSimSeconds;
            break;
          case RequestOutcome::Shed:
            ++n_shed;
            break;
          case RequestOutcome::Failed:
            ++n_failed;
            break;
        }
        if (!ok) {
            ++bad;
            rec.check(false,
                      "rung %zu request %zu: id, arrival, token count or "
                      "timestamp order violated",
                      rung, i);
        }
    }
    rec.check(n_completed + n_shed + n_failed == reqs.size() &&
                  n_completed == completed && n_shed == shed &&
                  n_failed == failed,
              "rung %zu: sent %zu != completed %zu + shed %zu + failed %zu",
              rung, reqs.size(), n_completed, n_shed, n_failed);
    rec.check(output_tokens == expected,
              "rung %zu: %zu output tokens, expected %zu", rung,
              output_tokens, expected);
    return bad + n_failed;
}

namespace {

bool
sameSchedule(const std::vector<dfx::RequestResult> &a,
             const std::vector<dfx::RequestResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const dfx::RequestResult &x = a[i], &y = b[i];
        if (x.cluster != y.cluster || x.outcome != y.outcome ||
            x.admitSimSeconds != y.admitSimSeconds ||
            x.firstTokenSimSeconds != y.firstTokenSimSeconds ||
            x.finishSimSeconds != y.finishSimSeconds)
            return false;
    }
    return true;
}

}  // namespace

bool
sameSchedule(const dfx::ServerStats &a, const dfx::ServerStats &b)
{
    return sameSchedule(a.results, b.results);
}

bool
sameSchedule(const dfx::FleetStats &a, const dfx::FleetStats &b)
{
    return sameSchedule(a.results, b.results) &&
           a.eventsProcessed == b.eventsProcessed;
}

}  // namespace perfbench
